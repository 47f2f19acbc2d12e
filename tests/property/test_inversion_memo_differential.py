"""Differential suite for the inversion memo.

An :class:`~repro.inversion.memo.InversionMemo` sizes a view fragment by
looking up each node's shape (its label and its children's labels and
costs) and inverts it by replaying the paths memoized per shape. Every
result here is compared with the reference built for the fragment
alone: ``inversion_graphs(...)`` and its
``build_tree(chooser.choose, fresh, optimal_only=…)``. Both must give

* the same tree, fresh identifiers included, and the same
  ``min_inversion_size``;
* or the same error class and message.

Inputs: random DTDs and annotations, and a schema whose items need
hidden children on either side of a title, in each paragraph and after
it. Fragments are views of random documents and every subtree of one,
so shapes recur under other identifiers, and mutants that are no view:
a label hidden under its parent or outside the alphabet, a child
dropped. One memo serves all fragments of a schema, so later fragments
replay what earlier ones left; a second one keeps two entries only, so
fragments outlive theirs. Choosers: the three
:class:`~repro.core.choosers.PreferenceChooser` orders on ``H*_n``
(and one on ``H_n``), and :class:`~repro.core.choosers.CheapestPathChooser`
on ``H*_n`` and on ``H_n``; factories: the minimal-tree factory and an insertlet package.
:meth:`ViewEngine.invert` is compared with its reference too, and a
session stream whose fragments recur under new identifiers with a cold
engine that builds each fragment's collection.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DTD, Annotation, UpdateBuilder, ViewEngine, parse_term
from repro.core.choosers import (
    DEL_OVER_NOP_OVER_INS,
    INS_OVER_NOP_OVER_DEL,
    NOP_OVER_DEL_OVER_INS,
    CheapestPathChooser,
    PreferenceChooser,
)
from repro.dtd import InsertletPackage, MinimalTreeFactory
from repro.editing import EditScript
from repro.engine import _LruCache
from repro.generators.dtds import random_annotation, random_dtd
from repro.generators.trees import random_tree
from repro.graphutil import cheapest_path
from repro.inversion import inversion_graphs
from repro.inversion.memo import InversionMemo
from repro.xmltree import NodeIds, Tree

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ORDERS = (NOP_OVER_DEL_OVER_INS, DEL_OVER_NOP_OVER_INS, INS_OVER_NOP_OVER_DEL)

CHOICES = [(PreferenceChooser(order), True) for order in ORDERS] + [
    (CheapestPathChooser(order), optimal_only)
    for order in ORDERS[:2]
    for optimal_only in (True, False)
] + [(PreferenceChooser(INS_OVER_NOP_OVER_DEL), False)]
"""Each chooser with the ``optimal_only`` it is served with. A greedy
walk of a full graph may take a path no optimal one has, or fail."""

ITEMS = DTD({
    "r": "item*",
    "item": "((stamp, title) | (title, stamp)), (para, mark)*",
    "para": "text, (cite | ref)",
    "title": "", "stamp": "", "mark": "", "text": "", "cite": "", "ref": "",
})
ITEMS_HIDDEN = Annotation.hiding(
    ("item", "stamp"), ("item", "mark"), ("para", "cite"), ("para", "ref")
)


def _schema(rng):
    """A random schema with its root label, or — a quarter of the time —
    the items schema, whose every item needs hidden children."""
    if rng.random() < 0.25:
        return ITEMS, ITEMS_HIDDEN, "r"
    dtd = random_dtd(rng, n_labels=rng.randint(3, 5))
    return dtd, random_annotation(rng, dtd), "l0"


def _factory(rng, dtd):
    if rng.random() < 0.5:
        return MinimalTreeFactory(dtd)
    labels = rng.sample(sorted(dtd.alphabet), rng.randint(1, len(dtd.alphabet)))
    insertlets = {
        label: random_tree(dtd, rng, root_label=label, size_hint=rng.randint(1, 4))
        for label in labels
    }
    return InsertletPackage(dtd, insertlets, strict=False)


def _mutant(rng, dtd, view: Tree) -> Tree:
    """*view* with one node relabelled (to a random label or one outside
    the alphabet) or one non-root subtree dropped: often no view."""
    nodes = list(view.nodes())
    node = rng.choice(nodes)
    if rng.random() < 0.5 or node == view.root:
        labels = dict(view._labels)
        labels[node] = rng.choice([*sorted(dtd.alphabet), "zz"])
        return Tree(view.root, labels, dict(view._children))
    return view.delete_subtree(node)


def _fragments(rng, dtd, annotation, root):
    """Views of random documents and their subtrees, and mutants."""
    fragments = []
    for index in range(3):
        source = random_tree(
            dtd, rng, root_label=root, size_hint=rng.randint(2, 14),
            fresh=NodeIds(f"g{index}_"),
        )
        view = annotation.view(source)
        fragments.append(view)
        fragments.extend(view.subtree(node) for node in rng.sample(
            list(view.nodes()), min(3, view.size)
        ))
        fragments.append(_mutant(rng, dtd, view))
    return fragments


def _outcome(build):
    try:
        size, tree = build()
    except Exception as error:  # the class and message must both agree
        return type(error), str(error)
    return size, tree.to_term(), tree


def _fresh(rng, view):
    """Fresh identifiers past the view's, or — now and then — ones that
    collide with it."""
    if rng.random() < 0.1:
        return lambda: NodeIds("g0_").fresh
    start = view.max_suffix("h") + 1
    return lambda: NodeIds("h", start).fresh


def _reference(dtd, annotation, factory, view, chooser, optimal_only, fresh):
    graphs = inversion_graphs(dtd, annotation, view, factory)
    return graphs.min_inversion_size(), graphs.build_tree(
        chooser.choose, fresh(), optimal_only=optimal_only
    )


def _memoized(memo, view, chooser, optimal_only, fresh):
    fragment = memo.size_tree(view)
    return fragment.min_inversion_size(), memo.build_tree(
        fragment, (chooser.cache_key(), optimal_only), chooser.choose, fresh(),
        optimal_only=optimal_only,
    )


@_SETTINGS
@given(seed=st.integers(0, 10**6))
def test_memoized_inversion_matches_the_reference(seed):
    rng = random.Random(seed)
    dtd, annotation, root = _schema(rng)
    factory = _factory(rng, dtd)
    shared = InversionMemo(dtd, annotation, factory)
    small = InversionMemo(dtd, annotation, factory, entries=_LruCache(2))
    for view in _fragments(rng, dtd, annotation, root):
        fresh = _fresh(rng, view)
        for chooser, optimal_only in CHOICES:
            expected = _outcome(
                lambda: _reference(dtd, annotation, factory, view, chooser, optimal_only, fresh)
            )
            for memo in (shared, small):
                got = _outcome(lambda: _memoized(memo, view, chooser, optimal_only, fresh))
                assert got == expected, (view.to_term(), chooser, optimal_only)
                if not isinstance(got[0], type):
                    assert dtd.validates(got[2]) and annotation.view(got[2]) == view


def _invert_choose(graph):
    return cheapest_path(
        graph.source, graph.targets, graph.edges_from,
        tie_break=lambda edge: (edge.kind, edge.symbol),
    )


@_SETTINGS
@given(seed=st.integers(0, 10**6))
def test_engine_invert_matches_the_reference(seed):
    rng = random.Random(seed)
    dtd, annotation, root = _schema(rng)
    engine = ViewEngine(dtd, annotation)
    for view in _fragments(rng, dtd, annotation, root):
        for minimal in (True, False):
            expected = _outcome(lambda: (0, inversion_graphs(dtd, annotation, view).build_tree(
                _invert_choose, optimal_only=minimal
            )))
            got = _outcome(lambda: (0, engine.invert(view, minimal=minimal)))
            assert got == expected, (view.to_term(), minimal)


class _Uncached(PreferenceChooser):
    """The same preference without a cache key: the propagation builds
    each inserted fragment's inversion-graph collection."""

    cache_key = None


def _item_edit(rng, view, source, step):
    kids = view.children(view.root)
    builder = UpdateBuilder(view, forbidden_ids=source.nodes())
    if kids:
        builder.delete(rng.choice(kids))
    for extra in range(rng.randint(1, 2)):
        paras = ", ".join(
            f"para#u{step}_{extra}p{k}(text#u{step}_{extra}x{k})" for k in range(rng.randrange(3))
        )
        item = f"item#u{step}_{extra}(title#u{step}_{extra}t{', ' + paras if paras else ''})"
        at = rng.randint(0, len(builder.output_children(view.root)))
        builder.insert(view.root, parse_term(item), index=at)
    return builder.script()


@_SETTINGS
@given(seed=st.integers(0, 10**6))
def test_recurring_shapes_replay_in_a_session(seed):
    """A session stream inserting items of three shapes under new
    identifiers: after the first few, every fragment replays memoized
    paths, and each script equals a cold engine's built on the
    fragment's collection."""
    rng = random.Random(seed)
    order = ORDERS[seed % 3]
    items = ", ".join(f"item#i{i}(stamp#s{i}, title#t{i})" for i in range(4))
    engine = ViewEngine(ITEMS, ITEMS_HIDDEN)
    session = engine.session(parse_term(f"r#r({items})"))
    for step in range(12):
        before = session.source
        update = _item_edit(rng, session.view, before, step)
        served = session.propagate(
            EditScript.parse(update.to_term(), base=session.view),
            chooser=PreferenceChooser(order),
        )
        cold = ViewEngine(ITEMS, ITEMS_HIDDEN).propagate(
            before, update, chooser=_Uncached(order)
        )
        assert (served.to_term(), served.cost) == (cold.to_term(), cold.cost)
    # item shapes with 0, 1 and 2 paragraphs, the paragraph, title and text
    assert len(engine.inversion_memo) <= 6
