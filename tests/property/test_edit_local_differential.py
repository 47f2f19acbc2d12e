"""Differential suites for edit-local session propagation.

A session update builds, validates and advances only what the edit
touches: propagation graphs are built segment-locally and only for the
*affected* kept nodes (those above an edit), ``Out(S)`` is checked
against the view DTD only where it differs from a view known to be
valid, and the size table and fresh-suffix index advance along the
edits alone. Each suite below keeps the straightforward whole-document
version as a reference and requires identical results on random
(DTD, annotation, document, view update) workloads from
:mod:`repro.generators`:

* **graph builder** — the full ``(k+1) × (ℓ+1)`` grid scan of
  ``build_propagation_graph`` as it was before segment-local positions,
  compared graph by graph for every kept node (pristine ones reached
  through ``collection[node]``): vertex order, edge order, kinds,
  weights, consumed children and targets;
* **validation** — ``view_known_valid=True`` against the full check and
  both against a whole-document reference (every node of ``Out(S)``,
  renames in document order), on valid updates and on mutated ones (a
  ``Nop`` child renamed, a subtree inserted that the view DTD rejects, a
  required child deleted, a hidden identifier reused): same outcome,
  same error class and message;
* **cache advance** — the full postorder walk of the propagated script,
  compared after every step of a session stream: size table, fresh
  suffix maximum and every :class:`~repro.session.SessionStats` counter.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DTD, Annotation, UpdateBuilder, ViewEngine, parse_term
from repro.core import PEdge, PropagationGraph, PVertex, propagation_graphs
from repro.core.propagate import _rename_error, validate_view_update
from repro.core.propagation_graph import (
    EdgeKind,
    _segment_indices,
    compile_insert_moves,
)
from repro.dtd import view_dtd
from repro.editing import EditLabel, EditScript, Op
from repro.errors import InvalidViewUpdateError, ScriptError
from repro.generators.dtds import random_annotation, random_dtd
from repro.generators.trees import random_tree
from repro.generators.updates import random_view_update
from repro.graphutil import min_distances
from repro.session import SessionStats, _FreshSuffixIndex
from repro.xmltree import NodeIds, Tree

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


_DOCS = DTD(
    {
        "doc": "(article|note|memo)*",
        "article": "title,audit?",
        "note": "title,audit?",
        "memo": "title,audit?",
        "title": "",
        "audit": "",
    }
)
_DOCS_ANNOTATION = Annotation.hiding(("article", "audit"), ("note", "audit"))


def _workload(seed: int):
    """A random schema and document, or — a third of the time — a
    document of a schema whose ``article``/``note`` items can be renamed
    into each other (random schemas almost never admit a rename)."""
    rng = random.Random(seed)
    if rng.random() < 1 / 3:
        items = []
        for index in range(rng.randint(1, 8)):
            kind = rng.choice(["article", "note", "memo"])
            audit = f", audit#x{index}" if rng.random() < 0.5 else ""
            items.append(f"{kind}#i{index}(title#t{index}{audit})")
        return rng, _DOCS, _DOCS_ANNOTATION, parse_term(f"doc#d({', '.join(items)})")
    dtd = random_dtd(rng, n_labels=rng.randint(3, 5))
    annotation = random_annotation(rng, dtd)
    source = random_tree(dtd, rng, root_label="l0", size_hint=rng.randint(4, 16))
    return rng, dtd, annotation, source


def _update(rng, dtd, annotation, source):
    """A random valid view update; on the renaming schema it also renames
    random articles and notes into each other."""
    if dtd is not _DOCS:
        return random_view_update(rng, dtd, annotation, source, n_ops=rng.randint(1, 4))
    view = annotation.view(source)
    builder = UpdateBuilder(view, forbidden_ids=source.nodes())
    fresh = NodeIds("u", forbidden=source.node_set)
    items = list(view.children(view.root))
    rng.shuffle(items)
    for node in items:
        roll = rng.random()
        if roll < 0.3 and view.label(node) != "memo":
            builder.rename(node, "note" if view.label(node) == "article" else "article")
        elif roll < 0.45:
            builder.delete(node)
    for _ in range(rng.randint(0, 2)):
        position = rng.randint(0, len(builder.output_children(view.root)))
        kind = rng.choice(["article", "note", "memo"])
        item = parse_term(f"{kind}#{fresh.fresh()}(title#{fresh.fresh()})")
        builder.insert(view.root, item, index=position)
    return builder.script()


# ---------------------------------------------------------------------------
# Graph builder: the whole-grid reference
# ---------------------------------------------------------------------------


def _grid_graph(
    dtd, annotation, source_tree, update, node, *, factory, subtree_sizes,
    child_costs, insert_costs, effective_label=None,
):
    """``build_propagation_graph`` scanning every ``(i, j)`` grid position."""
    label = effective_label if effective_label is not None else source_tree.label(node)
    model = dtd.automaton(label)
    t_children = source_tree.children(node)
    s_children = update.children(node)

    common = frozenset(t_children) & frozenset(s_children)
    t_common = [child for child in t_children if child in common]
    s_common = [child for child in s_children if child in common]
    if t_common != s_common:
        raise ScriptError("visible children in different orders")
    seg_t = _segment_indices(t_children, common)
    seg_s = _segment_indices(s_children, common)

    k, ell = len(t_children), len(s_children)
    hidden_symbols = [y for y in dtd.sorted_alphabet if annotation.hides(label, y)]

    def valid(i, j):
        return seg_t[i] == seg_s[j]

    adjacency = {}

    def add(edge):
        adjacency.setdefault(edge.source, []).append(edge)

    states = model.sorted_states()
    insert_moves = compile_insert_moves(model, hidden_symbols, factory)
    for i in range(k + 1):
        for j in range(ell + 1):
            if not valid(i, j):
                continue
            for state in states:
                vertex = PVertex(i, state, j)
                for symbol, q2, weight in insert_moves[state]:
                    add(PEdge(vertex, PVertex(i, q2, j),
                              EdgeKind.INVISIBLE_INSERT, symbol, weight))
                if i < k:
                    t_child = t_children[i]
                    y = source_tree.label(t_child)
                    if annotation.hides(label, y):
                        if valid(i + 1, j):
                            add(PEdge(vertex, PVertex(i + 1, state, j),
                                      EdgeKind.INVISIBLE_DELETE, y,
                                      subtree_sizes[t_child], t_child=t_child))
                            for q2 in model.sorted_successors(state, y):
                                add(PEdge(vertex, PVertex(i + 1, q2, j),
                                          EdgeKind.INVISIBLE_NOP, y, 0, t_child=t_child))
                    elif j < ell and s_children[j] == t_child:
                        s_op = update.op(t_child)
                        if s_op is Op.DEL and valid(i + 1, j + 1):
                            add(PEdge(vertex, PVertex(i + 1, state, j + 1),
                                      EdgeKind.VISIBLE_DELETE, y, subtree_sizes[t_child],
                                      t_child=t_child, s_child=t_child))
                        if s_op is Op.NOP and valid(i + 1, j + 1):
                            for q2 in model.sorted_successors(state, y):
                                add(PEdge(vertex, PVertex(i + 1, q2, j + 1),
                                          EdgeKind.VISIBLE_NOP, y, child_costs[t_child],
                                          t_child=t_child, s_child=t_child))
                        if s_op is Op.REN and valid(i + 1, j + 1):
                            new_label = update.output_symbol(t_child)
                            for q2 in model.sorted_successors(state, new_label):
                                add(PEdge(vertex, PVertex(i + 1, q2, j + 1),
                                          EdgeKind.VISIBLE_RENAME, new_label,
                                          1 + child_costs[t_child],
                                          t_child=t_child, s_child=t_child))
                if j < ell:
                    s_child = s_children[j]
                    if update.op(s_child) is Op.INS and valid(i, j + 1):
                        y = update.symbol(s_child)
                        if annotation.visible(label, y):
                            for q2 in model.sorted_successors(state, y):
                                add(PEdge(vertex, PVertex(i, q2, j + 1),
                                          EdgeKind.VISIBLE_INSERT, y,
                                          insert_costs[s_child], s_child=s_child))

    return PropagationGraph(
        node, label, t_children, s_children,
        PVertex(0, model.initial, 0),
        frozenset(PVertex(k, state, ell) for state in model.finals),
        {vertex: tuple(edges) for vertex, edges in adjacency.items()},
        seg_t, seg_s,
    )


def _full_pristine(update):
    """Pristine nodes by a full postorder, as the collection once found them."""
    pristine = set()
    for node in update.tree.postorder():
        if update.op(node) is Op.NOP and all(
            kid in pristine for kid in update.children(node)
        ):
            pristine.add(node)
    return pristine


@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_graphs_match_grid_reference(seed):
    rng, dtd, annotation, source = _workload(seed)
    update = _update(rng, dtd, annotation, source)
    collection = propagation_graphs(dtd, annotation, source, update)
    kept = [n for n in update.tree.postorder() if update.is_kept(n)]
    assert list(collection) == kept
    assert len(collection) == len(kept)
    assert collection.pristine == _full_pristine(update)
    insert_costs = {
        child: inversion.min_inversion_size()
        for child, inversion in collection.insertions.items()
    }
    for node in kept:
        graph = collection[node]
        reference = _grid_graph(
            dtd, annotation, source, update, node,
            factory=collection.factory,
            subtree_sizes=source.subtree_sizes(),
            child_costs=collection.costs,
            insert_costs=insert_costs,
            effective_label=(
                update.output_symbol(node) if update.op(node) is Op.REN else None
            ),
        )
        assert graph.label == reference.label
        assert (graph.t_children, graph.s_children) == (
            reference.t_children, reference.s_children
        )
        assert (graph.seg_t, graph.seg_s) == (reference.seg_t, reference.seg_s)
        assert graph.source == reference.source
        assert graph.targets == reference.targets
        # vertex order and, per vertex, edge order — kinds, weights and
        # consumed children included (PEdge equality covers every field)
        assert list(graph._adjacency.items()) == list(reference._adjacency.items())
        assert list(graph.vertices()) == list(reference.vertices())
        dist = min_distances([reference.source], reference.edges_from)
        assert collection.costs[node] == min(dist[t] for t in reference.targets if t in dist)


# ---------------------------------------------------------------------------
# Validation: edit-local against the full check
# ---------------------------------------------------------------------------


def _rebuilt(update, labels=None, insert=None):
    """*update* with some labels replaced and/or one leaf inserted
    (``insert = (parent, index, node, label)``), its label map reversed:
    nothing may depend on the map's order."""
    tree = update.tree
    labels = dict(tree._labels) if labels is None else labels
    children = dict(tree._children)
    parents = dict(tree._parents)
    if insert is not None:
        parent, index, node, label = insert
        kids = list(children.get(parent, ()))
        kids.insert(index, node)
        children[parent] = tuple(kids)
        parents[node] = parent
        labels[node] = label
    labels = dict(reversed(labels.items()))
    return EditScript(Tree._from_parts(tree.root, labels, children, parents))


def _mutants(rng, dtd, annotation, source, update, vdtd):
    """Broken variants of a valid view update, by kind."""
    tree = update.tree
    kept = [n for n in update.nodes() if update.is_kept(n)]
    nops = [n for n in kept if update.op(n) is Op.NOP and n != update.root]
    alphabet = list(dtd.sorted_alphabet)
    mutants = {}
    targets, count = alphabet + ["zz"], rng.randint(1, 3)
    if dtd is _DOCS:
        # items renamed to or from memo (which shows its audit) get past
        # the view DTD, so the rename precondition itself decides; when
        # several fail, the first in document order is reported
        nops = [n for n in nops if update.tree.parent(n) == update.root]
        targets, count = ["article", "memo"], rng.randint(2, 3)
    if nops:
        labels = dict(tree._labels)
        for node in rng.sample(nops, min(len(nops), count)):
            old = update.symbol(node)
            target = rng.choice([y for y in targets if y != old])
            labels[node] = EditLabel(Op.REN, old, target)
        mutants["rename"] = _rebuilt(update, labels)
    parent = rng.choice(kept)
    out_label = update.output_symbol(parent)
    index = rng.randint(0, len(update.children(parent)))
    word = [update.output_symbol(k) for k in update.children(parent)
            if update.op(k) is not Op.DEL]
    out_index = sum(1 for k in update.children(parent)[:index]
                    if update.op(k) is not Op.DEL)
    rejected = [
        y for y in alphabet
        if not vdtd.allows(out_label, word[:out_index] + [y] + word[out_index:])
    ]
    symbol = rng.choice(rejected or alphabet)
    mutants["insert"] = _rebuilt(
        update, insert=(parent, index, "zz_ins", EditLabel(Op.INS, symbol))
    )
    whole_nop = [n for n in nops if all(update.op(d) is Op.NOP
                                        for d in tree.descendants_or_self(n))]
    if whole_nop:
        node = rng.choice(whole_nop)
        labels = dict(tree._labels)
        for gone in tree.descendants_or_self(node):
            labels[gone] = EditLabel(Op.DEL, update.symbol(gone))
        mutants["delete"] = _rebuilt(update, labels)
    hidden = sorted(source.node_set - annotation.view(source).node_set, key=repr)
    if hidden:
        mutants["reuse"] = _rebuilt(
            update,
            insert=(parent, index, rng.choice(hidden), EditLabel(Op.INS, symbol)),
        )
    return mutants


def _whole_validation(dtd, annotation, source, update, vdtd):
    """The whole-document check: every node of ``Out(S)`` against the view
    DTD, renames checked in document order."""
    view = annotation.view(source)
    if update.input_tree != view:
        raise InvalidViewUpdateError(
            "In(S) differs from the view A(t) — the update was not built "
            "against this source's view"
        )
    reused = update.node_set & (source.node_set - view.node_set)
    if reused:
        raise InvalidViewUpdateError(
            f"update reuses identifiers hidden by the view: {sorted(map(repr, reused))[:5]}"
        )
    output = update.output_tree
    if output.is_empty or not vdtd.validates(output):
        raise InvalidViewUpdateError("Out(S) is not in the view language A(L(D))")
    for node in update.nodes():
        if update.op(node) is Op.REN:
            error = _rename_error(dtd, annotation, node, update.edit_label(node))
            if error is not None:
                raise error


def _outcome(check):
    try:
        check()
    except Exception as error:  # the class and message must both agree
        return type(error), str(error)
    return None


@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_edit_local_validation_matches_full_check(seed):
    rng, dtd, annotation, source = _workload(seed)
    vdtd = view_dtd(dtd, annotation)
    view = annotation.view(source)
    # the invariant a session's validity bit rests on
    assert vdtd.validates(view)
    update = _update(rng, dtd, annotation, source)
    candidates = {"valid": update, **_mutants(rng, dtd, annotation, source, update, vdtd)}
    for kind, candidate in candidates.items():
        outcomes = [
            _outcome(lambda known=known: validate_view_update(
                dtd, annotation, source, candidate,
                derived_view_dtd=vdtd, source_view=view, view_known_valid=known,
            ))
            for known in (False, True)
        ]
        whole = _outcome(
            lambda: _whole_validation(dtd, annotation, source, candidate, vdtd)
        )
        assert outcomes == [whole, whole], kind
        if kind == "valid":
            assert whole is None


# ---------------------------------------------------------------------------
# Cache advance: the full postorder walk as reference
# ---------------------------------------------------------------------------


class _Reference:
    """A session's caches, advanced by walking every node of each script."""

    def __init__(self, source):
        self.sizes = dict(source.subtree_sizes())
        self.suffixes = _FreshSuffixIndex("f", source.nodes())
        self.served = self.cost = self.inserted = self.deleted = 0
        self.carried = self.replayed = 0

    def walk(self, script):
        tree = script.tree
        totals = {}
        stack = [(script.root, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                if script.op(node) is Op.DEL:
                    for gone in tree.descendants_or_self(node):
                        self.sizes.pop(gone, None)
                        self.suffixes.discard(gone)
                        self.deleted += 1
                    totals[node] = 0
                    continue
                stack.append((node, True))
                for kid in tree.children(node):
                    stack.append((kid, False))
                continue
            total = 1
            for kid in tree.children(node):
                total += totals.pop(kid)
            if script.op(node) is Op.INS:
                self.suffixes.add(node)
                self.inserted += 1
            elif self.sizes.get(node) == total:
                self.carried += 1
            self.sizes[node] = total
            totals[node] = total

    @property
    def stats(self):
        return SessionStats(
            self.served, self.cost, self.inserted, self.deleted,
            self.carried, self.replayed,
        )


@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 6))
def test_cache_advance_matches_full_walk(seed, steps):
    rng, dtd, annotation, source = _workload(seed)
    engine = ViewEngine(dtd, annotation)
    session = engine.session(source)
    reference = _Reference(source)
    for _ in range(steps):
        current = session.source
        update = _update(rng, dtd, annotation, current)
        if rng.random() < 0.3:
            # the replay path walks the same caches
            script = ViewEngine(dtd, annotation).propagate(current, update)
            session.apply_source_script(script)
            reference.replayed += 1
        else:
            script = session.propagate(update)
            reference.served += 1
            reference.cost += script.cost
        reference.walk(script)
        assert session._sizes == reference.sizes
        assert session._sizes == dict(session.source.subtree_sizes())
        assert session.fresh_suffix_max == reference.suffixes.max()
        assert session.stats == reference.stats
