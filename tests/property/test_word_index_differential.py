"""Differential suite for the session's word indexes.

A :class:`~repro.session.DocumentSession` keeps one
:class:`~repro.automata.wordindex.WordIndex` per wide children word:
min-plus over its source, Boolean over its view. With one, an affected
node is classified, swept, walked, assembled and validated at its edited
positions only, each run of untouched children crossed through the
index, and the index advances with the document. Every script a session
serves here is compared, update by update, with two references that
hold no index:

* **cold** — a fresh engine's ``propagate`` on the same source, which
  classifies and sweeps every position;
* **graphs** — ``build_propagation_graph`` and Dijkstra per affected
  node, and ``greedy_path`` over each
  :class:`~repro.core.optimal.OptimalPropagationGraph`
  (:mod:`.test_sweep_differential`'s reference).

The script term (fresh identifiers included) and its cost must agree,
or the error class and message. Inputs: random DTDs (a renaming schema
among them) with every word indexed;
schemas built for the index's corners, served as streams of 200 updates
with edits at the first and the last position: a nondeterministic model
whose ties fall to the target, hidden children kept, deleted and
inserted by (i)-moves that chain and cycle, and runs the optimal path
leaves, which the walk finds by bisection; broken updates served
unvalidated; all under the three operation orders. After each stream
every index must equal one built afresh from the session's document.

The Boolean fold is checked against :meth:`NFA.accepts` over random edit
sequences, on view models that erasure makes nondeterministic too.
"""

from __future__ import annotations

import random
from importlib import import_module
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DTD, Annotation, UpdateBuilder, ViewEngine, parse_term
from repro.automata.wordindex import CostLeaves, MemberLeaves, WordIndex
from repro.core import propagation_graph
from repro.core.choosers import PreferenceChooser
from repro.core.propagate import PropagationGraphs
from repro.dtd import view_dtd
from repro.editing import EditScript
from repro.generators.workloads import hospital
from repro.xmltree import NodeIds

from .test_edit_local_differential import _mutants, _update, _workload
from .test_sweep_differential import (
    CHAINS,
    CHAINS_HIDDEN,
    ORDERS,
    RUNS,
    RUNS_HIDDEN,
    SIBLINGS,
    SIBLINGS_HIDDEN,
    TIES,
    TIES_HIDDEN,
    _eager_costs,
    _Greedy,
)

# the module, which ``repro.core`` shadows with its ``propagate`` function
_PROPAGATE = import_module("repro.core.propagate")

STREAM = 200

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@pytest.fixture
def every_word(monkeypatch):
    """Index every nonempty children word."""
    monkeypatch.setattr(_PROPAGATE, "WIDE", 1)
    monkeypatch.setattr(_PROPAGATE, "_indexed", lambda width, states: width > 0)


# ---------------------------------------------------------------------------
# The references, and the comparison
# ---------------------------------------------------------------------------


def _outcome(serve):
    try:
        script = serve()
    except Exception as error:  # the class and message must both agree
        return type(error), str(error)
    return script.to_term(), script.cost


def _cold(dtd, annotation, source, update, order, validate):
    return ViewEngine(dtd, annotation).propagate(
        source, update, chooser=PreferenceChooser(order), validate=validate
    )


def _graphs(dtd, annotation, source, update, order, validate):
    engine = ViewEngine(dtd, annotation)
    with mock.patch.object(PropagationGraphs, "_sweep_affected", _eager_costs):
        collection = engine.propagation_graphs(source, update, validate=validate)
    return collection.build_script(_Greedy(order))


def _serve(session, update, order, *, validate=True):
    """Serve *update* through *session* and both references; they must
    agree. Returns whether the session advanced."""
    dtd, annotation = session.engine.dtd, session.engine.annotation
    before = session.source
    cold = _outcome(lambda: _cold(dtd, annotation, before, update, order, validate))
    graphs = _outcome(lambda: _graphs(dtd, annotation, before, update, order, validate))
    served = _outcome(
        lambda: session.propagate(update, chooser=PreferenceChooser(order), validate=validate)
    )
    assert served == cold == graphs
    if isinstance(served[0], type):
        assert session.source is before
        return False
    return True


def _leaf_value(index, node, source, session):
    algebra = index.algebra
    label = source._labels[node]
    if isinstance(algebra, MemberLeaves):
        return algebra.leaf(label)
    table = session.engine.insert_moves(index.label)
    return algebra.leaf(label, session._sizes[node] if label in table.hidden else None)


def _product(index):
    """The whole word's summary, comparable across tree shapes."""
    values = index.cover(0, len(index))
    if not values:
        return None
    value = values[0]
    for more in values[1:]:
        value = index.algebra.combine(value, more)
    if isinstance(index.algebra, CostLeaves):
        matrix, visible, diagonal = value
        return tuple(dict(row) for row in matrix), visible, diagonal
    return value


def assert_indices_fresh(session):
    """Every index equals one built afresh from the session's document."""
    sides = ((session._indices, session.source), (session._view_indices, session.view))
    for indices, tree in sides:
        for node, index in indices.items():
            kids = tree.children(node)
            assert len(index) == len(kids), node
            assert tree._labels[node] == index.label
            fresh = WordIndex(
                [_leaf_value(index, kid, tree, session) for kid in kids], index.algebra, index.label
            )
            assert _product(index) == _product(fresh), node
            assert index.leaves(0, len(index)) == fresh.leaves(0, len(fresh)), node


# ---------------------------------------------------------------------------
# Random schemas, every word indexed
# ---------------------------------------------------------------------------


def _random_stream(seed):
    """Serve 40 random updates of a random schema through one session,
    a quarter of them broken variants served unvalidated; yields the
    session after each."""
    rng, dtd, annotation, source = _workload(seed)
    vdtd = view_dtd(dtd, annotation)
    order = ORDERS[seed % 3]
    session = ViewEngine(dtd, annotation).session(source)
    for _ in range(40):
        update = _update(rng, dtd, annotation, session.source)
        if rng.random() < 0.25:
            mutants = _mutants(rng, dtd, annotation, session.source, update, vdtd)
            broken = EditScript.parse(
                rng.choice(list(mutants.values())).to_term(), base=session.view
            )
            _serve(session, broken, order, validate=False)
        else:
            _serve(session, EditScript.parse(update.to_term(), base=session.view), order)
        yield session


@_SETTINGS
@given(seed=st.integers(0, 10**6))
def test_random_streams_match_both_references(every_word, seed):
    for session in _random_stream(seed):
        pass
    assert_indices_fresh(session)


@pytest.mark.parametrize("seed", [1074, 1090, 1147])
def test_unvalidated_advance_leaves_the_view_of_the_source(every_word, seed):
    """At these seeds a broken update served unvalidated renames a node
    so that a child's visibility changes: it propagates, but is no view
    update. The session's view must stay the projection of its source
    (the next valid update is built against that projection)."""
    for session in _random_stream(seed):
        assert session.view == session.engine.annotation.view(session.source)


# ---------------------------------------------------------------------------
# The index's corners, as streams
# ---------------------------------------------------------------------------


def _group_source(root, groups, count):
    """``root#r(…)`` holding *count* groups, each from ``groups(i)``."""
    return parse_term(f"{root}#r({', '.join(groups(i) for i in range(count))})")


def _edits(symbol, *, count=1):
    """Updates of the root's visible *symbol* children: *count* inserts
    or *count* deletes, each at the first, the last or a random
    position."""
    fresh = NodeIds("n")

    def make(rng, session):
        view = session.view
        builder = UpdateBuilder(view, forbidden_ids=session.source.nodes())
        delete = rng.random() < 0.45 and len(view.children(view.root)) >= 2 * count
        for _ in range(count):
            kids = builder.output_children(view.root)
            if delete:
                builder.delete(kids[rng.choice([0, len(kids) - 1, rng.randrange(len(kids))])])
                continue
            node = fresh.fresh()
            while node in session.source._labels:
                node = fresh.fresh()
            at = rng.choice([0, len(kids), rng.randint(0, len(kids))])
            builder.insert(view.root, parse_term(f"{symbol}#{node}"), index=at)
        return EditScript.parse(builder.script().to_term(), base=view)

    return make


PAIRS = DTD({"r": "(v, v, h)*", "v": "", "h": ""})
"""Hidden ``h`` after every two ``v``: between two inserted (or deleted)
``v`` the groups shift by one, so the ``Nop`` diagonal from the state an
edit leaves reads one ``v`` and dies, and the walk leaves every run
between the edits part way through."""

PAIRS_HIDDEN = Annotation.hiding(("r", "h"))


CORNERS = {
    # nondeterministic: an inserted a reaches both Glushkov positions
    "ties": (
        TIES, TIES_HIDDEN,
        _group_source("r", lambda i: f"a#a{i}, {'h' if i % 3 else 'g'}#x{i}", 40),
        _edits("a"),
    ),
    # (i)-moves that chain through three states, and hidden deletes
    "chains": (
        CHAINS, CHAINS_HIDDEN,
        _group_source("r", lambda i: f"v#v{i}, x#x{i}, y#y{i}, z#z{i}", 15),
        _edits("v"),
    ),
    # (i)-moves that cycle x → y → x
    "cycles": (
        CHAINS, CHAINS_HIDDEN,
        _group_source("c", lambda i: f"v#v{i}, x#x{i}, y#y{i}, x#w{i}, y#u{i}, z#z{i}", 10),
        _edits("v"),
    ),
    # long hidden runs against inserted ones
    "runs": (
        RUNS, RUNS_HIDDEN,
        _group_source("r", lambda i: f"h#h{i}, v#v{i}, h#k{i}" if i % 4 else f"v#v{i}", 30),
        _edits("v"),
    ),
    # a visible delete forces a hidden one next to it
    "siblings": (
        SIBLINGS, SIBLINGS_HIDDEN,
        _group_source("r", lambda i: f"v#v{i}, h#h{i}" if i % 2 else f"v#v{i}", 40),
        _edits("v"),
    ),
    # runs left part way through
    "pairs": (
        PAIRS, PAIRS_HIDDEN,
        _group_source("r", lambda i: f"v#v{i}, v#w{i}, h#h{i}", 15),
        _edits("v", count=2),
    ),
}


@pytest.mark.parametrize("order", ORDERS, ids=["nop", "del", "ins"])
@pytest.mark.parametrize("corner", sorted(CORNERS))
def test_corner_streams_match_both_references(every_word, corner, order):
    dtd, annotation, source, make = CORNERS[corner]
    rng = random.Random(f"{corner}-{order}")
    session = ViewEngine(dtd, annotation).session(source)
    for _ in range(STREAM):
        _serve(session, make(rng, session), order)
    assert session._indices and session._view_indices
    assert_indices_fresh(session)


def test_walk_leaves_runs_by_bisection(every_word, monkeypatch):
    """Runs whose ``Nop`` diagonal stops being optimal part way through
    are crossed up to that cell and left there."""
    partial = []
    diagonal = propagation_graph._Run.diagonal

    def counted(self, position, state, here):
        found = diagonal(self, position, state, here)
        if position < found[0] < self.stop:
            partial.append(found)
        return found

    monkeypatch.setattr(propagation_graph._Run, "diagonal", counted)
    dtd, annotation, source, _ = CORNERS["pairs"]
    session = ViewEngine(dtd, annotation).session(source)
    view = session.view
    builder = UpdateBuilder(view, forbidden_ids=session.source.nodes())
    builder.insert("r", parse_term("v#n1"), index=2)
    builder.insert("r", parse_term("v#n2"), index=21)
    _serve(session, EditScript.parse(builder.script().to_term(), base=view), ORDERS[0])
    assert len(partial) >= 8, partial


# ---------------------------------------------------------------------------
# Real constants: a wide ward
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", ORDERS, ids=["nop", "del", "ins"])
def test_hospital_stream_matches_both_references(order):
    workload = hospital(60)
    rng = random.Random(5)
    session = ViewEngine(workload.dtd, workload.annotation).session(workload.source)
    for step in range(STREAM // 4):
        view = session.view
        (ward,) = view.children(view.root)
        patients = view.children(ward)[1:]
        builder = UpdateBuilder(view, forbidden_ids=session.source.nodes())
        builder.delete(rng.choice([patients[0], patients[-1], rng.choice(patients)]))
        builder.insert(
            ward,
            parse_term(f"patient#q{step}(name#q{step}n, admission#q{step}a)"),
            index=rng.choice([1, len(patients), rng.randint(1, len(patients))]),
        )
        _serve(session, EditScript.parse(builder.script().to_term(), base=view), order)
    assert list(session._indices) == list(session._view_indices) == ["w"]
    assert_indices_fresh(session)


# ---------------------------------------------------------------------------
# Membership: the Boolean fold against NFA.accepts
# ---------------------------------------------------------------------------


def _models():
    """View models, some made nondeterministic by erasure."""
    models = [
        view_dtd(TIES, TIES_HIDDEN).automaton("r"),
        view_dtd(CHAINS, CHAINS_HIDDEN).automaton("c"),
        view_dtd(RUNS, RUNS_HIDDEN).automaton("r"),
        view_dtd(PAIRS, PAIRS_HIDDEN).automaton("r"),
    ]
    for seed in range(6):
        rng, dtd, annotation, _ = _workload(seed)
        vdtd = view_dtd(dtd, annotation)
        models.extend(vdtd.automaton(label) for label in sorted(dtd.alphabet))
    return models


def _balanced(node):
    """The height of an AVL subtree whose sizes and heights are right."""
    if node.left is None:
        assert (node.size, node.height) == (1, 0)
        return 0
    left, right = _balanced(node.left), _balanced(node.right)
    assert abs(left - right) <= 1
    assert node.size == node.left.size + node.right.size
    assert node.height == 1 + max(left, right)
    return node.height


def test_some_view_models_are_nondeterministic():
    assert any(not model.is_deterministic() for model in _models())


@pytest.mark.parametrize("seed", range(12))
def test_boolean_fold_matches_accepts(seed):
    rng = random.Random(seed)
    for model in _models():
        alphabet = sorted(model.alphabet) or ["a"]
        algebra = MemberLeaves(model)
        word = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        index = WordIndex([algebra.leaf(y) for y in word], algebra, "x")
        for _ in range(30):
            roll = rng.random()
            if word and roll < 0.35:
                at = rng.randrange(len(word))
                del word[at]
                index.delete(at)
            elif word and roll < 0.5:
                at = rng.randrange(len(word))
                word[at] = rng.choice(alphabet)
                index.replace(at, algebra.leaf(word[at]))
            else:
                at = rng.randint(0, len(word))
                word.insert(at, rng.choice(alphabet))
                index.insert(at, algebra.leaf(word[at]))
            if word:
                assert _balanced(index._root) <= 2 * len(word).bit_length()
            states = algebra.fold(index.cover(0, len(index)), algebra.initial)
            assert bool(states & algebra.finals) == model.accepts(word)
            # a run from any state set, against stepping the automaton
            lo = rng.randint(0, len(word))
            hi = rng.randint(lo, len(word))
            start = frozenset(q for q in range(len(algebra.states)) if rng.random() < 0.5)
            stepped = frozenset(algebra.states[q] for q in start)
            for symbol in word[lo:hi]:
                stepped = model.step(stepped, symbol)
            folded = algebra.fold(index.cover(lo, hi), start)
            assert {algebra.states[q] for q in folded} == set(stepped)


def test_cost_leaves_close_over_insert_moves():
    """A leaf is the (i)-move closure ⊗ the consume move: from a state
    with no ``v`` move, an inserted hidden chain reaches one."""
    engine = ViewEngine(CHAINS, CHAINS_HIDDEN)
    table = engine.insert_moves("r")
    leaves = table.leaves()
    matrix, visible, _ = leaves.leaf("v", None).value
    assert visible == 1
    after_v = table.moves("v")[0][table.initial][0]
    # after a v, the next v needs x, y, z inserted first: 3 minimal trees
    assert dict(matrix[after_v]) == {after_v: 3}
    assert CostLeaves.apply([leaves.leaf("v", None).value], [0] * len(table.states))[after_v] == 3
