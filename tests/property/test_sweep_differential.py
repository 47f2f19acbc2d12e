"""The cost sweep and its walk against the graph path, node by node.

For every affected node a collection computes the distance to a target
at every vertex of ``G_n`` in one backward sweep over child positions ×
automaton states (:class:`~repro.core.propagation_graph.CostSweep`), and
:meth:`~repro.core.propagate.PropagationGraphs.build_script` walks that
sweep for a :class:`PreferenceChooser` on the optimal graphs. The
reference kept here is the path that built graph objects:

* **costs** — ``build_propagation_graph`` and Dijkstra
  (``min_distances``) per affected node, bottom-up
  (:func:`_eager_costs`, installed in place of the sweep);
* **walks** — :class:`~repro.core.optimal.OptimalPropagationGraph` and
  ``greedy_path`` per affected node (:class:`_Greedy`, a preference
  chooser the collection does not walk).

Every affected node's cost and path must agree, and per update the
script term, the fresh identifiers drawn, and the error class and
message. Inputs: random DTDs from :mod:`repro.generators` (a third of
them the renaming schema) and their broken updates served unvalidated,
the workload ``FAMILIES`` streams parsed sparse against the view, and
schemas built for the sweep's corners: a non-deterministic content
model whose ties fall to the target vertex, hidden labels whose
(i)-moves chain and cycle, an insertlet package with unequal weights, a
long hidden run against a long inserted run, and visible deletes beside
hidden siblings. Every case runs under all three shipped operation
orders.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DTD, Annotation, UpdateBuilder, ViewEngine, parse_term
from repro.core.choosers import (
    DEL_OVER_NOP_OVER_INS,
    INS_OVER_NOP_OVER_DEL,
    NOP_OVER_DEL_OVER_INS,
    PreferenceChooser,
)
from repro.core.propagate import PropagationGraphs
from repro.dtd import InsertletPackage
from repro.editing import EditScript
from repro.errors import NoPropagationError
from repro.generators.updates import random_view_update
from repro.graphutil import greedy_path, min_distances
from repro.xmltree import NodeIds

from ..sharding.test_differential import FAMILIES
from .test_edit_local_differential import _mutants, _update, _workload

ORDERS = (NOP_OVER_DEL_OVER_INS, DEL_OVER_NOP_OVER_INS, INS_OVER_NOP_OVER_DEL)

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# The graph path, kept as the reference
# ---------------------------------------------------------------------------


def _eager_costs(self, postorder):
    """Every affected ``G_n`` built and searched by Dijkstra, bottom-up."""
    costs = self.costs._built
    for node in postorder:
        graph = self._build(node)
        dist = min_distances([graph.source], graph.edges_from)
        best = min(
            (dist[target] for target in graph.targets if target in dist),
            default=None,
        )
        if best is None:
            raise NoPropagationError(
                f"no propagation path in G_{node!r} (label {graph.label!r}); "
                "Theorem 5 guarantees one for valid view updates — was "
                "validation skipped on an invalid update?"
            )
        costs[node] = best


class _Greedy(PreferenceChooser):
    """The same preference, taken by ``greedy_path`` over ``G*_n``."""


def _steps(path):
    return [(edge.kind, edge.symbol, edge.t_child, edge.s_child) for edge in path]


class _Recording:
    """Fresh identifiers from *start*, recording each one drawn."""

    def __init__(self, start: int) -> None:
        self.drawn: list = []
        self._fresh = NodeIds("f", start).fresh

    def __call__(self):
        node = self._fresh()
        self.drawn.append(node)
        return node


def _serve(engine, source, update, chooser, *, validate, reference):
    start = 1 + max(source.max_suffix("f"), update.max_suffix("f"))
    fresh = _Recording(start)
    try:
        if reference:
            with mock.patch.object(PropagationGraphs, "_sweep_affected", _eager_costs):
                collection = engine.propagation_graphs(source, update, validate=validate)
        else:
            collection = engine.propagation_graphs(source, update, validate=validate)
        script = collection.build_script(chooser, fresh)
    except Exception as error:  # the class and message must both agree
        return (type(error), str(error)), fresh.drawn
    return (collection, script), fresh.drawn


def _check(engine, source, update, *, validate=True):
    """Serve *update* both ways under every order; returns the scripts
    (``None`` where both raised)."""
    scripts = []
    for order in ORDERS:
        served, served_ids = _serve(
            engine, source, update, PreferenceChooser(order),
            validate=validate, reference=False,
        )
        chooser = _Greedy(order)
        expected, expected_ids = _serve(
            engine, source, update, chooser, validate=validate, reference=True
        )
        assert served_ids == expected_ids
        if isinstance(expected[0], type) or isinstance(served[0], type):
            assert served == expected
            scripts.append(None)
            continue
        (collection, script), (reference, expected_script) = served, expected
        assert script.to_term() == expected_script.to_term()
        assert collection.min_cost() == reference.min_cost() == script.cost
        assert collection._affected == reference._affected
        for node in collection._affected:
            assert collection.costs[node] == reference.costs[node], node
            optimal = reference.optimal(node)
            walked = collection._sweeps[node].walk(chooser.preference)
            assert walked == _steps(greedy_path(
                optimal.source, optimal.targets, optimal.edges_from, chooser.preference
            )), node
        scripts.append(script)
    return scripts


# ---------------------------------------------------------------------------
# Random schemas, documents and updates
# ---------------------------------------------------------------------------


@_SETTINGS
@given(st.integers(0, 10**6))
def test_random_updates_match_the_graph_path(seed):
    rng, dtd, annotation, source = _workload(seed)
    engine = ViewEngine(dtd, annotation)
    update = _update(rng, dtd, annotation, source)
    _check(engine, source, update)
    sparse = EditScript.parse(update.to_term(), base=engine.view(source))
    _check(engine, source, sparse)


@_SETTINGS
@given(st.integers(0, 10**6))
def test_unvalidated_invalid_updates_fail_alike(seed):
    rng, dtd, annotation, source = _workload(seed)
    engine = ViewEngine(dtd, annotation)
    update = _update(rng, dtd, annotation, source)
    for mutant in _mutants(rng, dtd, annotation, source, update, engine.view_dtd).values():
        _check(engine, source, mutant, validate=False)


@pytest.mark.parametrize("family_index", range(len(FAMILIES)))
def test_workload_streams_match_the_graph_path(family_index):
    workload = FAMILIES[family_index]()
    engine = ViewEngine(workload.dtd, workload.annotation)
    rng = random.Random(77 + family_index)
    source = workload.source
    for _ in range(4):
        update = random_view_update(
            rng, workload.dtd, workload.annotation, source, n_ops=rng.randint(1, 3)
        )
        sparse = EditScript.parse(update.to_term(), base=engine.view(source))
        script = _check(engine, source, sparse)[0]
        source = script.output_tree


# ---------------------------------------------------------------------------
# The sweep's corners
# ---------------------------------------------------------------------------


def _inserting(engine, source, parent, terms, *, index=None):
    view = engine.view(source)
    builder = UpdateBuilder(view, forbidden_ids=source.nodes())
    for term in terms:
        builder.insert(parent, parse_term(term), index=index)
    return builder.script()


TIES = DTD({"r": "((a, h) | (a, g))*", "a": "", "h": "", "g": ""})
"""Glushkov positions 1 (``a`` before ``h``) and 3 (``a`` before ``g``):
inserting an ``a`` reaches both at equal cost, and the walk breaks the
tie by the target vertex, as ``greedy_path`` does."""

TIES_HIDDEN = Annotation.hiding(("r", "h"), ("r", "g"))


def test_nondeterministic_ties_fall_to_the_target():
    engine = ViewEngine(TIES, TIES_HIDDEN)
    source = parse_term("r#r(a#a1, h#h1, a#a2, g#g1)")
    for index in (0, 1, 2):
        update = _inserting(engine, source, "r", ["a#n1", "a#n2"], index=index)
        for script in _check(engine, source, update):
            assert script.cost == 4


WEIGHTS = DTD({"r": "((a, h) | (a, g))*", "a": "", "h": "x*", "g": "", "x": ""})


@pytest.mark.parametrize("heavy_h, kept", [(False, "h"), (True, "g")])
def test_unequal_insertlet_weights_steer_the_choice(heavy_h, kept):
    """With equal weights the tie falls to ``h``'s branch; an insertlet
    weighing 3 for ``h`` makes ``g``'s branch the only cheapest one."""
    factory = (
        InsertletPackage(WEIGHTS, {"h": parse_term("h#w0(x#w1, x#w2)")}, strict=False)
        if heavy_h else None
    )
    engine = ViewEngine(WEIGHTS, TIES_HIDDEN, factory=factory)
    source = parse_term("r#r(a#a1, g#g1)")
    update = _inserting(engine, source, "r", ["a#n1"])
    for script in _check(engine, source, update):
        assert f"Ins.{kept}#" in script.to_term()
        assert script.cost == 2


CHAINS = DTD({
    "r": "(v, x, y, z)*",
    "c": "(v, (x, y)+, z)*",
    "v": "", "x": "", "y": "", "z": "",
})
"""Inserting a ``v`` forces the hidden ``x, y, z`` after it: (i)-moves
that chain through three states of the end cell (``r``), and through a
cycle ``x → y → x`` (``c``)."""

CHAINS_HIDDEN = Annotation.hiding(
    *[(parent, child) for parent in ("r", "c") for child in ("x", "y", "z")]
)


@pytest.mark.parametrize("root", ["r", "c"])
def test_insert_moves_chain_and_cycle(root):
    engine = ViewEngine(CHAINS, CHAINS_HIDDEN)
    source = parse_term(f"{root}#r(v#v1, x#x1, y#y1, z#z1)")
    for index in (0, 1):
        update = _inserting(engine, source, "r", ["v#n1", "v#n2"], index=index)
        for script in _check(engine, source, update):
            assert script.cost == 8


RUNS = DTD({"r": "(h | v)*, e?", "h": "", "v": "", "e": ""})
RUNS_HIDDEN = Annotation.hiding(("r", "h"), ("r", "e"))


def test_long_hidden_run_against_long_inserted_run():
    engine = ViewEngine(RUNS, RUNS_HIDDEN)
    hidden = ", ".join(f"h#h{i}" for i in range(12))
    source = parse_term(f"r#r({hidden}, e#e0)")
    update = _inserting(engine, source, "r", [f"v#n{i}" for i in range(9)])
    for script in _check(engine, source, update):
        assert script.cost == 9


SIBLINGS = DTD({"r": "(v, h?)*", "v": "", "h": ""})
SIBLINGS_HIDDEN = Annotation.hiding(("r", "h"))


@pytest.mark.parametrize("victims", [["v2"], ["v1", "v3"], ["v2", "v4"]])
def test_visible_deletes_beside_hidden_siblings(victims):
    engine = ViewEngine(SIBLINGS, SIBLINGS_HIDDEN)
    source = parse_term("r#r(v#v1, h#h1, v#v2, h#h2, v#v3, h#h3, v#v4)")
    builder = UpdateBuilder(engine.view(source), forbidden_ids=source.nodes())
    for victim in victims:
        builder.delete(victim)
    update = builder.script()
    _check(engine, source, update)
    _check(engine, source, EditScript.parse(update.to_term(), base=engine.view(source)))
