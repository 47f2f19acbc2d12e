"""Size guard: a served one-edit stream costs its edit, not its document.

Unsharded one-edit streams are served at two document sizes each
(``hospital(60)`` and ``hospital(960)``; ``huge_document(2000)`` and
``huge_document(8000)``). After the first request, which opens the
session, every request must stay under one node bound at both sizes:

* the nodes :meth:`EditScript.parse` materializes (the script's
  explicitly held nodes);
* the nodes the ``In``/``Out`` projections write rather than share with
  the tree they patch (a label or children entry not taken from the
  session's view or source);
* the nodes ``build_script`` emits;
* the nodes :meth:`Tree._render` renders;
* the :class:`~repro.core.propagation_graph.PEdge` objects built;
* the automaton steps (:meth:`NFA.step` calls);
* the sweep cells computed and the walk steps taken (a run of untouched
  children crossed through a word index counts one);
* the phantom-text comparisons of the request's parse.

No served request may expand a sparse script's :attr:`EditScript.tree`,
build a propagation graph (``build_propagation_graph``) or an optimal
one (:class:`~repro.core.optimal.OptimalPropagationGraph`): the default
chooser walks each affected node's cost sweep. Inversion graphs of the
inserted fragments are still built and searched.

The log keeps the same promise: every request after the first appends
at most :data:`WAL_BOUND` bytes to the document's write-ahead log, and
reopening the store after the stream parses at most ``BOUND`` nodes per
replayed record and expands no sparse script.
"""

from __future__ import annotations

import random
from collections import Counter
from importlib import import_module

import pytest

from repro.automata import NFA
from repro.core.optimal import OptimalPropagationGraph
from repro.core.propagate import PropagationGraphs
from repro.core.propagation_graph import CostSweep, PEdge
from repro.editing import EditScript, UpdateBuilder
from repro.engine import ViewEngine
from repro.generators.workloads import hospital, huge_document
from repro.server import ReproServer, ServeClient
from repro.store import DocumentStore
from repro.xmltree import Tree, parse_term

from .conftest import run_with_server

# the module, which ``repro.core`` shadows with its ``propagate`` function
_PROPAGATE = import_module("repro.core.propagate")
_SCRIPT = import_module("repro.editing.script")

BOUND = 64
"""Nodes (or edge objects) per request, per measure, at every document
size."""

WAL_BOUND = 1024
"""Bytes one request appends to the log, frame header included."""

REQUESTS = 6


def _stream(workload, edit, length: int, seed: int) -> "list[str]":
    """*length* sequential one-edit update terms, each built against the
    view the previous one left."""
    rng = random.Random(seed)
    session = ViewEngine(workload.dtd, workload.annotation).session(workload.source)
    terms = []
    for step in range(length):
        builder = UpdateBuilder(session.view, forbidden_ids=session.source.nodes())
        edit(rng, session.view, builder, step)
        update = builder.script()
        terms.append(update.to_term())
        session.propagate(update)
    return terms


def _discharge_admit(rng, view, builder, step) -> None:
    (ward,) = view.children(view.root)
    patients = view.children(ward)[1:]
    builder.delete(rng.choice(patients))
    builder.insert(
        ward,
        parse_term(f"patient#q{step}(name#q{step}n, admission#q{step}a)"),
        index=rng.randint(1, len(patients)),
    )


def _replace_paragraph(rng, view, builder, step) -> None:
    chapter = rng.choice(view.children(view.root))
    section = rng.choice([
        kid for kid in view.children(chapter)
        if view.label(kid) == "section" and view.children(kid)
    ])
    paragraphs = view.children(section)
    builder.delete(rng.choice(paragraphs))
    builder.insert(
        section, parse_term(f"para#u{step}"), index=rng.randint(0, len(paragraphs) - 1)
    )


def _held(script: EditScript) -> int:
    """The nodes a script holds explicitly."""
    labels = getattr(script, "_labels", None)
    return len(labels) if labels is not None else script.size


def _unshared(tree: Tree, bases) -> int:
    """Nodes of *tree* whose label or children entry is not the very
    object one of *bases* holds: the entries a projection wrote."""
    counts = []
    for base in bases:
        labels, children = base._labels, base._children
        counts.append(sum(
            1 for node, label in tree._labels.items()
            if label is not labels.get(node)
            or tree._children.get(node) is not children.get(node)
        ))
    return min(counts)


def _install(monkeypatch, server, measured: Counter) -> None:
    parse = EditScript.__dict__["parse"].__func__

    def counted_parse(cls, text, *args, **kwargs):
        script = parse(cls, text, *args, **kwargs)
        held = _held(script)
        measured["parse"] += held
        measured["parse_max"] = max(measured["parse_max"], held)
        return script

    build = PropagationGraphs.build_script

    def counted_build(self, *args, **kwargs):
        script = build(self, *args, **kwargs)
        measured["build_script"] += _held(script)
        return script

    project = EditScript._project

    def counted_project(self, drop):
        tree = project(self, drop)
        durable = server._sessions.get("d")  # None while the first request opens it
        if durable is not None:
            session = durable.session
            bases = [base for base in (session._view, session._source) if base is not None]
            measured["projections"] += _unshared(tree, bases)
        return tree

    render = Tree._render

    def counted_render(self, *args, **kwargs):
        measured["render"] += len(self._labels)
        return render(self, *args, **kwargs)

    expand = EditScript.tree.fget

    def counted_tree(self):
        if getattr(self, "_base", None) is not None and self._tree is None:
            measured["expanded"] += 1
        return expand(self)

    build_graph = _PROPAGATE.build_propagation_graph

    def counted_build_graph(*args, **kwargs):
        measured["graphs"] += 1
        return build_graph(*args, **kwargs)

    optimal = OptimalPropagationGraph.__init__

    def counted_optimal(self, *args, **kwargs):
        measured["optimal_graphs"] += 1
        optimal(self, *args, **kwargs)

    edge = PEdge.__init__

    def counted_edge(self, *args, **kwargs):
        measured["edges"] += 1
        edge(self, *args, **kwargs)

    step = NFA.step

    def counted_step(self, *args, **kwargs):
        measured["steps"] += 1
        return step(self, *args, **kwargs)

    sweep = CostSweep.__init__

    def counted_sweep(self, *args, **kwargs):
        sweep(self, *args, **kwargs)
        measured["cells"] += self.cells

    walk = CostSweep.walk

    def counted_walk(self, *args, **kwargs):
        path = walk(self, *args, **kwargs)
        measured["walk"] += len(path)
        return path

    matches = _SCRIPT._matches

    def counted_matches(*args, **kwargs):
        measured["phantom"] += 1
        return matches(*args, **kwargs)

    monkeypatch.setattr(NFA, "step", counted_step)
    monkeypatch.setattr(CostSweep, "__init__", counted_sweep)
    monkeypatch.setattr(CostSweep, "walk", counted_walk)
    monkeypatch.setattr(_SCRIPT, "_matches", counted_matches)
    monkeypatch.setattr(_PROPAGATE, "build_propagation_graph", counted_build_graph)
    monkeypatch.setattr(OptimalPropagationGraph, "__init__", counted_optimal)
    monkeypatch.setattr(PEdge, "__init__", counted_edge)
    monkeypatch.setattr(EditScript, "parse", classmethod(counted_parse))
    monkeypatch.setattr(PropagationGraphs, "build_script", counted_build)
    monkeypatch.setattr(EditScript, "_project", counted_project)
    monkeypatch.setattr(Tree, "_render", counted_render)
    monkeypatch.setattr(EditScript, "tree", property(counted_tree))


def _serve(tmp_path, monkeypatch, workload, terms) -> "tuple[list[Counter], Counter]":
    """Serve *terms* unsharded; the per-request measures after the first
    (``wal`` the bytes each appended to the log), and the measures of
    reopening the store after the stream."""
    store = DocumentStore.init(tmp_path / "store", fsync="off")
    store.put("d", workload.source, workload.dtd, workload.annotation)
    store.close()
    wal = tmp_path / "store" / "docs" / "d" / "wal.log"
    server = ReproServer(store_root=tmp_path / "store", fsync="off")
    measured: Counter = Counter()
    _install(monkeypatch, server, measured)

    def client_work(host, port):
        per_request = []
        with ServeClient(host, port) as client:
            for term in terms:
                measured.clear()
                size = wal.stat().st_size
                assert client.propagate("d", term)["cost"] > 0
                per_request.append(Counter(measured, wal=wal.stat().st_size - size))
        return per_request

    per_request = run_with_server(server, client_work)[1:]
    measured.clear()
    with DocumentStore(tmp_path / "store", fsync="off") as store:
        reopened = store.open_session("d")
        assert reopened.recovered.replayed == len(terms)
        reopened.close()
    return per_request, Counter(measured)


@pytest.mark.parametrize(
    "make, edit",
    [
        (lambda size: hospital(size), _discharge_admit),
        (lambda size: huge_document(size), _replace_paragraph),
    ],
    ids=["hospital", "huge_document"],
)
def test_one_edit_streams_cost_the_edit(tmp_path, monkeypatch, make, edit):
    sizes = (60, 960) if edit is _discharge_admit else (2000, 8000)
    for size in sizes:
        workload = make(size)
        terms = _stream(workload, edit, REQUESTS, seed=size)
        served, reopened = _serve(tmp_path / str(size), monkeypatch, workload, terms)
        for measures in served:
            assert measures["expanded"] == 0, (size, measures)
            assert measures["graphs"] == measures["optimal_graphs"] == 0, (size, measures)
            for name in (
                "parse", "projections", "build_script", "render", "edges",
                "steps", "cells", "walk", "phantom",
            ):
                assert measures[name] <= BOUND, (size, name, measures)
            assert 0 < measures["wal"] <= WAL_BOUND, (size, measures)
        # the replay: one parse per record, each at the record's region
        assert reopened["expanded"] == 0, (size, reopened)
        assert 0 < reopened["parse_max"] <= BOUND, (size, reopened)
