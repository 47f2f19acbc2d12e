"""The engine's memos: the inversion memo shared across requests by
fragment shape, and the chooser keys it replays paths under.

A memo must be invisible in results (byte-identical scripts — the
property suites pin that against random workloads) and visible only in
time and counters. These tests pin its mechanics: one inversion graph
per node shape under any identifiers, explicit clearing, and chooser
keys that tell apart every behaviour, a subclass's included. They also
pin what a repeated request gets: no whole-request cache answers it, so
every repeat is validated, counted and built afresh, equal to the first.
"""

import pytest

from repro.core import (
    CheapestPathChooser,
    DEL_OVER_NOP_OVER_INS,
    PreferenceChooser,
)
from repro.core.choosers import cache_key_of
from repro.editing import EditScript
from repro.engine import ViewEngine
from repro.errors import InvalidViewUpdateError
from repro.generators.workloads import positional, running_example
from repro.inversion import InversionGraph
from repro.paperdata.figures import a0, d0
from repro.xmltree import NodeIds, parse_term


@pytest.fixture
def schema():
    return d0(), a0()


@pytest.fixture
def engine(schema):
    return ViewEngine(*schema)


@pytest.fixture
def source():
    return parse_term(
        "r#n0(a#n1, b#n2, d#n3(a#n7, c#n8), a#n4, c#n5, d#n6(b#n9, c#n10))"
    )


@pytest.fixture
def update():
    return EditScript.parse(
        "Nop.r#n0(Nop.a#n1, Nop.d#n3(Nop.c#n8), Nop.a#n4, "
        "Ins.d#u0(Ins.c#u1), Ins.a#u2, Nop.d#n6(Nop.c#n10))"
    )


@pytest.fixture
def built(monkeypatch):
    """The nodes each inversion graph was built for, in order."""
    nodes = []
    init = InversionGraph.__init__

    def counted(graph, node, *args, **kwargs):
        nodes.append(node)
        init(graph, node, *args, **kwargs)

    monkeypatch.setattr(InversionGraph, "__init__", counted)
    return nodes


class TestInversionMemo:
    FIRST = (
        "Nop.r#n0(Nop.a#n1, Nop.d#n3(Nop.c#n8), Nop.a#n4, "
        "Ins.d#u0(Ins.c#u1), Ins.a#u2, Nop.d#n6(Nop.c#n10))"
    )
    # the same fragments under other identifiers, in another request
    SECOND = (
        "Nop.r#n0(Del.a#n1, Del.d#n3(Del.c#n8), Nop.a#n4, "
        "Ins.d#v0(Ins.c#v1), Ins.a#v2, Nop.d#n6(Nop.c#n10))"
    )

    def test_same_shape_under_new_identifiers_builds_graphs_once(
        self, engine, schema, source, built
    ):
        first = engine.propagate(source, EditScript.parse(self.FIRST))
        # one graph per shape: c under d, d(c), and a under r
        assert sorted(built) == ["u0", "u1", "u2"]
        second = engine.propagate(source, EditScript.parse(self.SECOND))
        assert len(built) == 3
        assert len(engine.inversion_memo) == 3
        for script, term in ((first, self.FIRST), (second, self.SECOND)):
            cold = ViewEngine(*schema).propagate(source, EditScript.parse(term))
            assert script.to_term() == cold.to_term()

    def test_invalidate_memo_empties_it(self, engine, source, built):
        engine.propagate(source, EditScript.parse(self.FIRST))
        engine.inversion_memo.clear()
        assert len(engine.inversion_memo) == 0
        engine.propagate(source, EditScript.parse(self.SECOND))
        assert len(built) == 6 and len(engine.inversion_memo) == 3


class InsertsFirst(PreferenceChooser):
    """The default chooser's ``cache_key()``, the reverse ranking."""

    def preference(self, edge):
        rank, symbol, target = super().preference(edge)
        return (-rank, symbol, target)


class TestChooserKeys:
    def test_keys_are_stable_and_tell_choosers_apart(self):
        choosers = (
            PreferenceChooser(),
            PreferenceChooser(DEL_OVER_NOP_OVER_INS),
            CheapestPathChooser(),
            CheapestPathChooser(DEL_OVER_NOP_OVER_INS),
        )
        keys = [chooser.cache_key() for chooser in choosers]
        # the inversion memo keys paths by them: hashable, one per behaviour
        assert len(set(keys)) == len(choosers)
        # and equal for a chooser rebuilt with the same preference
        assert PreferenceChooser().cache_key() == keys[0]
        assert (
            CheapestPathChooser(DEL_OVER_NOP_OVER_INS).cache_key() == keys[3]
        )

    def test_cache_key_of_pairs_the_class_with_the_key(self):
        base, sub = PreferenceChooser(), InsertsFirst()
        assert sub.cache_key() == base.cache_key()
        assert cache_key_of(base) == (PreferenceChooser, base.cache_key())
        assert cache_key_of(sub) == (InsertsFirst, base.cache_key())
        assert cache_key_of(PreferenceChooser()) == cache_key_of(base)

    def test_a_chooser_without_a_callable_key_has_none(self):
        class Keyless:
            def choose(self, edges):
                return edges[0]

        class KeyField(Keyless):
            cache_key = ("greedy",)

        assert cache_key_of(Keyless()) is None
        assert cache_key_of(KeyField()) is None

    @pytest.mark.parametrize(
        "workload", [running_example(2), positional(4)], ids=["running_example", "positional"]
    )
    def test_a_subclass_with_its_own_preference_shares_nothing(self, workload):
        source, update = workload.source, workload.update
        engine = ViewEngine(workload.dtd, workload.annotation)
        default = engine.propagate(source, update)
        served = engine.propagate(source, update, chooser=InsertsFirst())
        cold = ViewEngine(workload.dtd, workload.annotation).propagate(
            source, update, chooser=InsertsFirst()
        )
        assert cold.to_term() != default.to_term()  # the case tells them apart
        assert served.to_term() == cold.to_term()

    @pytest.mark.parametrize(
        "workload", [running_example(2), positional(4)], ids=["running_example", "positional"]
    )
    def test_graphs_replay_a_subclass_apart_from_its_base(self, workload):
        """The inversion memo's path key is :func:`cache_key_of` alone."""
        source, update = workload.source, workload.update
        graphs = ViewEngine(workload.dtd, workload.annotation).propagation_graphs(
            source, update
        )
        default = graphs.build_script(PreferenceChooser())
        replayed = graphs.build_script(InsertsFirst())
        cold = (
            ViewEngine(workload.dtd, workload.annotation)
            .propagation_graphs(source, update)
            .build_script(InsertsFirst())
        )
        assert cold.to_term() != default.to_term()
        assert replayed.to_term() == cold.to_term()


class TestRepeatedRequests:
    """A repeat runs the whole pipeline again; only the inversion memo's
    shapes carry over from one request to the next."""

    def test_a_repeat_request_builds_an_equal_script(
        self, engine, source, update, built
    ):
        first = engine.propagate(source, update)
        second = engine.propagate(source, update)
        assert second is not first
        assert second.to_term() == first.to_term()
        assert (engine.stats.validations, engine.stats.propagations) == (2, 2)
        # the repeat replays the three shapes the first request inverted
        assert sorted(built) == ["u0", "u1", "u2"]

    def test_equal_content_in_new_objects_gets_an_equal_script(
        self, engine, source, update
    ):
        first = engine.propagate(source, update)
        clone = engine.propagate(
            parse_term(source.to_term()), EditScript.parse(update.to_term())
        )
        assert (clone.to_term(), clone.cost) == (first.to_term(), first.cost)

    def test_interleaved_choosers_each_keep_their_own_script(self):
        workload = running_example(2)
        source, update = workload.source, workload.update
        choosers = {"default": None, "inserts first": InsertsFirst()}
        cold = {
            name: ViewEngine(workload.dtd, workload.annotation)
            .propagate(source, update, chooser=chooser)
            .to_term()
            for name, chooser in choosers.items()
        }
        assert cold["default"] != cold["inserts first"]
        engine = ViewEngine(workload.dtd, workload.annotation)
        for name in ("default", "inserts first", "inserts first", "default"):
            served = engine.propagate(source, update, chooser=choosers[name])
            assert served.to_term() == cold[name]

    def test_an_invalid_update_fails_on_every_repeat(self, engine, source, update):
        engine.propagate(source, update)
        engine.propagate(source, update)
        bad = EditScript.parse("Nop.r#n0(Del.a#n1)")
        for _ in range(2):
            with pytest.raises(InvalidViewUpdateError):
                engine.propagate(source, bad)
        assert engine.stats.validations == 4

    def test_a_caller_fresh_generator_names_the_inserted_nodes(
        self, engine, source, update
    ):
        default = engine.propagate(source, update)
        named = engine.propagate(source, update, fresh=NodeIds("f", 100).fresh)
        assert engine.verify(source, update, named)
        # the same script but for the hidden nodes' identifiers
        assert named.tree.shape() == default.tree.shape()
        invented = (
            set(named.output_tree.nodes())
            - set(source.nodes())
            - set(update.output_tree.nodes())
        )
        assert invented == {"f100", "f101"}

    def test_a_keyless_chooser_is_served_like_its_keyed_twin(
        self, engine, source, update
    ):
        class Keyless(CheapestPathChooser):
            cache_key = None

        twin = engine.propagate(source, update, chooser=CheapestPathChooser())
        keyless = engine.propagate(source, update, chooser=Keyless())
        assert keyless.to_term() == twin.to_term()
        assert engine.stats.propagations == 2

    def test_a_cleared_inversion_memo_serves_the_same_script(
        self, engine, source, update
    ):
        first = engine.propagate(source, update)
        engine.inversion_memo.clear()
        assert engine.propagate(source, update).to_term() == first.to_term()
        assert len(engine.inversion_memo) == 3

    def test_stats_payload_carries_the_pipeline_counters(
        self, engine, source, update
    ):
        engine.propagate(source, update)
        engine.propagate(source, update)
        assert engine.stats.as_dict() == {
            "views": 0,
            "validations": 2,
            "inversions": 0,
            "propagations": 2,
        }
