"""Cross-request propagation memoization: hits, bypasses, invalidation.

The memo must be invisible in results (byte-identical scripts — the
property suite pins that against random workloads) and visible only in
time and counters. These tests pin the cache mechanics: keying by exact
request content, chooser keys, LRU eviction, the bypass conditions, and
the inversion memo shared across requests by fragment shape.
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
from repro.xmltree import parse_term


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


class TestMemoHits:
    def test_repeat_request_is_a_hit(self, engine, source, update):
        first = engine.propagate(source, update)
        second = engine.propagate(source, update)
        assert second is first  # the memo returns the cached script object
        stats = engine.stats
        assert (stats.memo_misses, stats.memo_hits) == (1, 1)

    def test_equal_content_different_objects_hit(self, engine, source, update):
        engine.propagate(source, update)
        clone_source = parse_term(source.to_term())
        clone_update = EditScript.parse(update.to_term())
        script = engine.propagate(clone_source, clone_update)
        assert engine.stats.memo_hits == 1
        assert script.to_term() == engine.propagate(source, update).to_term()

    def test_different_chooser_rebuilds_script_not_graphs(
        self, engine, source, update
    ):
        nop_first = engine.propagate(source, update)
        del_first = engine.propagate(
            source, update, chooser=PreferenceChooser(DEL_OVER_NOP_OVER_INS)
        )
        # both count as misses (no cached script for that chooser), but
        # the second shares the entry's graphs
        assert engine.stats.memo_misses == 2
        assert engine.stats.memo_hits == 0
        # each chooser's result equals its own memo-free baseline ...
        assert del_first.to_term() == engine.propagate(
            source,
            update,
            chooser=PreferenceChooser(DEL_OVER_NOP_OVER_INS),
            memo=False,
        ).to_term()
        # ... and each chooser now hits its own cached script
        assert engine.propagate(source, update) is nop_first
        assert (
            engine.propagate(
                source, update, chooser=PreferenceChooser(DEL_OVER_NOP_OVER_INS)
            )
            is del_first
        )

    def test_validation_runs_once_per_pair(self, engine, source, update):
        engine.propagate(source, update)
        engine.propagate(source, update)
        # an *invalid* update still fails on a repeat (never cached)
        bad = EditScript.parse("Nop.r#n0(Del.a#n1)")
        for _ in range(2):
            with pytest.raises(InvalidViewUpdateError):
                engine.propagate(source, bad)


class TestMemoBypass:
    def test_memo_false_bypasses(self, engine, source, update):
        engine.propagate(source, update, memo=False)
        engine.propagate(source, update, memo=False)
        stats = engine.stats
        assert stats.memo_hits == 0 and stats.memo_misses == 0
        assert stats.memo_bypass == 2

    def test_caller_fresh_bypasses(self, engine, source, update):
        from repro.xmltree import NodeIds

        engine.propagate(source, update, fresh=NodeIds("f", 100).fresh)
        assert engine.stats.memo_bypass == 1

    def test_unknown_chooser_bypasses(self, engine, source, update):
        class OddChooser(CheapestPathChooser):
            cache_key = None  # no canonical key

        engine.propagate(source, update, chooser=OddChooser())
        assert engine.stats.memo_bypass == 1

    def test_zero_capacity_disables(self, schema, source, update):
        engine = ViewEngine(*schema, memo_capacity=0)
        engine.propagate(source, update)
        engine.propagate(source, update)
        stats = engine.stats
        assert stats.memo_hits == 0 and stats.memo_bypass == 2


class TestMemoLifecycle:
    def test_lru_eviction_and_refill(self, schema, source, update):
        engine = ViewEngine(*schema, memo_capacity=1)
        other = EditScript.parse(
            "Nop.r#n0(Nop.a#n1, Nop.d#n3(Nop.c#n8), Del.a#n4, Del.d#n6(Del.c#n10))"
        )
        baseline = engine.propagate(source, update, memo=False).to_term()
        engine.propagate(source, update)   # miss, cached
        engine.propagate(source, other)    # miss, evicts the first entry
        assert engine.stats.memo_evictions == 1
        # the evicted request must re-serve correctly (and re-cache)
        again = engine.propagate(source, update)
        assert again.to_term() == baseline
        assert engine.stats.memo_misses == 3

    def test_invalidate_memo(self, engine, source, update):
        engine.propagate(source, update)
        engine.invalidate_memo()
        engine.propagate(source, update)
        stats = engine.stats
        assert stats.memo_hits == 0
        assert stats.memo_misses == 2

    def test_stats_payload_carries_memo_counters(self, engine, source, update):
        engine.propagate(source, update)
        engine.propagate(source, update)
        payload = engine.stats.as_dict()
        assert payload["memo_hits"] == 1
        assert payload["memo_misses"] == 1
        assert "memo_evictions" in payload and "memo_bypass" in payload


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

    @pytest.fixture
    def built(self, monkeypatch):
        """The nodes each inversion graph was built for, in order."""
        nodes = []
        init = InversionGraph.__init__

        def counted(graph, node, *args, **kwargs):
            nodes.append(node)
            init(graph, node, *args, **kwargs)

        monkeypatch.setattr(InversionGraph, "__init__", counted)
        return nodes

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
            cold = ViewEngine(*schema).propagate(source, EditScript.parse(term), memo=False)
            assert script.to_term() == cold.to_term()

    def test_invalidate_memo_empties_it(self, engine, source, built):
        engine.propagate(source, EditScript.parse(self.FIRST))
        engine.invalidate_memo()
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
        # the memo keys entries by them: hashable, one per behaviour
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
            source, update, chooser=InsertsFirst(), memo=False
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
