"""The shard router: classification, fast/slow paths, splice identity.

Every assertion of equality with unsharded serving is on ``to_term()``
— byte-identical scripts, fresh identifiers included, not just
isomorphic outputs.
"""

import pytest

from repro.editing import EditScript, UpdateBuilder
from repro.engine import ViewEngine
from repro.errors import ShardingError
from repro.sharding import LocalShardPool, ShardRouter, partition
from repro.xmltree import Tree, parse_term


def _router(engine, workload, depth):
    plan = partition(workload.source, workload.annotation, depth)
    pool = LocalShardPool(engine)
    for sid in plan.shard_roots:
        pool.adopt(sid, plan.shards[sid])
    router = ShardRouter(engine, plan, pool)
    for sid in plan.shard_roots:
        router.note_suffix(sid, pool.suffix_max(sid))
    return router


def _builder(workload):
    view = workload.annotation.view(workload.source)
    return UpdateBuilder(view, forbidden_ids=workload.source.nodes())


class TestFastPath:
    def test_interior_edit_touches_one_shard(self, deep_workload, engine_for):
        engine = engine_for(deep_workload)
        router = _router(engine, deep_workload, 2)
        edit = _builder(deep_workload)
        edit.delete("e5_0")  # a symptom inside patient p5
        update = edit.script()
        baseline = engine.session(deep_workload.source).propagate(update)
        result = router.propagate(update)
        assert not result.boundary
        assert result.touched == ("p5",)
        assert result.script.to_term() == baseline.to_term()
        assert result.cost == baseline.cost

    def test_multi_shard_edit_renumbers_fresh_ids_like_unsharded(
        self, workload, engine_for
    ):
        # inserting c under two different d-shards forces each shard to
        # invent a hidden (a|b) sibling: fresh ids in BOTH shards, so the
        # document-order offset assignment is what keeps the splice
        # byte-identical to the unsharded numbering
        engine = engine_for(workload)
        router = _router(engine, workload, 1)
        edit = _builder(workload)
        edit.insert("d1", parse_term("c#u0"), index=1)
        edit.insert("d3", parse_term("c#u1"), index=0)
        update = edit.script()
        baseline = engine.session(workload.source).propagate(update)
        result = router.propagate(update)
        assert not result.boundary
        assert result.touched == ("d1", "d3")
        assert result.fresh_used >= 2
        assert result.script.to_term() == baseline.to_term()

    def test_dirty_hints_give_the_same_bytes(self, deep_workload, engine_for):
        engine = engine_for(deep_workload)
        hinted = _router(engine, deep_workload, 2)
        scanned = _router(engine, deep_workload, 2)
        edit = _builder(deep_workload)
        edit.delete("e9_0")
        edit.insert("p1", parse_term("symptom#u0"), index=2)
        update = edit.script()
        with_hint = hinted.propagate(update, dirty=["e9_0", "u0"])
        without = scanned.propagate(update)
        assert with_hint.script.to_term() == without.script.to_term()
        assert with_hint.touched == without.touched

    def test_splice_false_skips_the_script_but_advances_the_shards(
        self, deep_workload, engine_for
    ):
        engine = engine_for(deep_workload)
        router = _router(engine, deep_workload, 2)
        edit = _builder(deep_workload)
        edit.delete("e5_1")
        update = edit.script()
        session = engine.session(deep_workload.source)
        baseline = session.propagate(update)
        result = router.propagate(update, splice=False)
        assert result.script is None
        assert result.cost == baseline.cost
        assert router.assembled_source().to_term() == session.source.to_term()

    def test_identity_update_dispatches_nothing(self, deep_workload, engine_for):
        engine = engine_for(deep_workload)
        router = _router(engine, deep_workload, 2)
        update = _builder(deep_workload).script()  # all-Nop
        result = router.propagate(update)
        assert result.touched == () and result.cost == 0
        assert result.script.is_identity()
        assert router.stats_payload()["edits"]["identity"] == 1

    def test_untouched_shards_appear_as_nop_in_the_splice(
        self, deep_workload, engine_for
    ):
        engine = engine_for(deep_workload)
        router = _router(engine, deep_workload, 2)
        edit = _builder(deep_workload)
        edit.delete("e0_0")
        result = router.propagate(edit.script())
        subscript = result.script.subscript("p7")  # untouched patient
        assert subscript.is_identity()


class TestBoundaryPath:
    def test_shard_root_delete_takes_the_slow_path(self, deep_workload, engine_for):
        engine = engine_for(deep_workload)
        router = _router(engine, deep_workload, 2)
        edit = _builder(deep_workload)
        edit.delete("p3")  # a whole patient: shard-root delete
        update = edit.script()
        baseline = engine.session(deep_workload.source).propagate(update)
        result = router.propagate(update)
        assert result.boundary
        assert result.script.to_term() == baseline.to_term()
        assert "p3" not in router.shard_roots

    def test_insert_at_the_boundary_adopts_a_new_shard(
        self, deep_workload, engine_for
    ):
        engine = engine_for(deep_workload)
        router = _router(engine, deep_workload, 2)
        before = set(router.shard_roots)
        edit = _builder(deep_workload)
        edit.insert(
            "w",
            parse_term("patient#u0(name#u1, admission#u2)"),
            index=11,
        )
        update = edit.script()
        baseline = engine.session(deep_workload.source).propagate(update)
        result = router.propagate(update)
        assert result.boundary
        assert result.script.to_term() == baseline.to_term()
        assert set(router.shard_roots) - before == {"u0"}

    def test_spine_edit_above_the_boundary(self, deep_workload, engine_for):
        # a new ward lands at depth 1 — inside the spine — and brings a
        # patient (a brand-new depth-2 shard) along with it
        engine = engine_for(deep_workload)
        router = _router(engine, deep_workload, 2)
        edit = _builder(deep_workload)
        edit.insert(
            "h",
            parse_term("ward#u0(name#u1, patient#u2(name#u3, admission#u4))"),
            index=1,
        )
        update = edit.script()
        baseline = engine.session(deep_workload.source).propagate(update)
        result = router.propagate(update)
        assert result.boundary
        assert result.script.to_term() == baseline.to_term()
        assert "u2" in router.shard_roots and "u1" in router.shard_roots

    def test_fast_path_resumes_after_a_reshard(self, deep_workload, engine_for):
        engine = engine_for(deep_workload)
        router = _router(engine, deep_workload, 2)
        session = engine.session(deep_workload.source)
        first = _builder(deep_workload)
        first.delete("p3")
        update1 = first.script()
        assert (
            router.propagate(update1).script.to_term()
            == session.propagate(update1).to_term()
        )
        # now an interior edit against the post-reshard document
        view = engine.view(session.source)
        second = UpdateBuilder(view, forbidden_ids=session.source.nodes())
        second.delete("e9_1")
        update2 = second.script()
        baseline2 = session.propagate(update2)
        result2 = router.propagate(update2)
        assert not result2.boundary
        assert result2.script.to_term() == baseline2.to_term()

    def test_a_boundary_edit_is_one_engine_propagation(self, deep_workload):
        # an engine of its own, so its counters see only this router
        engine = ViewEngine(deep_workload.dtd, deep_workload.annotation)
        router = _router(engine, deep_workload, 2)
        edit = _builder(deep_workload)
        edit.delete("p3")
        assert router.propagate(edit.script()).boundary
        stats = engine.stats
        assert (stats.validations, stats.propagations) == (1, 1)

    def test_deleting_the_whole_document_is_refused(self, engine_for):
        # the empty tree is not in any view language, so emptying the
        # document is rejected at validation — a sharded document can
        # never become empty through validated serving
        from repro.errors import InvalidViewUpdateError
        from repro.generators.workloads import running_example

        w = running_example(2)
        engine = engine_for(w)
        router = _router(engine, w, 1)
        update = EditScript.parse(
            "Del.r#root(Del.a#a0, Del.d#d0(Del.c#c0), "
            "Del.a#a1, Del.d#d1(Del.c#c1))"
        )
        with pytest.raises(InvalidViewUpdateError):
            router.propagate(update)


class TestRouterGuards:
    def test_empty_update_is_refused(self, workload, engine_for):
        engine = engine_for(workload)
        router = _router(engine, workload, 1)
        with pytest.raises(ShardingError):
            router.propagate(EditScript._trusted(Tree.empty()))

    def test_stats_payload_counts_paths(self, deep_workload, engine_for):
        engine = engine_for(deep_workload)
        router = _router(engine, deep_workload, 2)
        edit = _builder(deep_workload)
        edit.delete("e5_0")
        router.propagate(edit.script())
        current = router.assembled_source()
        boundary = UpdateBuilder(
            engine.view(current), forbidden_ids=current.nodes()
        )
        boundary.delete("p0")
        router.propagate(boundary.script())
        payload = router.stats_payload()
        assert payload["edits"] == {"fast": 1, "boundary": 1, "identity": 0}
        assert payload["shards"] == len(router.shard_roots)
        assert "mode" not in payload


class TestLocalShardPool:
    def test_a_failed_preview_parks_nothing(self, workload, engine_for):
        from repro.core import PreferenceChooser
        from repro.errors import InvalidViewUpdateError, ShardWorkerError

        engine = engine_for(workload)
        plan = partition(workload.source, workload.annotation, 1)
        pool = LocalShardPool(engine)
        for sid in plan.shard_roots:
            pool.adopt(sid, plan.shards[sid])
        grow_d1 = EditScript.parse("Nop.d#d1(Nop.c#c1, Ins.c#u0)")
        not_d3 = EditScript.parse("Nop.d#d1(Nop.c#c1)")
        options = dict(chooser=PreferenceChooser(), optimal=True, validate=True)
        # shards preview one after another; the second refuses ...
        with pytest.raises(InvalidViewUpdateError):
            pool.preview([("d1", grow_d1, 0), ("d3", not_d3, 0)], **options)
        # ... so the first one's preview is not parked for a commit
        with pytest.raises(ShardWorkerError):
            pool.commit({"d1": 0}, want_script=False)
        assert pool.text("d1", view=True) == "Nop.d#d1(Nop.c#c1)"
        # previewed alone it parks, and the commit advances the shard
        ((cost, consumed),) = pool.preview([("d1", grow_d1, 0)], **options).values()
        assert consumed >= 1 and cost > consumed
        pool.commit({"d1": 0}, want_script=False)
        assert pool.text("d1", view=True).count("Nop.c#") == 2
