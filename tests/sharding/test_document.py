"""`ShardedDocument`: the facade — in-memory and durable."""

import random

import pytest

from repro.editing import UpdateBuilder
from repro.errors import ShardingError
from repro.generators.updates import random_view_update
from repro.sharding import SHARDING_FILE, ShardedDocument
from repro.xmltree import parse_term


def _interior_update(workload):
    view = workload.annotation.view(workload.source)
    edit = UpdateBuilder(view, forbidden_ids=workload.source.nodes())
    edit.delete("e5_0")
    edit.insert("p1", parse_term("symptom#u0"), index=2)
    return edit.script()


def _stream(engine, workload, seed, steps=5):
    """A pregenerated stream of sequential random updates (built against
    the evolving view via a scratch session)."""
    rng = random.Random(seed)
    scratch = engine.session(workload.source)
    updates = []
    for _ in range(steps):
        update = random_view_update(
            rng, workload.dtd, workload.annotation, scratch.source, n_ops=2
        )
        updates.append(update)
        scratch.propagate(update)
    return updates


class TestInMemory:
    def test_matches_unsharded_session_on_a_stream(
        self, deep_workload, engine_for
    ):
        engine = engine_for(deep_workload)
        session = engine.session(deep_workload.source)
        with ShardedDocument(engine, deep_workload.source, depth=2) as doc:
            for update in _stream(engine, deep_workload, seed=11):
                assert (
                    doc.propagate(update).to_term()
                    == session.propagate(update).to_term()
                )
            assert doc.source.to_term() == session.source.to_term()
            assert doc.view.to_term() == engine.view(session.source).to_term()

    def test_rejects_invalid_source(self, deep_workload, engine_for):
        engine = engine_for(deep_workload)
        from repro.errors import ReproError

        bad = parse_term("hospital#h(symptom#s)")
        with pytest.raises(ReproError):
            ShardedDocument(engine, bad, depth=1)

    def test_serve_with_dirty_hints_and_no_splice(
        self, deep_workload, engine_for
    ):
        engine = engine_for(deep_workload)
        session = engine.session(deep_workload.source)
        update = _interior_update(deep_workload)
        baseline = session.propagate(update)
        with ShardedDocument(engine, deep_workload.source, depth=2) as doc:
            (result,) = doc.serve([update], dirty_hints=[["e5_0", "u0"]])
            assert result.script is None and not result.boundary
            assert result.cost == baseline.cost
            assert doc.source.to_term() == session.source.to_term()


class TestSerialFanout:
    def test_multi_shard_edits_match_unsharded_without_threads(
        self, workload, engine_for, monkeypatch
    ):
        import multiprocessing.process
        import threading

        def refuse(*args, **kwargs):
            raise AssertionError("a sharded edit started a thread or process")

        engine = engine_for(workload)
        session = engine.session(workload.source)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        with ShardedDocument(engine, workload.source, depth=1) as doc:
            for first, second, fresh in (("d1", "d3", "u0"), ("d0", "d2", "u2")):
                edit = UpdateBuilder(
                    engine.view(doc.source), forbidden_ids=doc.source.nodes()
                )
                edit.insert(first, parse_term(f"c#{fresh}"), index=1)
                edit.insert(second, parse_term(f"c#{fresh}x"), index=0)
                update = edit.script()
                result = doc.propagate(update.to_term())
                assert not result.boundary
                assert result.touched == (first, second)
                assert result.script == session.propagate(update).to_term()
            assert doc.source.to_term() == session.source.to_term()

    @pytest.mark.parametrize("entry", ["constructor", "create", "open", "pool"])
    def test_pool_keywords_are_refused(
        self, entry, workload, engine_for, tmp_path
    ):
        from repro.sharding import LocalShardPool

        engine = engine_for(workload)
        root = tmp_path / "sharded"
        calls = {
            "constructor": lambda **knob: ShardedDocument(
                engine, workload.source, **knob
            ),
            "create": lambda **knob: ShardedDocument.create(
                root, workload.source, workload.dtd, workload.annotation, **knob
            ),
            "open": lambda **knob: ShardedDocument.open(root, **knob),
            "pool": lambda **knob: LocalShardPool(engine, **knob),
        }
        knobs = [{"workers": 2}] + ([] if entry == "pool" else [{"mode": "process"}])
        for knob in knobs:
            with pytest.raises(TypeError):
                calls[entry](**knob)
        assert not root.exists()


class TestDurable:
    def test_create_serve_reopen_round_trip(
        self, deep_workload, engine_for, tmp_path
    ):
        engine = engine_for(deep_workload)
        session = engine.session(deep_workload.source)
        root = tmp_path / "sharded"
        doc = ShardedDocument.create(
            root,
            deep_workload.source,
            deep_workload.dtd,
            deep_workload.annotation,
            depth=2,
        )
        assert doc.durable and (root / SHARDING_FILE).is_file()
        updates = _stream(engine, deep_workload, seed=7, steps=4)
        for update in updates:
            assert (
                doc.propagate(update).to_term()
                == session.propagate(update).to_term()
            )
        expected = doc.source.to_term()
        doc.close()

        reopened = ShardedDocument.open(root)
        try:
            assert reopened.source.to_term() == expected
            assert reopened.source.to_term() == session.source.to_term()
            assert reopened.shard_roots and reopened.depth == 2
            # and it keeps serving: one more interior-or-boundary update
            view = engine.view(reopened.source)
            edit = UpdateBuilder(view, forbidden_ids=reopened.source.nodes())
            target = next(
                n for n in view.nodes() if view.label(n) == "symptom"
            )
            edit.delete(target)
            update = edit.script()
            assert (
                reopened.propagate(update).to_term()
                == session.propagate(update).to_term()
            )
        finally:
            reopened.close()

    def test_boundary_update_rewrites_the_layout(
        self, deep_workload, engine_for, tmp_path
    ):
        import json

        engine = engine_for(deep_workload)
        root = tmp_path / "sharded"
        doc = ShardedDocument.create(
            root,
            deep_workload.source,
            deep_workload.dtd,
            deep_workload.annotation,
            depth=2,
        )
        before = json.loads((root / SHARDING_FILE).read_text())
        view = engine.view(doc.source)
        edit = UpdateBuilder(view, forbidden_ids=doc.source.nodes())
        edit.delete("p3")  # a whole patient: reshard
        doc.propagate(edit.script())
        after = json.loads((root / SHARDING_FILE).read_text())
        assert len(after["shards"]) == len(before["shards"]) - 1
        assert all(entry["id"] != "p3" for entry in after["shards"])
        doc.close()

    def test_open_refuses_a_plain_store(self, tmp_path, workload):
        from repro.store import DocumentStore

        store = DocumentStore.init(tmp_path / "plain")
        store.put("doc", workload.source, workload.dtd, workload.annotation)
        store.close()
        with pytest.raises(ShardingError):
            ShardedDocument.open(tmp_path / "plain")

    def test_stats_payload_reports_per_shard_wal(
        self, deep_workload, tmp_path
    ):
        root = tmp_path / "sharded"
        doc = ShardedDocument.create(
            root,
            deep_workload.source,
            deep_workload.dtd,
            deep_workload.annotation,
            depth=2,
        )
        update = _interior_update(deep_workload)
        doc.propagate(update)
        payload = doc.stats_payload()
        assert payload["durable"] and payload["edits"]["fast"] == 1
        assert set(payload["docs"]) == {str(s) for s in doc.shard_roots}
        doc.close()
