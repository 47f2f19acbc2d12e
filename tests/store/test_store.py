"""DocumentStore and DurableSession: layout, put, serving, compaction,
snapshots, stats."""

import json
import random

import pytest

from repro import ViewEngine
from repro.errors import (
    DocumentExistsError,
    SnapshotCorruptError,
    StoreError,
    UnknownDocumentError,
)
from repro.generators.updates import random_view_update
from repro.registry import EngineRegistry, schema_fingerprint
from repro.store import DocumentStore, read_snapshot, scan_wal, write_snapshot
from repro.store.snapshot import list_snapshots, snapshot_path
from repro.views import Annotation
from repro.xmltree import parse_term


class TestStoreLayout:
    def test_init_creates_marker(self, tmp_path):
        store = DocumentStore.init(tmp_path / "s")
        assert (tmp_path / "s" / "store.json").is_file()
        assert store.documents() == []

    def test_opening_a_non_store_fails(self, tmp_path):
        with pytest.raises(StoreError, match="not a document store"):
            DocumentStore(tmp_path)

    def test_reopening_an_existing_store(self, tmp_path):
        DocumentStore.init(tmp_path / "s")
        store = DocumentStore(tmp_path / "s")
        assert store.documents() == []

    def test_future_format_is_refused(self, tmp_path):
        DocumentStore.init(tmp_path / "s")
        (tmp_path / "s" / "store.json").write_text('{"format": 99}')
        with pytest.raises(StoreError, match="format"):
            DocumentStore(tmp_path / "s")

    def test_bad_fsync_policy_refused(self, tmp_path):
        with pytest.raises(StoreError, match="fsync policy"):
            DocumentStore.init(tmp_path / "s", fsync="mostly")


class TestPut:
    def test_put_creates_genesis_state(self, stored_doc):
        store, doc_id, workload = stored_doc
        assert store.exists(doc_id)
        assert store.documents() == [doc_id]
        meta = store.meta(doc_id)
        assert meta["schema"] == schema_fingerprint(
            workload.dtd, workload.annotation
        )
        directory = store.root / "docs" / doc_id
        assert scan_wal(directory / "wal.log").last_seq == 0
        assert [seq for seq, _ in list_snapshots(directory / "snapshots")] == [0]

    def test_schema_files_parse_back(self, stored_doc):
        store, doc_id, workload = stored_doc
        dtd, annotation = store.schema(doc_id)
        assert schema_fingerprint(dtd, annotation) == schema_fingerprint(
            workload.dtd, workload.annotation
        )

    def test_duplicate_put_refused(self, stored_doc):
        store, doc_id, workload = stored_doc
        with pytest.raises(DocumentExistsError):
            store.put(doc_id, workload.source, workload.dtd, workload.annotation)

    def test_overwrite_discards_history(self, stored_doc):
        store, doc_id, workload = stored_doc
        with store.open_session(doc_id) as session:
            session.propagate(workload.update)
        store.put(
            doc_id,
            workload.source,
            workload.dtd,
            workload.annotation,
            overwrite=True,
        )
        recovered = store.recover(doc_id)
        assert recovered.last_seq == 0
        assert recovered.tree == workload.source

    def test_invalid_source_refused(self, store, workload):
        bad = parse_term("r#x(a#y)")  # not in L(D)
        with pytest.raises(Exception):
            store.put("bad", bad, workload.dtd, workload.annotation)
        assert not store.exists("bad")

    @pytest.mark.parametrize("doc_id", ["", "../evil", "a b", ".hidden", "x" * 200])
    def test_unsafe_doc_ids_refused(self, store, workload, doc_id):
        with pytest.raises(StoreError, match="filesystem-safe"):
            store.put(doc_id, workload.source, workload.dtd, workload.annotation)

    def test_unknown_document_errors(self, store):
        with pytest.raises(UnknownDocumentError):
            store.recover("ghost")
        with pytest.raises(UnknownDocumentError):
            store.open_session("ghost")
        with pytest.raises(UnknownDocumentError):
            store.stats("ghost")


class TestDurableSession:
    def test_propagation_matches_plain_session(self, stored_doc):
        store, doc_id, workload = stored_doc
        engine = ViewEngine(workload.dtd, workload.annotation)
        plain = engine.session(workload.source)
        expected = plain.propagate(workload.update)
        with store.open_session(doc_id) as session:
            script = session.propagate(workload.update)
        assert script.to_term() == expected.to_term()
        assert store.load(doc_id) == plain.source

    def test_wal_written_before_advance(self, stored_doc):
        store, doc_id, workload = stored_doc
        with store.open_session(doc_id) as session:
            before = session.source
            session.propagate(workload.update)
            # the record is already durable *and* the session advanced
            assert session.last_seq == 1
            assert session.source != before
        recovered = store.recover(doc_id)
        assert recovered.replayed == 1
        assert recovered.tree == store.load(doc_id)

    def test_preview_does_not_journal(self, stored_doc):
        store, doc_id, workload = stored_doc
        with store.open_session(doc_id) as session:
            session.propagate(workload.update, advance=False)
            assert session.last_seq == 0
            assert session.source == workload.source
        assert store.recover(doc_id).last_seq == 0

    def test_failed_journal_leaves_session_unmoved(self, stored_doc):
        store, doc_id, workload = stored_doc
        session = store.open_session(doc_id)
        try:
            session._writer.close()  # simulate a dead log device
            with pytest.raises(ValueError):
                session.propagate(workload.update)
            assert session.source == workload.source  # never advanced
            assert session.session.stats.updates_served == 0
        finally:
            pass
        assert store.recover(doc_id).last_seq == 0

    def test_concurrent_append_during_open_refused(self, stored_doc):
        """Opening a session re-checks the log against what recovery saw:
        a record appended in between means another writer is live."""
        store, doc_id, workload = stored_doc
        from repro.store.store import DurableSession

        first = store.open_session(doc_id)
        try:
            recovered = store.recover(doc_id)  # sees the log at seq 0
            first.propagate(workload.update)  # ...and then it moves
            engine = first.engine
        finally:
            first.close()
        with pytest.raises(StoreError, match="another session"):
            DurableSession(
                store, engine, recovered, fsync="off", batch_interval=8
            )

    def test_fsync_policy_propagates_from_store(self, tmp_path, workload):
        store = DocumentStore.init(tmp_path / "s", fsync="batch", batch_interval=2)
        store.put("d", workload.source, workload.dtd, workload.annotation)
        with store.open_session("d") as session:
            assert session._writer.policy == "batch"
        with store.open_session("d", fsync="off") as session:
            assert session._writer.policy == "off"

    def test_stats_payload_is_json_serializable(self, stored_doc):
        store, doc_id, workload = stored_doc
        with store.open_session(doc_id) as session:
            session.propagate(workload.update)
            payload = session.stats
        json.dumps(payload)
        assert payload["last_seq"] == 1
        assert payload["session"]["updates_served"] == 1
        json.dumps(store.stats())
        json.dumps(store.stats(doc_id))

    def test_unjournalable_identifiers_refused_before_acknowledge(
        self, tmp_path, workload
    ):
        """XML allows node ids term notation cannot carry (spaces,
        commas); a propagation over such a document must fail at journal
        time — before acknowledgement — not at recovery time."""
        from repro.xmltree import tree_from_xml

        weird = tree_from_xml(
            '<r id="n 0"><a id="a,b"/><b id="n2"/>'
            '<d id="n3"><a id="n7"/><c id="n8"/></d>'
            '<a id="n4"/><c id="n5"/>'
            '<d id="n6"><b id="n9"/><c id="n10"/></d></r>'
        )
        store = DocumentStore.init(tmp_path / "s")
        store.put("w", weird, workload.dtd, workload.annotation)
        from repro.editing import UpdateBuilder

        with store.open_session("w") as session:
            builder = UpdateBuilder(
                session.view, forbidden_ids=session.source.nodes()
            )
            builder.delete("a,b")
            builder.delete("n3")
            with pytest.raises(StoreError, match="round trip|term-notation"):
                session.propagate(builder.script())
            # nothing acknowledged, nothing applied, nothing logged
            assert session.source == weird
            assert session.last_seq == 0
        assert store.recover("w").tree == weird

    def test_registry_reuse_across_opens(self, tmp_path, workload):
        registry = EngineRegistry(capacity=8)
        store = DocumentStore.init(tmp_path / "s", registry=registry)
        store.put("a", workload.source, workload.dtd, workload.annotation)
        store.put("b", workload.source, workload.dtd, workload.annotation)
        store.open_session("a").close()
        store.open_session("b").close()
        stats = registry.stats
        assert stats.misses == 1  # one schema, one compile
        assert stats.hits == 1


class TestReplayExtractsOneView:
    def test_open_session_extracts_at_most_one_view(self, stored_doc, monkeypatch):
        """Replaying N records moves the session N times; the view is
        extracted once, when it is first needed, not once per record."""
        store, doc_id, workload = stored_doc
        engine = ViewEngine(workload.dtd, workload.annotation)
        rng = random.Random(5)
        with store.open_session(doc_id, engine=engine) as session:
            for _ in range(20):
                session.propagate(
                    random_view_update(
                        rng, workload.dtd, workload.annotation, session.source,
                        n_ops=2,
                    )
                )
            expected = session.view
        extract = Annotation.view
        calls = []

        def spy(annotation, tree):
            calls.append(tree)
            return extract(annotation, tree)

        monkeypatch.setattr(Annotation, "view", spy)
        with store.open_session(doc_id, engine=engine) as session:
            assert session.recovered.replayed == 20
            assert len(calls) <= 1
            assert session.view == expected
            assert session.view is session.view
        assert len(calls) == 1


class TestCompaction:
    def test_compact_trims_log_and_keeps_state(self, stored_doc):
        store, doc_id, workload = stored_doc
        with store.open_session(doc_id) as session:
            session.propagate(workload.update)
            document = session.source
            seq = session.compact()
            assert seq == 1
        recovered = store.recover(doc_id)
        assert recovered.snapshot_seq == 1
        assert recovered.replayed == 0
        assert recovered.tree == document

    def test_session_keeps_serving_after_compact(self, stored_doc, workload):
        store, doc_id, _ = stored_doc
        from repro.generators.updates import random_view_update
        import random

        rng = random.Random(3)
        with store.open_session(doc_id) as session:
            session.propagate(workload.update)
            session.compact()
            update = random_view_update(
                rng, workload.dtd, workload.annotation, session.source, n_ops=2
            )
            session.propagate(update)
            assert session.last_seq == 2
            final = session.source
        recovered = store.recover(doc_id)
        assert recovered.snapshot_seq == 1 and recovered.replayed == 1
        assert recovered.tree == final

    def test_store_level_compact_is_engine_free(self, stored_doc):
        store, doc_id, workload = stored_doc
        with store.open_session(doc_id) as session:
            session.propagate(workload.update)
        assert store.compact(doc_id) == 1
        # default keep_snapshots=2 retains genesis as a fallback recovery
        # point, so the log keeps covering it; recovery itself starts
        # from the new snapshot and replays nothing
        stats = store.stats(doc_id)
        assert stats["snapshots"] == [0, 1]
        assert stats["wal_base_seq"] == 0 and stats["wal_records"] == 1
        assert store.recover(doc_id).replayed == 0

    def test_compact_with_single_retained_snapshot_empties_log(
        self, tmp_path, workload
    ):
        store = DocumentStore.init(tmp_path / "s", keep_snapshots=1)
        store.put("d", workload.source, workload.dtd, workload.annotation)
        with store.open_session("d") as session:
            session.propagate(workload.update)
        assert store.compact("d") == 1
        stats = store.stats("d")
        assert stats["snapshots"] == [1]
        assert stats["wal_base_seq"] == 1 and stats["wal_records"] == 0

    def test_old_snapshots_pruned(self, tmp_path, workload):
        store = DocumentStore.init(tmp_path / "s", keep_snapshots=2)
        store.put("d", workload.source, workload.dtd, workload.annotation)
        from repro.generators.updates import random_view_update
        import random

        rng = random.Random(11)
        with store.open_session("d") as session:
            for _ in range(3):
                update = random_view_update(
                    rng, workload.dtd, workload.annotation, session.source, n_ops=1
                )
                session.propagate(update)
                session.compact()
        seqs = store.stats("d")["snapshots"]
        assert len(seqs) <= 2
        assert seqs[-1] == 3
        # the log is trimmed only past checkpoints no longer retained
        assert store.stats("d")["wal_base_seq"] == seqs[0]


class TestSnapshots:
    def test_snapshot_round_trip(self, tmp_path, workload):
        path_dir = tmp_path / "snaps"
        write_snapshot(path_dir, workload.source, seq=7, schema_hash="abc")
        snapshot = read_snapshot(snapshot_path(path_dir, 7), schema_hash="abc")
        assert snapshot.seq == 7
        assert snapshot.tree == workload.source
        assert snapshot.tree.to_term() == workload.source.to_term()

    def test_schema_mismatch_detected(self, tmp_path, workload):
        path_dir = tmp_path / "snaps"
        write_snapshot(path_dir, workload.source, seq=0, schema_hash="abc")
        with pytest.raises(SnapshotCorruptError, match="schema"):
            read_snapshot(snapshot_path(path_dir, 0), schema_hash="other")

    def test_body_corruption_detected(self, tmp_path, workload):
        path_dir = tmp_path / "snaps"
        target = write_snapshot(path_dir, workload.source, seq=0, schema_hash="abc")
        data = bytearray(target.read_bytes())
        data[-10] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptError, match="checksum"):
            read_snapshot(target)

    def test_header_corruption_detected(self, tmp_path, workload):
        path_dir = tmp_path / "snaps"
        target = write_snapshot(path_dir, workload.source, seq=0, schema_hash="abc")
        data = target.read_bytes()
        target.write_bytes(b"garbage" + data)
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(target)
