"""Group-commit WAL batching: coalesced fsyncs, unchanged durability.

Concurrent ``batch``-policy sessions sharing a store coordinator must
see their appends made durable by shared per-window flush passes — and
everything recovered afterwards must be byte-identical to plain
serving. Marked ``store`` like the rest of the durability suite.
"""

import threading
import time

import pytest

from repro.editing import EditScript
from repro.engine import ViewEngine
from repro.errors import StoreError
from repro.paperdata.figures import a0, d0
from repro.store import DocumentStore, GroupCommitCoordinator, WalWriter
from repro.store.wal import create_wal, scan_wal
from repro.xmltree import parse_term

pytestmark = pytest.mark.store


@pytest.fixture
def schema():
    return d0(), a0()


@pytest.fixture
def source():
    return parse_term(
        "r#n0(a#n1, b#n2, d#n3(a#n7, c#n8), a#n4, c#n5, d#n6(b#n9, c#n10))"
    )


UPDATES = [
    "Nop.r#n0(Nop.a#n1, Nop.d#n3(Nop.c#n8), Nop.a#n4, "
    "Ins.d#u0(Ins.c#u1), Ins.a#u2, Nop.d#n6(Nop.c#n10))",
]


class TestCoordinator:
    def test_appends_coalesce_into_few_flushes(self, tmp_path):
        coordinator = GroupCommitCoordinator(window=0.02)
        writers = []
        for name in ("one", "two"):
            path = tmp_path / f"{name}.log"
            create_wal(path)
            writers.append(
                WalWriter(path, policy="batch", group_commit=coordinator)
            )
        for i in range(10):
            for writer in writers:
                writer.append(f"record-{i}")
        deadline = time.monotonic() + 5
        while any(w.pending for w in writers) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert all(w.pending == 0 for w in writers)
        # 20 appends; flush passes are per-window, so far fewer fsyncs
        # than under the per-writer interval policy
        assert coordinator.scheduled == 20
        assert 1 <= coordinator.flushes < 10
        for writer in writers:
            assert writer.syncs < writer.appended
            assert len(scan_wal(writer.path).records) == 10
            writer.close()
        coordinator.close()

    def test_close_flushes_remaining(self, tmp_path):
        coordinator = GroupCommitCoordinator(window=60.0)  # never fires alone
        path = tmp_path / "wal.log"
        create_wal(path)
        writer = WalWriter(path, policy="batch", group_commit=coordinator)
        writer.append("only-record")
        coordinator.close()
        assert writer.pending == 0
        assert len(scan_wal(path).records) == 1
        # a closed coordinator refuses new work ...
        assert coordinator.schedule(writer) is False
        # ... and the writer falls back to its own interval fsyncs
        syncs_before = writer.syncs
        for index in range(writer._interval):
            writer.append(f"fallback-{index}")
        assert writer.syncs == syncs_before + 1
        assert writer.pending == 0
        writer.close()
        assert len(scan_wal(path).records) == 1 + writer._interval

    def test_window_must_be_positive(self):
        with pytest.raises(StoreError):
            GroupCommitCoordinator(window=0)


class TestGroupCommittedStore:
    def test_concurrent_sessions_serve_and_recover(
        self, tmp_path, schema, source
    ):
        dtd, annotation = schema
        engine = ViewEngine(dtd, annotation).warm_up()
        store = DocumentStore.init(
            tmp_path / "store",
            fsync="batch",
            group_commit=True,
            group_window=0.005,
        )
        doc_ids = [f"doc-{i}" for i in range(3)]
        for doc_id in doc_ids:
            store.put(doc_id, source, dtd, annotation)

        expected = engine.propagate(source, EditScript.parse(UPDATES[0])).output_tree
        errors: list = []

        def serve(doc_id: str) -> None:
            try:
                with store.open_session(doc_id, engine=engine) as session:
                    for text in UPDATES:
                        session.propagate(EditScript.parse(text))
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=serve, args=(doc_id,)) for doc_id in doc_ids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for doc_id in doc_ids:
            assert store.load(doc_id) == expected
        stats = store.stats()
        assert stats["group_commit"]["appends_coalesced"] == len(doc_ids)
        store.close()

    def test_stats_omits_group_commit_when_off(self, tmp_path, schema, source):
        dtd, annotation = schema
        store = DocumentStore.init(tmp_path / "plain")
        store.put("doc", source, dtd, annotation)
        assert "group_commit" not in store.stats()
        assert store.group_commit is None
        store.close()  # no-op
