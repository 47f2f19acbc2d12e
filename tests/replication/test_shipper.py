"""The shipper: bootstrap, resume, compaction bridging, multi-standby,
and tail reads that cost the new records, not the log."""

import sys
import threading

import pytest

from repro import framing
from repro.errors import UnknownDocumentError
from repro.replication import (
    QueueTransport,
    StandbyStore,
    WalShipper,
    replicate,
)
from repro.store import DocumentStore, scan_wal
from repro.store.wal import encode_record
from repro.xmltree import tree_to_xml

from .conftest import serve_updates


def _identical(store_a, store_b, doc_id):
    return tree_to_xml(store_a.recover(doc_id).tree) == tree_to_xml(
        store_b.recover(doc_id).tree
    )


def test_first_ship_bootstraps_then_streams_records(primary, standby):
    store, doc_id, _, states = primary
    queue = QueueTransport()
    shipper = WalShipper(store, queue)
    sent = shipper.ship_all()
    assert sent == 1 + len(states) - 1  # bootstrap + one frame per record
    frames = queue.drain()
    assert [f.kind for f in frames] == ["bootstrap"] + ["record"] * 5
    standby.apply_frames(frames)
    assert standby.applied_seq(doc_id) == 5
    assert _identical(store, standby, doc_id)
    assert shipper.stats["bootstraps"] == 1
    assert shipper.stats["records_shipped"] == 5


def test_reshipping_at_the_head_sends_nothing(primary, standby):
    store, doc_id, _, _ = primary
    assert replicate(store, standby)["shipped"] == 6
    assert replicate(store, standby)["shipped"] == 0


def test_resume_from_standby_skips_what_it_acknowledged(primary, standby):
    store, doc_id, workload, _ = primary
    replicate(store, standby)
    serve_updates(store, doc_id, workload, steps=3, seed=99)
    queue = QueueTransport()
    shipper = WalShipper(store, queue).resume_from(standby)
    assert shipper.ship_all() == 3  # only the new records, no bootstrap
    standby.apply_frames(queue.drain())
    assert standby.applied_seq(doc_id) == 8
    assert _identical(store, standby, doc_id)


def test_duplicate_frames_are_skipped_not_reapplied(primary, standby):
    store, doc_id, _, _ = primary
    queue = QueueTransport()
    WalShipper(store, queue).ship_all()
    frames = queue.drain()
    assert standby.apply_frames(frames) == {"applied": 6, "skipped": 0}
    assert standby.apply_frames(frames) == {"applied": 0, "skipped": 6}
    assert _identical(store, standby, doc_id)


def test_compaction_gap_is_bridged_with_a_checkpoint(tmp_path, workload):
    store = DocumentStore.init(tmp_path / "p", fsync="off", keep_snapshots=1)
    store.put("doc", workload.source, workload.dtd, workload.annotation)
    serve_updates(store, "doc", workload, steps=3)
    standby = StandbyStore.init(tmp_path / "s", primary_root=tmp_path / "p")
    replicate(store, standby)
    assert standby.applied_seq("doc") == 3
    # the standby goes dark; the primary advances and compacts twice, so
    # records 4..6 exist but 1..6's prefix up to the checkpoint is gone
    serve_updates(store, "doc", workload, steps=3, seed=61)
    store.compact("doc")
    serve_updates(store, "doc", workload, steps=2, seed=62)
    queue = QueueTransport()
    shipper = WalShipper(store, queue).resume_from(standby)
    shipper.ship_all()
    frames = queue.drain()
    assert frames[0].kind == "checkpoint"
    standby.apply_frames(frames)
    assert standby.applied_seq("doc") == 8
    assert shipper.stats["checkpoints"] == 1
    assert _identical(store, standby, doc_id="doc")


def test_one_primary_feeds_many_standbys(primary, tmp_path):
    store, doc_id, workload, _ = primary
    replicas = []
    for name in ("s1", "s2", "s3"):
        replica = StandbyStore.init(tmp_path / name)
        replicate(store, replica)
        replicas.append(replica)
    serve_updates(store, doc_id, workload, steps=2, seed=17)
    for replica in replicas:
        replicate(store, replica)
        assert replica.applied_seq(doc_id) == 7
        assert _identical(store, replica, doc_id)
    # the standbys' logs are byte-for-byte the same stream
    def wal(st):
        return (st.root / "docs" / doc_id / "wal.log").read_bytes()

    assert wal(replicas[0]) == wal(replicas[1]) == wal(replicas[2])


def test_unknown_document_is_refused(primary):
    store, _, _, _ = primary
    shipper = WalShipper(store, QueueTransport())
    with pytest.raises(UnknownDocumentError):
        shipper.ship("ghost")


def test_new_documents_are_picked_up_by_later_passes(primary, standby, workload):
    store, _, _, _ = primary
    replicate(store, standby)
    store.put("second", workload.source, workload.dtd, workload.annotation)
    out = replicate(store, standby)
    assert out["positions"] == {"doc": 5, "second": 0}
    assert _identical(store, standby, "second")


def test_ship_and_lag_read_only_the_new_record(tmp_path, workload, monkeypatch):
    store = DocumentStore.init(tmp_path / "p", fsync="off")
    store.put("doc", workload.source, workload.dtd, workload.annotation)
    serve_updates(store, "doc", workload, steps=200)
    standby = StandbyStore.init(tmp_path / "s", primary_root=tmp_path / "p")
    queue = QueueTransport()
    shipper = WalShipper(store, queue)
    shipper.ship("doc")
    standby.apply_frames(queue.drain())
    assert shipper.lag() == {"doc": 0} and standby.lag("doc") == 0
    serve_updates(store, "doc", workload, steps=1, seed=5)
    last = scan_wal(tmp_path / "p" / "docs" / "doc" / "wal.log").records[-1]
    assert last.seq == 201
    scanned = []
    real = framing.scan

    def spy(data, *args, **kwargs):
        scanned.append(len(data))
        return real(data, *args, **kwargs)

    monkeypatch.setattr(framing, "scan", spy)
    assert shipper.ship("doc") == 1
    assert shipper.lag() == {"doc": 0}
    assert standby.lag("doc") == 1
    assert scanned == [len(encode_record(last.seq, last.text))] * 3


def test_compaction_between_two_ships_of_one_shipper(tmp_path, workload):
    store = DocumentStore.init(tmp_path / "p", fsync="off", keep_snapshots=1)
    store.put("doc", workload.source, workload.dtd, workload.annotation)
    serve_updates(store, "doc", workload, steps=3)
    standby = StandbyStore.init(tmp_path / "s", primary_root=tmp_path / "p")
    queue = QueueTransport()
    shipper = WalShipper(store, queue).resume_from(standby)
    shipper.ship("doc")
    standby.apply_frames(queue.drain())
    serve_updates(store, "doc", workload, steps=3, seed=61)
    store.compact("doc")
    serve_updates(store, "doc", workload, steps=2, seed=62)
    assert shipper.lag() == {"doc": 5}
    shipper.ship("doc")
    frames = queue.drain()
    assert [f.kind for f in frames] == ["checkpoint", "record", "record"]
    standby.apply_frames(frames)
    wal = "docs/doc/wal.log"
    assert (tmp_path / "s" / wal).read_bytes() == (tmp_path / "p" / wal).read_bytes()
    assert shipper.lag() == {"doc": 0} and standby.lag("doc") == 0


def test_lag_reads_race_shipping_without_a_lock(tmp_path, workload):
    """Scrapers read the lag gauge while the shipper ships: every read is
    a real position, and no shipped record is lost or repeated."""
    store = DocumentStore.init(tmp_path / "p", fsync="off")
    store.put("doc", workload.source, workload.dtd, workload.annotation)
    queue = QueueTransport()
    shipper = WalShipper(store, queue)
    shipper.ship("doc")
    stop = threading.Event()
    seen = []

    def scrape():
        while not stop.is_set():
            seen.append(shipper.lag()["doc"])

    scrapers = [threading.Thread(target=scrape) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for scraper in scrapers:
            scraper.start()
        for seed in range(20):
            serve_updates(store, "doc", workload, steps=2, seed=seed)
            shipper.ship("doc")
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for scraper in scrapers:
            scraper.join(timeout=30)
    assert not any(scraper.is_alive() for scraper in scrapers)
    assert seen and all(0 <= lag <= 2 for lag in seen)
    assert shipper.lag() == {"doc": 0}
    assert [f.payload["seq"] for f in queue.drain()[1:]] == list(range(1, 41))
