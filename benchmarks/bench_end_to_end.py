"""E6: Theorem 6 — with insertlets and a polynomial Φ, propagation runs
in time polynomial in |D| + |t| + |S| + |W|. End-to-end timings across
document sizes and workload families, the cold-vs-warm ViewEngine
comparison (amortised per-update serving cost), the streaming
workload pitting a :class:`DocumentSession` against transient-engine
serving, and the durability columns quantifying write-ahead-log
overhead (``always``/``batch``/group-commit fsync vs in-memory
serving). Run with ``REPRO_BENCH_SMOKE=1`` for a 2-update
import-clean smoke pass.

Run **as a script** to emit the machine-readable perf trajectory::

    python benchmarks/bench_end_to_end.py --json BENCH_PR10.json [--smoke]

writing per-workload medians for the streaming modes (transient and
session) plus the WAL, replication, served and sharded columns — the
checked-in ``BENCH_PR10.json`` is that output (its ``cold_start``
section and the deleted request memo's section are no longer written
or read), and CI's ``bench-smoke`` job fails on regressions against it
(``benchmarks/check_regression.py``).

Note the free :func:`repro.propagate` is served by the default engine
registry since the serving tier landed — the scaling benchmarks below
therefore measure amortised per-request propagation (the Theorem 6
quantity); the explicitly *cold* benchmarks build a transient
:class:`ViewEngine` per call to keep measuring full recompilation.
"""

import json
import os
import platform
import random
import statistics
import subprocess
import time

import pytest

from repro.core import InsertletPackage, propagate, verify_propagation
from repro.editing import UpdateBuilder
from repro.engine import ViewEngine
from repro.generators.updates import random_view_update
from repro.sharding import ShardedDocument
from repro.store import DocumentStore
from repro.xmltree import parse_term
from repro.generators.workloads import (
    catalog,
    deep_document,
    hospital,
    huge_document,
    positional,
    running_example,
    wide_schema,
)


@pytest.mark.parametrize("groups", [2, 8, 32, 128])
class TestEndToEndScaling:
    def test_propagate_running_example(self, benchmark, groups):
        workload = running_example(groups)
        script = benchmark(
            propagate,
            workload.dtd,
            workload.annotation,
            workload.source,
            workload.update,
        )
        benchmark.extra_info["source_size"] = workload.source.size
        benchmark.extra_info["propagation_cost"] = script.cost
        assert verify_propagation(
            workload.dtd, workload.annotation, workload.source,
            workload.update, script,
        )


FAMILIES = {
    "hospital": lambda: hospital(30),
    "catalog": lambda: catalog(30),
    "positional": lambda: positional(12),
    "deep_document": lambda: deep_document(8),
}


@pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
class TestWorkloadFamilies:
    def test_propagate_family(self, benchmark, family):
        workload = FAMILIES[family]()
        insertlets = InsertletPackage.minimal(workload.dtd)
        script = benchmark(
            propagate,
            workload.dtd,
            workload.annotation,
            workload.source,
            workload.update,
            factory=insertlets,
        )
        benchmark.extra_info["source_size"] = workload.source.size
        benchmark.extra_info["update_cost"] = workload.update.cost
        benchmark.extra_info["propagation_cost"] = script.cost
        assert verify_propagation(
            workload.dtd, workload.annotation, workload.source,
            workload.update, script,
        )


# ---------------------------------------------------------------------------
# Cold vs warm engine: the compile-once/serve-many speedup, measured.
#
# "Cold" builds a transient ViewEngine per request, re-deriving every
# per-request schema artifact not memoized on the DTD itself — the view
# DTD (an automaton elimination per symbol), the visibility tables, and
# the factory (the minimal-size fixpoint and NFA orderings *are*
# DTD-memoized, so the cold path is already partially warm after the
# first call). "Warm" compiles one ViewEngine up front and serves the
# same batch from it. Per-update amortised time = round time / batch.
# ---------------------------------------------------------------------------

BATCH = 16

SERVING = {
    "running_example": lambda: running_example(32),
    "wide_schema": lambda: wide_schema(40),
}


@pytest.mark.parametrize("family", sorted(SERVING), ids=sorted(SERVING))
class TestColdVsWarmEngine:
    def test_cold_transient_engine_batch(self, benchmark, family):
        workload = SERVING[family]()
        updates = [workload.update] * BATCH

        def serve_cold():
            return [
                ViewEngine(workload.dtd, workload.annotation).propagate(
                    workload.source, u
                )
                for u in updates
            ]

        scripts = benchmark(serve_cold)
        benchmark.extra_info["batch"] = BATCH
        benchmark.extra_info["source_size"] = workload.source.size
        benchmark.extra_info["alphabet"] = len(workload.dtd.alphabet)
        assert len(scripts) == BATCH

    def test_warm_engine_batch(self, benchmark, family):
        workload = SERVING[family]()
        updates = [workload.update] * BATCH
        engine = ViewEngine(workload.dtd, workload.annotation).warm_up()

        scripts = benchmark(engine.propagate_many, workload.source, updates)
        benchmark.extra_info["batch"] = BATCH
        benchmark.extra_info["source_size"] = workload.source.size
        benchmark.extra_info["alphabet"] = len(workload.dtd.alphabet)
        # the warm path must be a pure speedup: byte-identical scripts
        cold = propagate(
            workload.dtd, workload.annotation, workload.source, workload.update
        )
        assert all(script.to_term() == cold.to_term() for script in scripts)


# ---------------------------------------------------------------------------
# Streaming: one hot document, N *sequential* updates — each built against
# the view the previous propagation produced. Transient serving recompiles
# the schema and rescans the document per update; a DocumentSession
# compiles once and carries the view/size/id caches forward. The scripts
# must be byte-identical (asserted below); the session must win on time.
# ---------------------------------------------------------------------------

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
STREAM_LENGTH = 2 if SMOKE else 50


def _sequential_stream(workload, length, seed=17):
    """Pregenerate a coherent stream of *length* sequential view updates
    (untimed; uses its own throwaway engine)."""
    dtd, annotation = workload.dtd, workload.annotation
    rng = random.Random(seed)
    scratch = ViewEngine(dtd, annotation).warm_up()
    updates = []
    current = workload.source
    for _ in range(length):
        update = random_view_update(
            rng, dtd, annotation, current,
            n_ops=2, derived_view_dtd=scratch.view_dtd,
        )
        updates.append(update)
        current = scratch.propagate(current, update).output_tree
    return updates


class TestStreamingSession:
    def test_session_beats_transient_serving(self):
        workload = wide_schema(24, sections=8)
        dtd, annotation = workload.dtd, workload.annotation
        updates = _sequential_stream(workload, STREAM_LENGTH)

        # -- transient: compile an engine per update, rescan everything --
        start = time.perf_counter()
        transient_scripts = []
        current = workload.source
        for update in updates:
            script = ViewEngine(dtd, annotation).propagate(current, update)
            transient_scripts.append(script)
            current = script.output_tree
        transient_elapsed = time.perf_counter() - start

        # -- session: compile once, carry the caches forward -------------
        start = time.perf_counter()
        engine = ViewEngine(dtd, annotation).warm_up()
        session = engine.session(workload.source)
        session_scripts = session.serve(updates)
        session_elapsed = time.perf_counter() - start

        # byte-identical serving is non-negotiable
        assert [s.to_term() for s in session_scripts] == [
            s.to_term() for s in transient_scripts
        ]
        assert session.source == current

        per_update_transient = transient_elapsed / len(updates) * 1000
        per_update_session = session_elapsed / len(updates) * 1000
        print(
            f"\nstreaming x{len(updates)}: transient "
            f"{per_update_transient:.2f} ms/update, session "
            f"{per_update_session:.2f} ms/update, "
            f"speedup {transient_elapsed / session_elapsed:.1f}x"
        )
        if not SMOKE:
            # N >= 50 amortises one compile over the stream: the session
            # must be measurably faster than transient serving
            assert session_elapsed < transient_elapsed, (
                f"session ({session_elapsed:.3f}s) not faster than "
                f"transient serving ({transient_elapsed:.3f}s)"
            )


# ---------------------------------------------------------------------------
# Durability overhead: the same streaming workload with the write-ahead
# log off (a plain in-memory session), in `batch` mode (fsync every 8
# records), and in `always` mode (fsync per record). The scripts must be
# byte-identical in all three columns — the WAL is an observer — so the
# only thing the columns may differ in is time.
# ---------------------------------------------------------------------------


class TestDurableStreaming:
    def test_wal_overhead_columns(self, tmp_path):
        workload = wide_schema(24, sections=8)
        dtd, annotation = workload.dtd, workload.annotation
        updates = _sequential_stream(workload, STREAM_LENGTH)
        engine = ViewEngine(dtd, annotation).warm_up()

        # -- WAL off: the in-memory baseline --------------------------
        start = time.perf_counter()
        session = engine.session(workload.source)
        baseline_scripts = session.serve(updates)
        off_elapsed = time.perf_counter() - start

        columns = {"off (in-memory)": (off_elapsed, baseline_scripts)}

        # -- WAL on, batch and always fsync ---------------------------
        for policy in ("batch", "always"):
            store = DocumentStore.init(tmp_path / f"store-{policy}")
            store.put("doc", workload.source, dtd, annotation)
            start = time.perf_counter()
            with store.open_session(
                "doc", engine=engine, fsync=policy
            ) as durable:
                scripts = durable.serve(updates)
            elapsed = time.perf_counter() - start
            columns[f"wal {policy}"] = (elapsed, scripts)
            # durability must be pure overhead, never different serving
            assert [s.to_term() for s in scripts] == [
                s.to_term() for s in baseline_scripts
            ]
            assert store.load("doc") == session.source

        print(f"\ndurable streaming x{len(updates)}:")
        for name, (elapsed, _) in columns.items():
            per_update = elapsed / len(updates) * 1000
            overhead = (elapsed / off_elapsed - 1) * 100
            print(
                f"  {name:18s} {per_update:8.2f} ms/update "
                f"({overhead:+6.1f}% vs in-memory)"
            )


# ---------------------------------------------------------------------------
# Replication: the WAL shipped, applied, and served from a standby. The
# engine never re-runs on the replica path — shipping is file and frame
# I/O — so keeping a standby byte-identical must cost a fraction of the
# propagation work that produced the records. Asserted byte-identical.
# ---------------------------------------------------------------------------


class TestReplicationShipping:
    def test_standby_keeps_up_with_the_primary(self, tmp_path):
        from repro.replication import StandbyStore, replicate

        workload = wide_schema(8 if SMOKE else 24, sections=8)
        dtd, annotation = workload.dtd, workload.annotation
        updates = _sequential_stream(workload, STREAM_LENGTH)
        engine = ViewEngine(dtd, annotation).warm_up()

        primary = DocumentStore.init(tmp_path / "primary", fsync="off")
        primary.put("doc", workload.source, dtd, annotation)
        standby = StandbyStore.init(
            tmp_path / "standby", primary_root=tmp_path / "primary"
        )
        replicate(primary, standby)
        reader = standby.replica_session("doc")

        serve_elapsed = ship_elapsed = 0.0
        with primary.open_session("doc", engine=engine) as session:
            for update in updates:
                start = time.perf_counter()
                session.propagate(update)
                serve_elapsed += time.perf_counter() - start
                start = time.perf_counter()
                replicate(primary, standby)
                reader.refresh()
                ship_elapsed += time.perf_counter() - start
            # a fully caught-up replica serves the primary's exact state
            assert reader.lag() == 0
            assert reader.view == session.view
            assert reader.source == session.source

        print(
            f"\nreplication x{len(updates)} records: "
            f"serve {serve_elapsed / len(updates) * 1000:.2f} ms/update, "
            f"ship+refresh {ship_elapsed / len(updates) * 1000:.2f} "
            f"ms/record ({ship_elapsed / serve_elapsed * 100:.0f}% of "
            "propagation cost)"
        )


class TestReplicationFollowing:
    def test_replication_follow_daemon_bounds_live_lag(self, tmp_path):
        """The follow daemon over real TCP: every propagation lands on
        the standby without a manual ship, and the steady-state lag is
        zero once the stream stops — the live analogue of the one-shot
        shipping column."""
        from repro.errors import UnknownDocumentError
        from repro.replication import FollowerServer, ShipperDaemon, StandbyStore

        def applied(standby_store):
            try:
                return standby_store.applied_seq("doc")
            except UnknownDocumentError:
                return -1  # bootstrap not durably applied yet

        workload = wide_schema(8 if SMOKE else 24, sections=8)
        dtd, annotation = workload.dtd, workload.annotation
        updates = _sequential_stream(workload, STREAM_LENGTH)
        engine = ViewEngine(dtd, annotation).warm_up()

        primary = DocumentStore.init(tmp_path / "primary", fsync="off")
        primary.put("doc", workload.source, dtd, annotation)
        standby = StandbyStore.init(
            tmp_path / "standby", primary_root=tmp_path / "primary"
        )
        latencies = []
        with FollowerServer(standby, listen=("127.0.0.1", 0)) as follower:
            with ShipperDaemon(
                primary, connect=[follower.address], poll_interval=0.05
            ) as daemon:
                assert daemon.wait_caught_up(timeout=30)
                with primary.open_session("doc", engine=engine) as session:
                    for index, update in enumerate(updates, start=1):
                        session.propagate(update)
                        start = time.perf_counter()
                        while applied(standby) < index:
                            if time.perf_counter() - start > 30:
                                raise AssertionError(
                                    f"standby never applied seq {index}"
                                )
                            time.sleep(0.001)
                        latencies.append(time.perf_counter() - start)
                (link,) = daemon.links
                assert not any(link.shipper.lag().values())  # zero lag
        primary_wal = (tmp_path / "primary/docs/doc/wal.log").read_bytes()
        assert (tmp_path / "standby/docs/doc/wal.log").read_bytes() == primary_wal
        print(
            f"\nreplication follow x{len(updates)} updates: ship latency "
            f"median {statistics.median(latencies) * 1000:.2f} ms/update, "
            "steady lag 0"
        )


# ---------------------------------------------------------------------------
# Sharded streaming: one huge document split at the spine into shards.
# The claim under test is **size independence** — with `splice=False` and
# dirty hints, serving an interior edit costs the touched shard, not the
# document, so per-edit latency at 100k nodes must stay within 2x of the
# 10k-node latency. (Unsharded sessions scan per update: their per-edit
# cost grows with the document.) Byte-identity of the spliced script is
# spot-checked against an unsharded session at the small size.
# ---------------------------------------------------------------------------


def _huge_interior_stream(workload, length, seed=29):
    """Pregenerate *length* sequential interior edits (one new paragraph
    each, rotating over chapters) plus their dirty hints. Untimed."""
    rng = random.Random(seed)
    chapters = list(workload.source.children(workload.source.root))
    view = workload.annotation.view(workload.source)
    forbidden = set(workload.source.nodes())
    updates, hints = [], []
    for index in range(length):
        chapter = chapters[rng.randrange(len(chapters))]
        section = next(
            kid
            for kid in view.children(chapter)
            if view.label(kid) == "section"
        )
        builder = UpdateBuilder(view, forbidden_ids=forbidden)
        node = f"q{index}"
        builder.insert(section, parse_term(f"para#{node}"), index=0)
        update = builder.script()
        updates.append(update)
        hints.append([node])
        forbidden.add(node)
        view = update.output_tree
    return updates, hints


def _sharded_latency_ms(engine, workload, updates, hints):
    """Median per-edit latency (ms) of no-splice hinted sharded serving."""
    doc = ShardedDocument(engine, workload.source, depth=1, validate_source=False)
    times = []
    try:
        for update, hint in zip(updates, hints):
            start = time.perf_counter()
            doc.propagate(update, dirty=hint, splice=False)
            times.append(time.perf_counter() - start)
    finally:
        doc.close()
    return statistics.median(times) * 1000


def _sharded_streaming_modes(smoke: bool) -> dict:
    small_n, large_n = (1_000, 4_000) if smoke else (10_000, 100_000)
    length = 4 if smoke else 30
    small = huge_document(small_n)
    large = huge_document(large_n)
    engine = ViewEngine(small.dtd, small.annotation).warm_up()

    # byte-identity spot check (spliced) at the small size
    check_updates, check_hints = _huge_interior_stream(small, min(length, 4))
    session = engine.session(small.source)
    with ShardedDocument(
        engine, small.source, depth=1, validate_source=False
    ) as doc:
        for update, hint in zip(check_updates, check_hints):
            sharded = doc.propagate(update, dirty=hint, splice=True)
            assert sharded.to_term() == session.propagate(update).to_term()

    small_updates, small_hints = _huge_interior_stream(small, length)
    large_updates, large_hints = _huge_interior_stream(large, length)
    small_ms = _sharded_latency_ms(engine, small, small_updates, small_hints)
    large_ms = _sharded_latency_ms(engine, large, large_updates, large_hints)

    # the unsharded comparison column at the small size only (at the
    # large size it is exactly the O(|t|)-per-edit cost sharding removes)
    unsharded = engine.session(small.source)
    times = []
    for update in small_updates:
        start = time.perf_counter()
        unsharded.propagate(update)
        times.append(time.perf_counter() - start)
    unsharded_small_ms = statistics.median(times) * 1000

    return {
        "small_nodes": small.source.size,
        "large_nodes": large.source.size,
        "stream_length": length,
        "sharded_small_ms_per_update": small_ms,
        "sharded_large_ms_per_update": large_ms,
        "unsharded_small_ms_per_update": unsharded_small_ms,
        # >= 0.5 is the acceptance line: the large document costs at
        # most 2x the small one per edit
        "size_independence": small_ms / large_ms if large_ms else 1.0,
    }


class TestShardedStreaming:
    def test_sharded_latency_is_size_independent(self):
        modes = _sharded_streaming_modes(SMOKE)
        ratio = modes["size_independence"]
        print(
            f"\nsharded streaming ({modes['small_nodes']} vs "
            f"{modes['large_nodes']} nodes, x{modes['stream_length']}): "
            f"{modes['sharded_small_ms_per_update']:.2f} vs "
            f"{modes['sharded_large_ms_per_update']:.2f} ms/edit "
            f"(size independence {ratio:.2f}, unsharded small "
            f"{modes['unsharded_small_ms_per_update']:.2f} ms/edit)"
        )
        if not SMOKE:
            assert ratio >= 0.5, (
                f"per-edit latency at {modes['large_nodes']} nodes is "
                f"{1 / ratio:.1f}x the {modes['small_nodes']}-node latency "
                "(acceptance: within 2x)"
            )


# ---------------------------------------------------------------------------
# The machine-readable perf trajectory (python bench_end_to_end.py --json).
# ---------------------------------------------------------------------------


def _median_seconds(fn, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _streaming_modes(workload, length: int, rounds: int) -> dict:
    """Median ms/update for transient-engine vs session streaming."""
    dtd, annotation = workload.dtd, workload.annotation
    updates = _sequential_stream(workload, length)

    def serve_transient():
        current = workload.source
        for update in updates:
            script = ViewEngine(dtd, annotation).propagate(current, update)
            current = script.output_tree

    engine = ViewEngine(dtd, annotation).warm_up()

    def serve_session():
        session = engine.session(workload.source)
        session.serve(updates)

    transient = _median_seconds(serve_transient, rounds)
    session = _median_seconds(serve_session, rounds)
    return {
        "stream_length": len(updates),
        "transient_ms_per_update": transient / len(updates) * 1000,
        "session_ms_per_update": session / len(updates) * 1000,
        "session_speedup_vs_transient": transient / session,
    }


def _wal_modes(workload, length: int, tmp_root, rounds: int) -> dict:
    """ms/update for in-memory vs WAL policies (incl. group commit)."""
    from pathlib import Path

    dtd, annotation = workload.dtd, workload.annotation
    updates = _sequential_stream(workload, length)
    engine = ViewEngine(dtd, annotation).warm_up()
    engine.session(workload.source).serve(updates)  # warm every lazy cache

    off_elapsed = _median_seconds(
        lambda: engine.session(workload.source).serve(updates), rounds
    )
    columns = {"in_memory_ms_per_update": off_elapsed / len(updates) * 1000}

    flavours = {
        "wal_batch": {"fsync": "batch"},
        "wal_always": {"fsync": "always"},
        "wal_group_commit": {
            "fsync": "batch",
            "group_commit": True,
            "group_window": 0.002,
        },
    }
    for name, kwargs in flavours.items():
        times = []
        for round_index in range(rounds):
            # a fresh store per round (the stream only applies once), but
            # only the serving itself is timed — setup and recovery are not
            # per-update costs
            store = DocumentStore.init(
                Path(tmp_root) / f"store-{name}-{round_index}", **kwargs
            )
            store.put("doc", workload.source, dtd, annotation)
            with store.open_session("doc", engine=engine) as durable:
                start = time.perf_counter()
                durable.serve(updates)
                times.append(time.perf_counter() - start)
            store.close()
        elapsed = statistics.median(times)
        columns[f"{name}_ms_per_update"] = elapsed / len(updates) * 1000
        columns[f"{name}_overhead_pct"] = (elapsed / off_elapsed - 1) * 100
    return columns


def _replication_modes(workload, length: int, tmp_root, rounds: int) -> dict:
    """Per-record shipping cost and standby serving costs (not gated by
    check_regression — absolute I/O times are machine-bound; tracked for
    the trajectory)."""
    from pathlib import Path

    from repro.replication import QueueTransport, StandbyStore, WalShipper, replicate

    dtd, annotation = workload.dtd, workload.annotation
    updates = _sequential_stream(workload, length)
    engine = ViewEngine(dtd, annotation).warm_up()
    primary = DocumentStore.init(Path(tmp_root) / "repl-primary", fsync="off")
    primary.put("doc", workload.source, dtd, annotation)
    with primary.open_session("doc", engine=engine) as session:
        session.serve(updates)

    # bootstrap + full-stream catch-up of a fresh standby, per record
    ship_times = []
    for round_index in range(rounds):
        standby = StandbyStore.init(
            Path(tmp_root) / f"repl-standby-{round_index}"
        )
        transport = QueueTransport()
        start = time.perf_counter()
        WalShipper(primary, transport).ship_all()
        standby.apply_frames(transport.drain())
        ship_times.append(time.perf_counter() - start)
        assert standby.applied_seq("doc") == len(updates)
    ship_elapsed = statistics.median(ship_times)

    # serving side: a warm replica session's no-op refresh vs rebuilding
    # the whole session from snapshot + log
    standby = StandbyStore.init(
        Path(tmp_root) / "repl-standby-serve", primary_root=primary.root
    )
    replicate(primary, standby)
    reader = standby.replica_session("doc")
    rebuild = _median_seconds(lambda: standby.replica_session("doc"), rounds)
    refresh = _median_seconds(reader.refresh, rounds)

    # -- followed standby: the live daemon over real TCP ----------------
    # per-update ship latency = propagate acknowledged -> standby durably
    # applied, with the daemon's append hook doing the waking; the gated
    # ratio follow_lag_bounded = 1/(1+final_lag) is 1.0 exactly when the
    # feed converged to zero lag (a correctness gate dressed as a ratio,
    # immune to machine speed)
    from repro.errors import UnknownDocumentError
    from repro.replication import FollowerServer, ShipperDaemon

    def applied(standby_store):
        # the bootstrap frame may not have durably applied yet — the doc
        # simply does not exist on the standby until it does
        try:
            return standby_store.applied_seq("doc")
        except UnknownDocumentError:
            return -1

    follow_primary = DocumentStore.init(
        Path(tmp_root) / "follow-primary", fsync="off"
    )
    follow_primary.put("doc", workload.source, dtd, annotation)
    followed = StandbyStore.init(
        Path(tmp_root) / "follow-standby", primary_root=follow_primary.root
    )
    follow_latencies = []
    with FollowerServer(followed, listen=("127.0.0.1", 0)) as follower:
        with ShipperDaemon(
            follow_primary, connect=[follower.address], poll_interval=0.05
        ) as daemon:
            daemon.wait_caught_up(timeout=30)
            with follow_primary.open_session("doc", engine=engine) as session:
                for index, update in enumerate(updates, start=1):
                    session.propagate(update)
                    start = time.perf_counter()
                    deadline = start + 30.0
                    while time.perf_counter() < deadline:
                        if applied(followed) >= index:
                            break
                        time.sleep(0.001)
                    follow_latencies.append(time.perf_counter() - start)
            final_lag = sum(daemon.links[0].shipper.lag().values())
    followed.close()
    follow_primary.close()

    return {
        "ship_ms_per_record": ship_elapsed / len(updates) * 1000,
        "replica_rebuild_ms": rebuild * 1000,
        "replica_noop_refresh_ms": refresh * 1000,
        "follow_ship_ms_per_update": statistics.median(follow_latencies) * 1000,
        "follow_steady_lag": final_lag,
        "follow_lag_bounded": 1.0 / (1.0 + final_lag),
    }


def _served_streaming_modes(workload, length: int, tmp_root, rounds: int) -> dict:
    """ms/update for in-process durable streaming vs the same stream
    served over the wire (framed TCP to an in-process ReproServer).

    The differential is strict: the scripts coming back over the wire
    must be byte-identical to in-process serving. The ratio column
    ``served_efficiency`` (in-process time / served time, higher is
    better) is what the bench-smoke gate tracks — the wire adds JSON
    framing, checksums, event-loop dispatch, and executor hops per
    update, and this column keeps that overhead honest.
    """
    import asyncio
    import threading
    from pathlib import Path

    from repro.server import ReproServer, ServeClient

    dtd, annotation = workload.dtd, workload.annotation
    updates = _sequential_stream(workload, length)
    terms = [update.to_term() for update in updates]
    engine = ViewEngine(dtd, annotation).warm_up()

    # -- in-process baseline: a durable session, fsync off --
    inproc_times = []
    inproc_scripts = None
    for round_index in range(rounds):
        store = DocumentStore.init(
            Path(tmp_root) / f"served-inproc-{round_index}", fsync="off"
        )
        store.put("doc", workload.source, dtd, annotation)
        with store.open_session("doc", engine=engine) as durable:
            start = time.perf_counter()
            scripts = durable.serve(updates)
            inproc_times.append(time.perf_counter() - start)
        store.close()
        inproc_scripts = [script.to_term() for script in scripts]
    inproc = statistics.median(inproc_times)

    # -- served: same stream over framed TCP, one document per round --
    served_root = Path(tmp_root) / "served-server"
    store = DocumentStore.init(served_root, fsync="off")
    store.put("warmup", workload.source, dtd, annotation)
    for round_index in range(rounds):
        store.put(f"doc{round_index}", workload.source, dtd, annotation)
        store.put(f"tdoc{round_index}", workload.source, dtd, annotation)
    store.close()

    server = ReproServer(store_root=served_root, fsync="off")
    loop = asyncio.new_event_loop()
    started = threading.Event()
    address = {}

    def run_loop():
        asyncio.set_event_loop(loop)

        async def boot():
            address["hp"] = await server.start()
            started.set()

        loop.create_task(boot())
        loop.run_forever()

    thread = threading.Thread(target=run_loop, daemon=True)
    thread.start()
    assert started.wait(30), "server failed to start"
    host, port = address["hp"]
    served_times = []
    traced_times = []
    served_scripts = None
    traced_scripts = None
    try:
        with ServeClient(host, port) as client:
            client.propagate("warmup", terms[0])  # untimed schema warm-up
            for round_index in range(rounds):
                doc_id = f"doc{round_index}"
                start = time.perf_counter()
                scripts = [
                    client.propagate(doc_id, term)["script"] for term in terms
                ]
                served_times.append(time.perf_counter() - start)
                served_scripts = scripts
            # -- the same stream with full request tracing on: the
            # per-span perf_counter/contextvar cost the obs layer adds
            # when someone is actually watching --
            from repro.obs import configure as obs_configure

            obs_configure(enabled=True, sample_rate=1.0)
            try:
                for round_index in range(rounds):
                    doc_id = f"tdoc{round_index}"
                    start = time.perf_counter()
                    scripts = [
                        client.propagate(doc_id, term)["script"]
                        for term in terms
                    ]
                    traced_times.append(time.perf_counter() - start)
                    traced_scripts = scripts
            finally:
                obs_configure(enabled=False)
    finally:
        asyncio.run_coroutine_threadsafe(server.drain(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()
    served = statistics.median(served_times)
    traced = statistics.median(traced_times)

    assert served_scripts == inproc_scripts, (
        "wire-served scripts diverged from in-process serving"
    )
    assert traced_scripts == inproc_scripts, (
        "traced serving diverged from in-process serving"
    )
    per_update = 1000 / len(updates)
    return {
        "stream_length": len(updates),
        "in_process_ms_per_update": inproc * per_update,
        "served_ms_per_update": served * per_update,
        "served_overhead_ms_per_update": (served - inproc) * per_update,
        "served_efficiency": inproc / served,
        "traced_ms_per_update": traced * per_update,
        # untraced served time / traced served time — 1.0 means tracing
        # every span costs nothing; the bench-smoke gate keeps this from
        # silently decaying
        "tracing_enabled_efficiency": served / traced,
    }


class TestServedStreaming:
    def test_served_stream_matches_in_process_and_bounds_overhead(
        self, tmp_path
    ):
        workload = wide_schema(12 if SMOKE else 24, sections=8)
        modes = _served_streaming_modes(
            workload, STREAM_LENGTH, tmp_path, 2 if SMOKE else 3
        )
        print(
            f"\nserved streaming (x{modes['stream_length']}): in-process "
            f"{modes['in_process_ms_per_update']:.2f} vs served "
            f"{modes['served_ms_per_update']:.2f} ms/update (overhead "
            f"{modes['served_overhead_ms_per_update']:.2f} ms, efficiency "
            f"{modes['served_efficiency']:.2f}); traced "
            f"{modes['traced_ms_per_update']:.2f} ms/update (tracing "
            f"efficiency {modes['tracing_enabled_efficiency']:.2f})"
        )
        # byte-identity is asserted inside; in full mode also keep the
        # wire from costing more than ~20x the in-process path
        if not SMOKE:
            assert modes["served_efficiency"] >= 0.05


def run_trajectory(smoke: bool) -> dict:
    """The full perf trajectory as one JSON-serializable report."""
    rounds = 2 if smoke else 5
    stream_length = 2 if smoke else 50
    families = {
        "hospital": hospital(8 if smoke else 120),
        "wide_schema": wide_schema(12 if smoke else 24, sections=8),
    }
    workloads = {}
    for name, workload in families.items():
        print(f"[{name}] source={workload.source.size} nodes", flush=True)
        workloads[name] = {
            "source_size": workload.source.size,
            "streaming": _streaming_modes(workload, stream_length, rounds),
        }
    import tempfile

    with tempfile.TemporaryDirectory() as tmp_root:
        workloads["wide_schema"]["wal"] = _wal_modes(
            families["wide_schema"], stream_length, tmp_root, rounds
        )
        workloads["wide_schema"]["replication"] = _replication_modes(
            families["wide_schema"], stream_length, tmp_root, rounds
        )
        print("[wide_schema] served streaming", flush=True)
        workloads["wide_schema"]["served_streaming"] = _served_streaming_modes(
            families["wide_schema"], stream_length, tmp_root, rounds
        )
    print("[huge_document] sharded streaming", flush=True)
    sharded = _sharded_streaming_modes(smoke)
    workloads["huge_document"] = {
        "source_size": sharded["large_nodes"],
        "sharded_streaming": sharded,
    }
    return {
        "meta": {
            "generated_by": "benchmarks/bench_end_to_end.py --json",
            "mode": "smoke" if smoke else "full",
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "rounds": rounds,
            "stream_length": stream_length,
        },
        "workloads": workloads,
    }


def _git_sha() -> str:
    """The checkout's commit, or why it is unknown."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Write the end-to-end perf trajectory as JSON"
    )
    parser.add_argument("--json", required=True, help="output path")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sizes (what CI's bench-smoke job runs)",
    )
    args = parser.parse_args(argv)
    report = run_trajectory(args.smoke or SMOKE)
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, data in report["workloads"].items():
        if "streaming" in data:
            streaming = data["streaming"]
            print(
                f"{name}: streaming session {streaming['session_ms_per_update']:.2f} "
                f"ms/update ({streaming['session_speedup_vs_transient']:.1f}x vs "
                "transient)"
            )
        if "served_streaming" in data:
            served = data["served_streaming"]
            print(
                f"{name}: served {served['served_ms_per_update']:.2f} vs "
                f"in-process {served['in_process_ms_per_update']:.2f} ms/update "
                f"(overhead {served['served_overhead_ms_per_update']:.2f} ms, "
                f"efficiency {served['served_efficiency']:.2f}; traced "
                f"{served['traced_ms_per_update']:.2f} ms/update, tracing "
                f"efficiency {served['tracing_enabled_efficiency']:.2f})"
            )
        if "sharded_streaming" in data:
            sharded = data["sharded_streaming"]
            print(
                f"{name}: sharded {sharded['sharded_small_ms_per_update']:.2f} "
                f"ms/update at {sharded['small_nodes']} nodes / "
                f"{sharded['sharded_large_ms_per_update']:.2f} ms/update at "
                f"{sharded['large_nodes']} nodes (size independence "
                f"{sharded['size_independence']:.2f}, unsharded small "
                f"{sharded['unsharded_small_ms_per_update']:.2f} ms/update)"
            )
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
