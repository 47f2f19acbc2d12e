#!/usr/bin/env python3
"""Served edit-stream benchmark: document sizes, reads beside writes, and
a per-layer traced breakdown.

One run::

    python3 perfbench/run.py --workload edit_large --seed 1 --seconds 20 --trace 0

serves one seeded, size-stationary edit stream against ``repro.server``
over framed TCP — the server in its own process on a fresh store, flush
policy ``fsync=always`` — and prints every end-to-end metric with its
unit and sample count, the correctness checks, and as its last line one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).
``--trace 1`` serves through :mod:`launcher`, which times every layer's
public entry points, and reports the per-layer metrics instead.

Every workload, several seeds, medians with quartiles, the traced
breakdown and the per-layer size table::

    python3 perfbench/run.py --workload all --runs 3

The load is a closed loop: one client connection from this process,
each request sent only after the previous answer arrived. Every process
is pinned to one CPU, and every timing is reported at nominal pace
(see :mod:`pace`), with the measured value beside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import pace  # noqa: E402

CHECKOUT = BENCH_DIR.parent
WORK_ROOT = CHECKOUT / ".perfbench_work"
DOC = "ward"
BOOK_COPY = "book"


@dataclass(frozen=True)
class Workload:
    """One workload and the reason it was chosen. ``BENCHMARK.json``
    gates the steadiest of them; ``--workload all`` runs every one."""

    name: str
    why: str
    stream: str  # "hospital" or "book"
    size: int
    tiny_size: int
    reads_per_write: int = 0
    probe_reads: int = 0
    """View reads between timed chunks, for workloads that only write."""
    warmup: int = 40
    """Untimed updates before anything is timed; they also set the WAL
    length that restarts replay and catch-ups ship."""
    catchups: int = 8
    """Catch-ups per run, spread evenly over the rounds: more where one
    costs little and varies much."""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "edit_small", "hospital(8): fixed per-request costs dominate (framing, JSON, "
            "event loop, fsync); O(document) fixes should leave it flat",
            "hospital", 8, 4, probe_reads=1000, warmup=100,
        ),
        Workload(
            "edit_large", "hospital(240): graphs, validate, script, term encode/parse and "
            "WAL bytes all grow with the document",
            "hospital", 240, 12, probe_reads=300, warmup=20,
        ),
        Workload(
            "read_write", "hospital(120), 4 view reads after every write: a write-path gain "
            "that moves cost onto reads shows; the middle of the size sweep",
            "hospital", 120, 8, reads_per_write=4,
        ),
        Workload(
            "sharded_huge", "huge_document(5000) sharded at depth 1: the only workload "
            "through repro.sharding, whose per-edit cost should not grow with the book",
            "book", 5_000, 400, probe_reads=160, warmup=10, catchups=16,
        ),
    )
}

ROUNDS = 8
"""Rounds per run: the timed loop is split into as many chunks, and each
phase (set-up, restart, catch-up) is repeated over them; every phase is
reported as the median of its repeats."""
SETUP_EVERY = 2
"""A set-up every second round (the run's own first one is round 0's)."""
ATTRIBUTION_UPDATES = 20
ATTRIBUTION_CHECKED = "edit_large"
"""The workload whose traced run fails unless the layers' self times
account for ``server.handler_ms`` within 10%."""
P95_MIN_SAMPLES = 200
STATIC_BOOK = (
    "not applicable: sharded_huge reads the static book copy in --root; "
    "shard_propagate edits only the shard store"
)

E2E_UNITS = {
    "update_p50_ms": "ms",
    "update_p95_ms": "ms",
    "updates_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "wire_bytes_per_update": "bytes",
    "wal_bytes_per_update": "bytes",
    "restart_s": "s",
    "catchup_s": "s",
    "setup_s": "s",
}

# per-layer metric -> (unit, the end-to-end metric it should move)
LAYER_METRICS = {
    "server.handler_ms": ("ms", "update_p50_ms on edit_small, read_p50_ms on read_write"),
    "server.wire_ms": ("ms", "update_p50_ms on edit_small, read_p50_ms on read_write"),
    "protocol.encode_ms": ("ms", "update_p50_ms on edit_small, read_p50_ms on read_write"),
    "protocol.decode_ms": ("ms", "update_p50_ms on edit_small, read_p50_ms on read_write"),
    "server.request_bytes": ("bytes", "wire_bytes_per_update on every workload"),
    "server.response_bytes": ("bytes", "wire_bytes_per_update on every workload"),
    "editing.parse_ms": ("ms", "update_p50_ms on edit_large; restart_s"),
    "editing.parse_calls": ("count", "update_p50_ms on edit_large; restart_s"),
    "editing.parsed_bytes": ("bytes", "update_p50_ms, wire_bytes_per_update on edit_large"),
    "editing.to_term_ms": ("ms", "update_p50_ms on edit_large"),
    "editing.to_term_calls": ("count", "update_p50_ms on edit_large"),
    "session.propagate_ms": ("ms", "update_p50_ms on edit_large"),
    "session.self_ms": ("ms", "update_p50_ms on edit_large"),
    "engine.validate_ms": ("ms", "update_p50_ms, update_p95_ms on edit_large"),
    "engine.graphs_ms": ("ms", "update_p50_ms, update_p95_ms on edit_large"),
    "engine.graphs_built": ("count", "update_p50_ms, update_p95_ms on edit_large"),
    "engine.script_ms": ("ms", "update_p50_ms, update_p95_ms on edit_large"),
    "store.journal_ms": ("ms", "update_p50_ms, wal_bytes_per_update on edit_large"),
    "store.wal_append_ms": ("ms", "update_p50_ms on edit_large"),
    "store.fsync_ms": ("ms", "update_p50_ms on edit_small"),
    "store.fsyncs": ("count", "update_p50_ms on edit_small"),
    "store.replay_ms_per_record": ("ms", "restart_s"),
    "replication.ship_ms_per_record": ("ms", "catchup_s on edit_large"),
    "replication.apply_ms_per_record": ("ms", "catchup_s on edit_large"),
    "replication.frame_bytes_per_record": ("bytes", "catchup_s on edit_large"),
    "xmltree.to_xml_ms": ("ms", "read_p50_ms on read_write"),
    "xmltree.view_bytes": ("bytes", "read_p50_ms on read_write"),
    "sharding.propagate_ms": ("ms", "update_p50_ms on sharded_huge"),
    "sharding.shards_touched": ("count", "update_p50_ms on sharded_huge"),
    "sharding.shard_session_ms": ("ms", "update_p50_ms on sharded_huge"),
    "registry.compile_ms": ("ms", "setup_s, restart_s"),
}

# spans whose self time makes up the per-layer size table
SELF_ROWS = (
    "protocol.decode", "server.handler", "editing.parse", "sharding.propagate",
    "session.propagate", "engine.validate", "engine.graphs", "engine.script",
    "session.advance", "store.journal", "store.wal_append", "store.fsync",
    "editing.to_term", "xmltree.to_xml", "protocol.encode",
)


def _require_program() -> None:
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        sys.exit("perfbench: no program under src/repro — run it from a full checkout")
    sys.path.insert(0, str(CHECKOUT / "src"))


def percentile(values: "list[float]", q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _git_sha() -> str:
    # the ceiling keeps git from looking for a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(CHECKOUT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True, text=True,
            timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_meta(seed: "int | None") -> dict:
    from served import FSYNC

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "fsync": FSYNC,
        "seed": seed,
        "load": "closed loop, 1 client connection, server in its own process",
    }


class Run:
    """One workload, one seed: the stream, the served stack, the samples."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, work: Path):
        import streams

        self.w = workload
        self.seed = seed
        self.work = work
        size = workload.tiny_size if tiny else workload.size
        if workload.stream == "hospital":
            self.stream = streams.HospitalStream(size, seed)
        else:
            self.stream = streams.BookStream(size, seed)
        self.sharded = workload.stream == "book"
        # sharded: each chapter's source as of the last acknowledged update
        self.book = self.stream.chapters() if self.sharded else None
        self.queue: "deque" = deque()
        # hospital: updates acknowledged since the last reconcile(), with
        # the scripts returned for them
        self.acknowledged: "list[tuple[str, str]]" = []
        self.referenced = 0
        self.mismatches = 0
        self.attempted = 0
        self.failed = 0
        self.errors: "list[str]" = []
        self.requests = 0
        # client-observed latencies as measured, and the same at nominal
        # pace (see pace.py), which the end-to-end metrics report
        self.update_lat: "list[float]" = []
        self.read_lat: "list[float]" = []
        self.update_paced: "list[float]" = []
        self.read_paced: "list[float]" = []
        # request time of every timed loop, for updates_per_s
        self.loop_measured = 0.0
        self.loop_paced = 0.0
        self.wire_bytes = 0
        self.final_view: "str | None" = None
        self.wal_mismatch = False
        self.store_root = work / "store"
        self.shard_root = work / "shards"
        self.server = None
        self.client = None

    # -- the served stack ------------------------------------------------

    def prepare(self, root: Path) -> None:
        """Store init and put (and sharded create) under *root*."""
        from repro.registry import EngineRegistry
        from repro.sharding import ShardedDocument
        from repro.store import DocumentStore

        w = self.stream.workload
        with DocumentStore.init(root / "store") as store:
            store.put(BOOK_COPY if self.sharded else DOC, w.source, w.dtd, w.annotation)
        if self.sharded:
            ShardedDocument.create(
                root / "shards", w.source, w.dtd, w.annotation, depth=1,
                registry=EngineRegistry(),
            ).close()

    def launch(self, root: Path, **options):
        """A server process on the stores under *root*, and a client."""
        from served import ServerProcess, WireClient

        args = ["--root", str(root / "store")]
        if self.sharded:
            args += ["--shard-root", str(root / "shards")]
        server = ServerProcess(args, self.work / "server.log", **options)
        try:
            return server, WireClient(server.host, server.port)
        except BaseException:
            server.stop()
            raise

    def start(self, **options) -> None:
        """The run's server, on the run's stores."""
        self.server, self.client = self.launch(self.work, **options)

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- requests --------------------------------------------------------

    def peek(self):
        if not self.queue:
            self.queue.extend(self.stream.next() for _ in range(8 if self.sharded else 32))
        return self.queue[0]

    def _call(self, request: dict, client=None):
        self.requests += 1
        self.attempted += 1
        response, seconds, sent, received = (client or self.client).call(request)
        if not response.get("ok"):
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{request['id']}: {response.get('error')}")
            return None, seconds, sent + received
        return response["result"], seconds, sent + received

    def send(self, update, kind: str, client=None):
        """Send *update*; returns ``(result, seconds, wire bytes)``."""
        request = {"id": f"{kind}{self.requests}", "update": update.term}
        if self.sharded:
            # splice=True: the handler's splice=False branch calls a
            # ShardedPropagation.stats() that does not exist
            request.update(op="shard_propagate", dirty=update.dirty, splice=True)
        else:
            request.update(op="propagate", doc=DOC)
        return self._call(request, client)

    def update(self, kind: str, *, timed: bool = False) -> None:
        """Send the stream's next update to the run's server."""
        update = self.peek()
        before = pace.probe() if timed else None
        result, seconds, wire = self.send(update, kind)
        self.queue.popleft()
        script = result["script"] if result else None
        if update.expected is not None:
            if result:
                self.mismatches += script != update.expected
                self.referenced += 1
            self.book[update.chapter[0]] = update.chapter[1]
        elif result:
            self.acknowledged.append((update.term, script))
        if timed:
            self.update_lat.append(seconds)
            self.update_paced.append(pace.around(seconds, before))
            self.wire_bytes += wire

    def read(self, kind: str, *, timed: bool = True) -> str:
        request = {"op": "view", "doc": BOOK_COPY if self.sharded else DOC,
                   "id": f"{kind}{self.requests}"}
        before = pace.probe() if timed else None
        result, seconds, _ = self._call(request)
        if timed:
            self.read_lat.append(seconds)
            self.read_paced.append(pace.around(seconds, before))
        return result["view"] if result else ""

    def timed_loop(self, seconds: float, kind: str = "t") -> None:
        """Closed loop for *seconds*, requests and their pace probes.
        Stream chunks are generated outside the timed intervals, and the
        objects alive before the loop are kept out of the collector's
        full passes, so that no long collection lands inside a request."""
        gc.collect()
        gc.freeze()
        updates, reads = len(self.update_lat), len(self.read_lat)
        busy = 0.0
        while busy < seconds:
            self.peek()
            start = time.perf_counter()
            self.update(kind, timed=True)
            for _ in range(self.w.reads_per_write):
                self.read("v")
            busy += time.perf_counter() - start
        self.loop_measured += sum(self.update_lat[updates:]) + sum(self.read_lat[reads:])
        self.loop_paced += sum(self.update_paced[updates:]) + sum(self.read_paced[reads:])

    def read_probe(self, reads: int) -> None:
        for _ in range(reads):
            self.read("p")

    def chunk(self, seconds: float, chunks: int) -> None:
        """One of *chunks* equal parts of a *seconds*-long timed loop,
        then its share of the probe reads and the reference checks."""
        self.timed_loop(seconds / chunks)
        self.read_probe(self.w.probe_reads // chunks)
        self.reconcile()

    def reconcile(self) -> None:
        """Compare each acknowledged hospital script with its reference."""
        for term, script in self.acknowledged:
            self.mismatches += script != self.stream.reference(term)
        self.referenced += len(self.acknowledged)
        self.acknowledged.clear()

    def served_loop(
        self, seconds: float, final_view: bool = False, **options
    ) -> "tuple[list[float], list[float]]":
        """A server started with *options* serves one untimed update (its
        session open and WAL replay), then *seconds* of timed chunks;
        returns their update latencies, as measured and paced."""
        self.start(**options)
        self.update("w")
        self.update_lat, self.update_paced = [], []
        for _ in range(ROUNDS):
            self.chunk(seconds, ROUNDS)
        if final_view:
            self.final_view = self.read("f", timed=False)
        self.stop()
        return list(self.update_lat), list(self.update_paced)

    def edited_store(self, root: Path) -> Path:
        """The store under *root* that the run's updates journal to: the
        shard store when sharded (the ``--root`` book copy is never edited)."""
        return root / ("shards" if self.sharded else "store")

    def wal_bytes(self) -> int:
        return sum(
            p.stat().st_size for p in (self.edited_store(self.work) / "docs").glob("*/wal.log")
        )

    # -- the repeated phases ---------------------------------------------

    def setup(self, root: Path, first) -> float:
        """Store init and put (or sharded create) under *root*, server
        start, and the stream's *first* update answered."""
        start = time.perf_counter()
        self.prepare(root)
        return time.perf_counter() - start + self.restart(root, first)

    def restart(self, root: Path, update) -> float:
        """A fresh server process on the stores under *root*: the time to
        the acknowledgement of *update* (compile plus WAL replay)."""
        begin = time.perf_counter()
        server, client = self.launch(root)
        try:
            self.send(update, "r", client)
            return time.perf_counter() - begin
        finally:
            client.close()
            server.stop()

    def catch_up(self, store_root: Path, on_start=None) -> float:
        """A fresh standby of *store_root*, caught up over TCP."""
        from served import catch_up

        standby = self.work / "standby"
        seconds, differing = catch_up(store_root, standby, on_start)
        shutil.rmtree(standby)
        if differing:
            self.errors.append(f"standby WAL differs for {differing[:3]}")
            self.wal_mismatch = True
        return seconds

    # -- correctness -----------------------------------------------------

    def check(self) -> "dict[str, tuple[bool, str]]":
        """Every correctness check; call after the last server stopped."""
        from repro.store import DocumentStore
        from repro.xmltree import tree_to_xml

        checks = {}
        w = self.stream.workload
        if self.sharded:
            expected = self.book
            with DocumentStore(self.shard_root) as store:
                layout = json.loads((self.shard_root / "sharding.json").read_text())
                loaded = {e["id"]: store.load(e["doc"]) for e in layout["shards"]}
            end_nodes = 1 + sum(tree.size for tree in loaded.values())
            checks["final_load_matches_reference"] = (
                loaded == expected, f"{len(loaded)} shard documents loaded"
            )
            checks["verify_sample"] = (
                self.stream.verified > 0, f"{self.stream.verified} chapter-local updates verified"
            )
            checks["final_view_matches"] = (None, STATIC_BOOK)
            checks["scripts_match_reference"] = (
                self.mismatches == 0,
                f"{self.referenced - self.mismatches}/{self.referenced} spliced scripts "
                "byte-identical",
            )
        else:
            self.reconcile()
            final, verified = self.stream.reference_source, self.stream.verified
            checks["scripts_match_reference"] = (
                self.mismatches == 0,
                f"{self.referenced - self.mismatches}/{self.referenced} scripts byte-identical",
            )
            with DocumentStore(self.store_root) as store:
                loaded = store.load(DOC)
            end_nodes = loaded.size
            checks["final_load_matches_reference"] = (loaded == final, "DocumentStore.load")
            checks["verify_sample"] = (verified > 0, f"{verified} sampled updates verified")
            checks["final_view_matches"] = (
                self.final_view == tree_to_xml(w.annotation.view(final)),
                "last view read vs reference view",
            )
        checks["standby_wal_identical"] = (
            not self.wal_mismatch, "byte-compared after every catch-up"
        )
        start_nodes = self.stream.start_nodes
        self.nodes = (start_nodes, end_nodes)
        checks["node_count_stationary"] = (
            abs(end_nodes - start_nodes) <= 0.05 * start_nodes,
            f"start {start_nodes}, end {end_nodes} nodes",
        )
        self.failed += self.mismatches
        return checks


def _work_dir(name: str) -> Path:
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def measure(workload: Workload, seed: int, seconds: float, tiny: bool = False) -> dict:
    """The untraced run: every end-to-end metric.

    The run's stores are set up and warmed, then copied ("frozen"). The
    ``ROUNDS`` rounds set up fresh stores (every ``SETUP_EVERY``-th
    round), restart a server on a fresh copy of the frozen stores, catch
    fresh standbys up from the frozen ``--root`` store (as many as the
    workload asks for, spread evenly), and serve one chunk of the timed
    loop on the run's server, followed by probe reads and the reference
    checks. The ``--root`` store is the one the updates
    journal to, except on ``sharded_huge``: there it holds the book copy
    that ``view`` reads come from, and a standby of the shard store
    (~140 documents, ~1000 fsyncs, its time at the disk's mercy) is
    caught up once, untimed, for the WAL check.
    Spreading every metric's samples over the whole run keeps one slow
    stretch of a shared machine from moving a median on its own; the
    frozen copy keeps WAL replay and catch-up at a fixed length whatever
    the loop's throughput.
    """
    work = _work_dir(workload.name)
    frozen, scratch = work / "frozen", work / "scratch"
    clock = _Laps()
    run = Run(workload, seed, tiny, work)

    def first_setup() -> float:
        begin = time.perf_counter()
        run.prepare(work)
        run.start()
        run.update("s")
        return time.perf_counter() - begin

    try:
        first = run.peek()
        clock.lap("generate")
        # every phase: (seconds as measured, seconds at nominal pace)
        setups = [pace.paced(first_setup)]
        for _ in range(workload.warmup - 1):
            run.update("w")
        for name in ("store", "shards") if run.sharded else ("store",):
            shutil.copytree(work / name, frozen / name)
        resume = run.peek()  # the next update, valid on the frozen stores
        clock.lap("setup_warmup")
        restarts, catchups = [], []
        wal_before = run.wal_bytes()
        # every timed phase starts after os.sync(), so that the writeback
        # of the copies and deletions before it does not land inside it
        for round_ in range(ROUNDS):
            if round_ and round_ % SETUP_EVERY == 0:
                os.sync()
                setups.append(pace.paced(lambda: run.setup(scratch, first)))
                shutil.rmtree(scratch)
            shutil.copytree(frozen, scratch)
            os.sync()
            restarts.append(pace.paced(lambda: run.restart(scratch, resume)))
            shutil.rmtree(scratch)
            for _ in range(workload.catchups // ROUNDS):
                os.sync()
                catchups.append(pace.paced(lambda: run.catch_up(frozen / "store")))
            os.sync()
            run.chunk(seconds, ROUNDS)
        wal_after = run.wal_bytes()
        if run.sharded:
            # untimed: the standby WAL check over every shard's log
            run.catch_up(frozen / "shards")
        clock.lap("rounds")
        if not run.sharded:
            run.final_view = run.read("f", timed=False)
        run.stop()
        checks = run.check()
        clock.lap("checks")
    finally:
        run.stop()
        shutil.rmtree(work, ignore_errors=True)
    n = len(run.update_paced)
    samples = {
        "update_p50_ms": n, "update_p95_ms": n, "updates_per_s": n,
        "read_p50_ms": len(run.read_lat), "read_p95_ms": len(run.read_lat),
        "wire_bytes_per_update": n, "wal_bytes_per_update": n,
        "restart_s": len(restarts), "catchup_s": len(catchups), "setup_s": len(setups),
    }
    phases = {"setup_s": setups, "restart_s": restarts, "catchup_s": catchups}

    def timings(update_lat, read_lat, busy, at) -> dict:
        return {
            "update_p50_ms": percentile(update_lat, 50) * 1e3,
            "update_p95_ms": percentile(update_lat, 95) * 1e3,
            "updates_per_s": n / busy,
            "read_p50_ms": percentile(read_lat, 50) * 1e3,
            "read_p95_ms": percentile(read_lat, 95) * 1e3,
            **{name: statistics.median(s[at] for s in runs) for name, runs in phases.items()},
        }

    values = {
        **timings(run.update_paced, run.read_paced, run.loop_paced, 1),
        "wire_bytes_per_update": run.wire_bytes / n,
        "wal_bytes_per_update": (wal_after - wal_before) / n,
    }
    measured = timings(run.update_lat, run.read_lat, run.loop_measured, 0)
    return _result(run, checks, values, samples, phases_s=clock.laps, measured=measured,
                   spreads={name: [s[1] for s in runs] for name, runs in phases.items()})


class _Laps:
    """Wall time per phase of a run, for the run's detail record."""

    def __init__(self) -> None:
        self.laps: "dict[str, float]" = {}
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.laps[name] = round(now - self._last, 3)
        self._last = now


def _result(run: Run, checks: dict, values: dict, samples: dict, **extra) -> dict:
    units = E2E_UNITS if not extra.get("traced") else {k: v[0] for k, v in LAYER_METRICS.items()}
    return {
        "workload": run.w.name,
        "meta": {**run_meta(run.seed), "nodes_start": run.nodes[0], "nodes_end": run.nodes[1]},
        "checks": {name: {"ok": ok, "detail": detail} for name, (ok, detail) in checks.items()},
        "errors": run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "samples": samples,
        **extra,
    }


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def _replication_timers(recorder) -> None:
    from repro.replication import StandbyStore, WalShipper, transport

    WalShipper.ship = recorder.wrap(WalShipper.ship, "replication.ship")
    StandbyStore.apply_frames = recorder.wrap(StandbyStore.apply_frames, "replication.apply")
    transport.encode_frame = recorder.wrap(
        transport.encode_frame,
        "replication.frame",
        # a bootstrap frame carries a whole snapshot: it counts as a record
        attrs=lambda r, a, k: {"records": 1, "bytes": len(r)} if a[0] != "checkpoint" else None,
    )


def _under(spans, index: int, name: str) -> bool:
    from spans import NAME, PARENT

    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans, update_lat, replication_spans) -> "tuple[dict, dict, dict]":
    """Per-layer metrics, self times per update, and the attribution of
    handler time, from the traced server's spans."""
    from spans import END, NAME, START, Totals

    updates = Totals(spans, lambda rid: isinstance(rid, str) and rid.startswith("t"))
    reads = Totals(spans, lambda rid: isinstance(rid, str) and rid[:1] in ("v", "p"))
    every = Totals(spans, lambda rid: True)
    n = max(1, updates.count["server.handler"])
    r = max(1, reads.count["xmltree.to_xml"])
    ms = 1e3
    handler = updates.total["server.handler"] * ms / n
    sharded = updates.count["sharding.propagate"] > 0
    replay_time = sum(
        s[END] - s[START]
        for i, s in enumerate(spans)
        if s[NAME] in ("editing.parse", "store.replay_apply") and _under(spans, i, "store.open_session")
    )
    replayed = every.count["store.replay_apply"]
    rep = Totals(replication_spans, lambda rid: True)
    records = max(1, rep.attrs["replication.frame"]["records"])
    values = {
        "server.handler_ms": handler,
        "server.wire_ms": statistics.fmean(update_lat) * ms - handler,
        "protocol.encode_ms": updates.total["protocol.encode"] * ms / n,
        "protocol.decode_ms": updates.total["protocol.decode"] * ms / n,
        "server.request_bytes": updates.attrs["protocol.decode"]["bytes"] / n,
        "server.response_bytes": updates.attrs["protocol.encode"]["bytes"] / n,
        "editing.parse_ms": updates.total["editing.parse"] * ms / n,
        "editing.parse_calls": updates.count["editing.parse"] / n,
        "editing.parsed_bytes": updates.attrs["editing.parse"]["bytes"] / n,
        "editing.to_term_ms": updates.total["editing.to_term"] * ms / n,
        "editing.to_term_calls": updates.count["editing.to_term"] / n,
        "session.propagate_ms": updates.total["session.propagate"] * ms / n,
        "session.self_ms": updates.self["session.propagate"] * ms / n,
        "engine.validate_ms": updates.total["engine.validate"] * ms / n,
        "engine.graphs_ms": updates.total["engine.graphs"] * ms / n,
        "engine.graphs_built": updates.attrs["engine.graphs"]["built"] / n,
        "engine.script_ms": updates.total["engine.script"] * ms / n,
        "store.journal_ms": updates.total["store.journal"] * ms / n,
        "store.wal_append_ms": updates.self["store.wal_append"] * ms / n,
        "store.fsync_ms": updates.total["store.fsync"] * ms / n,
        "store.fsyncs": updates.count["store.fsync"] / n,
        "store.replay_ms_per_record": replay_time * ms / max(1, replayed),
        "replication.ship_ms_per_record": rep.total["replication.ship"] * ms / records,
        "replication.apply_ms_per_record": rep.total["replication.apply"] * ms / records,
        "replication.frame_bytes_per_record": rep.attrs["replication.frame"]["bytes"] / records,
        "xmltree.to_xml_ms": reads.total["xmltree.to_xml"] * ms / r,
        "xmltree.view_bytes": reads.attrs["xmltree.to_xml"]["bytes"] / r,
        "sharding.propagate_ms": updates.total["sharding.propagate"] * ms / n,
        "sharding.shards_touched": updates.count["session.propagate"] / n if sharded else 0.0,
        "sharding.shard_session_ms": (
            (updates.total["session.propagate"] + updates.total["session.advance"]) * ms / n
            if sharded else 0.0
        ),
        "registry.compile_ms": every.total["registry.compile"] * ms,
    }
    self_ms = {name: updates.self[name] * ms / n for name in SELF_ROWS if name in updates.self}
    if reads.count["xmltree.to_xml"]:
        self_ms["xmltree.to_xml"] = reads.self["xmltree.to_xml"] * ms / r
    inside = sum(
        updates.self[name] for name in updates.self
        if name not in ("server.handler", "protocol.decode", "protocol.encode")
    )
    attribution = {
        "handler_ms": handler,
        "layers_ms": inside * ms / n,
        "share": inside / updates.total["server.handler"] if updates.total["server.handler"] else 0.0,
    }
    return values, self_ms, attribution


def compare_with_obs(spans, stage_sums: dict) -> "list[str]":
    """The benchmark's own graphs/script/validate/journal totals against
    ``repro.obs`` ``stage_seconds()`` over the same requests."""
    from spans import Totals

    mine = Totals(spans, lambda rid: True)
    lines = []
    for own, stage in (("engine.graphs", "graphs"), ("engine.script", "script"),
                       ("engine.validate", "validate"), ("store.journal", "session.journal")):
        a, b = mine.total[own], stage_sums.get(stage, 0.0)
        gap = abs(a - b) / b if b else float("inf")
        flag = "DISAGREE" if gap > 0.10 else "agree"
        lines.append(
            f"  {own:<18} {a * 1e3:9.2f} ms   repro.obs {stage:<16} {b * 1e3:9.2f} ms"
            f"   {gap:6.1%} {flag}"
        )
    return lines


def traced(workload: Workload, seed: int, seconds: float, tiny: bool = False) -> dict:
    """The traced run: every per-layer metric, plus the tracing overhead,
    the attribution check and the comparison with ``repro.obs``."""
    from served import scrape, stage_sums

    import spans as spanlib

    work = _work_dir(workload.name)
    run = Run(workload, seed, tiny, work)
    try:
        run.prepare(work)
        run.start()
        for _ in range(workload.warmup):
            run.update("w")
        run.stop()
        # the extra pass: the program's own tracer and the benchmark's
        # timers on the same requests
        run.start(spans=work / "obs.json", obs=True)
        for _ in range(ATTRIBUTION_UPDATES):
            run.update("a")
        sums = stage_sums(scrape(run.server.host, run.server.port))
        run.stop()
        obs_lines = compare_with_obs(spanlib.load(work / "obs.json"), sums)
        # untraced quarters before and after the traced loop, for the
        # overhead: the per-update cost drifts as the history grows
        untraced = run.served_loop(seconds / 4)[1]
        traced_lat, traced_paced = run.served_loop(seconds, spans=work / "spans.json")
        server_spans = spanlib.load(work / "spans.json")
        untraced += run.served_loop(seconds / 4, final_view=not run.sharded)[1]
        recorder = spanlib.Recorder()
        run.catch_up(run.edited_store(work), on_start=lambda: _replication_timers(recorder))
        checks = run.check()
    finally:
        run.stop()
        shutil.rmtree(work, ignore_errors=True)
    values, self_ms, attribution = layer_metrics(server_spans, traced_lat, recorder.spans)
    overhead = {
        "traced_p50_ms": percentile(traced_paced, 50) * 1e3,
        "untraced_p50_ms": percentile(untraced, 50) * 1e3,
    }
    overhead["overhead_ms"] = overhead["traced_p50_ms"] - overhead["untraced_p50_ms"]
    if workload.name == ATTRIBUTION_CHECKED:
        checks["attribution_within_10pct"] = (
            abs(attribution["share"] - 1) <= 0.10,
            f"layer self times are {attribution['share']:.1%} of server.handler_ms",
        )
    samples = {name: len(traced_lat) for name in LAYER_METRICS}
    return _result(
        run, checks, values, samples, traced=True, self_ms=self_ms,
        attribution=attribution, obs_comparison=obs_lines, tracing_overhead=overhead,
    )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def print_run(result: dict) -> None:
    meta = result["meta"]
    print(f"== {result['workload']}  seed {meta['seed']}  fsync={meta['fsync']}  "
          f"nodes {meta['nodes_start']} -> {meta['nodes_end']}")
    print(f"   git {meta['git_sha']}  python {meta['python']}  nproc {meta['nproc']}  "
          f"{meta['load']}")
    measured = result.get("measured", {})
    if measured:
        print("   timings at nominal pace (pace.py), as measured in brackets")
    for name, metric in result["metrics"].items():
        note = f"  [{measured[name]:.4f}]" if name in measured else ""
        if name == "update_p95_ms" and result["samples"][name] < P95_MIN_SAMPLES:
            note += f"  (fewer than {P95_MIN_SAMPLES} samples: under 10 beyond p95)"
        print(f"   {name:<36} {metric['value']:14.4f} {metric['unit']:<6} "
              f"n={result['samples'][name]}{note}")
    if result.get("traced"):
        over = result["tracing_overhead"]
        print(f"   tracing overhead: update_p50 {over['traced_p50_ms']:.3f} ms traced vs "
              f"{over['untraced_p50_ms']:.3f} ms untraced = {over['overhead_ms']:+.3f} ms")
        att = result["attribution"]
        print(f"   attribution: layer self times {att['layers_ms']:.3f} ms of server.handler_ms "
              f"{att['handler_ms']:.3f} ms ({att['share']:.1%})")
        print("   benchmark timers vs repro.obs stage_seconds() (extra traced pass):")
        for line in result["obs_comparison"]:
            print("   " + line)
    if "phases_s" in result:
        print("   phases (wall s): " + ", ".join(f"{k} {v}" for k, v in result["phases_s"].items()))
        print("   repeats (paced): " + ", ".join(
            f"{k} {[round(v, 4) for v in vs]}" for k, vs in result["spreads"].items()))
    error_rate = result["failed"] / max(1, result["attempted"])
    print(f"   error_rate {error_rate:.4f} ({result['failed']}/{result['attempted']} requests)")
    for name, check in result["checks"].items():
        state = {True: "ok", False: "FAILED", None: "n/a"}[check["ok"]]
        print(f"   check {name:<30} {state}  {check['detail']}")
    for error in result["errors"]:
        print(f"   error: {error}")


def passed(result: dict) -> bool:
    """No failed request and no failed check; a check that does not apply
    to the workload (``ok`` is None) neither passes nor fails."""
    return result["failed"] == 0 and all(
        c["ok"] is not False for c in result["checks"].values()
    )


def final_line(result: dict) -> str:
    correct = passed(result)
    return json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    fn = traced if args.trace else measure
    result = fn(workload, args.seed, args.seconds, args.tiny)
    print_run(result)
    print("perfbench-detail " + json.dumps(result))
    line = final_line(result)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


def _child(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv + (["--tiny"] if tiny else []), capture_output=True, text=True,
                          cwd=str(CHECKOUT))
    for line in proc.stdout.splitlines():
        if line.startswith("perfbench-detail "):
            return json.loads(line.split(" ", 1)[1])
    raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-2000:]}")


def run_all(args) -> int:
    """Every workload: ``--runs`` untraced seeds, then one traced run."""
    results, traces, ok = {}, {}, True
    for name in WORKLOADS:
        results[name] = [
            _child(name, args.seed + i, args.seconds, 0, args.tiny) for i in range(args.runs)
        ]
        traces[name] = _child(name, args.seed, args.seconds, 1, args.tiny)
        for result in (*results[name], traces[name]):
            print_run(result)
            ok &= passed(result)
    print(f"\n== summary: median [q1, q3] across {args.runs} runs per workload")
    meta = results[next(iter(WORKLOADS))][0]["meta"]
    print(f"   git {meta['git_sha']}  python {meta['python']}  nproc {meta['nproc']}  "
          f"fsync={meta['fsync']}  seeds {args.seed}..{args.seed + args.runs - 1}")
    for name, runs in results.items():
        m = runs[0]["meta"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"-- {name}: {WORKLOADS[name].why}")
        print(f"   nodes {m['nodes_start']} -> {m['nodes_end']}   error_rate "
              f"{failed / max(1, attempted):.4f} ({failed}/{attempted})")
        for metric, unit in E2E_UNITS.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            n = sum(r["samples"][metric] for r in runs)
            print(f"   {metric:<24} {q2:12.4f} [{q1:.4f}, {q3:.4f}] {unit:<6} n={n}")
        over = traces[name]["tracing_overhead"]
        print(f"   tracing overhead on update_p50_ms: {over['overhead_ms']:+.3f} ms")
    print("\n== per-layer self time, ms/update (traced runs)")
    sizes = {name: traces[name]["meta"]["nodes_start"] for name in traces}
    cols = ("edit_small", "read_write", "edit_large")
    print(f"   {'layer':<20}" + "".join(f"{c:>12}" for c in cols) + f"{'large/small':>13}"
          f"{'nodes ratio':>13}")
    rows = sorted({row for name in cols for row in traces[name]["self_ms"]})
    for row in rows:
        cells = [traces[c]["self_ms"].get(row, 0.0) for c in cols]
        ratio = cells[2] / cells[0] if cells[0] else float("inf")
        print(f"   {row:<20}" + "".join(f"{v:12.3f}" for v in cells) + f"{ratio:13.1f}"
              f"{sizes['edit_large'] / sizes['edit_small']:13.1f}")
    print("\n== per-layer metrics (traced), and the end-to-end metric each should move")
    for metric, (unit, moves) in LAYER_METRICS.items():
        cells = "  ".join(f"{traces[n]['metrics'][metric]['value']:10.3f}" for n in WORKLOADS)
        print(f"   {metric:<36} {unit:<6} {cells}   -> {moves}")
    print("   columns: " + ", ".join(WORKLOADS))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3, help="seeds per workload with 'all'")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny documents, for the benchmark's own self-test")
    args = parser.parse_args(argv)
    _require_program()
    pace.pin()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
