"""The asyncio serving front-end: one port, framed JSON plus HTTP.

:class:`ReproServer` fronts the whole stack — durable document
sessions from a :class:`~repro.store.DocumentStore`, bounded-staleness
reads from a :class:`~repro.replication.StandbyStore`, stateless
many-document batches through the engine registry, and a
:class:`~repro.sharding.ShardedDocument` — behind the framed protocol
of :mod:`repro.server.protocol`. The same port speaks just enough
HTTP/1.1 for observability: ``GET /metrics`` (Prometheus text),
``GET /healthz``, ``GET /stats`` (JSON), and the tracing surfaces
``GET /debug/traces`` (recent ring; ``?trace_id=`` looks one up) and
``GET /debug/slow`` (over-threshold traces); the first line of each
connection decides which protocol it is.

Concurrency model: the event loop only frames and dispatches.
Propagation is pure-Python CPU work and runs in executor threads, with
a per-document asyncio lock serialising each pinned session's stream
(sessions are not thread-safe and their caches advance with their
document); requests for different documents overlap freely.

Shutdown is a **drain**: stop accepting, let in-flight requests finish
and flush their responses, then close sessions (releasing write
leases), the sharded document, and the stores — in that order. The
``serve`` CLI wires SIGTERM/SIGINT to exactly this.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
from urllib.parse import parse_qs

from ..errors import ProtocolError, ServerError, UnknownDocumentError
from ..obs import Tracer, default_tracer
from ..obs.metrics import LATENCY_BUCKETS, Family, MetricsRegistry
from ..registry import EngineRegistry, default_registry
from . import handlers
from .protocol import read_message, write_message

__all__ = ["ReproServer"]

#: ``repro_traces_total{outcome=}`` values and the tracer stats they read.
TRACE_OUTCOMES = (
    ("started", "started"), ("kept", "kept"), ("dropped", "dropped"),
    ("error", "errors"), ("slow", "slow"),
)


class ReproServer:
    """The serving front-end over a store, standbys, and/or shards.

    All three roots are optional — a server may be a pure primary, a
    read replica, a shard front, or any combination; endpoints that
    need a missing root answer with a typed
    :class:`~repro.errors.ServerError` payload.

    ``standby_root`` accepts one root or a list of them: with several
    followed standbys registered, ``view`` reads go to the *freshest*
    replica that honours the request's ``max_lag`` budget (unmeasurable
    lag sorts last and still fails closed; the primary remains the
    final fallback).
    """

    def __init__(
        self,
        *,
        store_root=None,
        standby_root=None,
        shard_root=None,
        host: str = "127.0.0.1",
        port: int = 0,
        fsync: "str | None" = None,
        max_lag: "int | None" = None,
        registry: "EngineRegistry | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self._store_root = store_root
        if standby_root is None:
            self._standby_roots: list = []
        elif isinstance(standby_root, (list, tuple)):
            self._standby_roots = list(standby_root)
        else:
            self._standby_roots = [standby_root]
        self._shard_root = shard_root
        self.host = host
        self.port = port
        self._fsync = fsync
        self.max_lag = max_lag
        self.registry = registry if registry is not None else default_registry()
        self.tracer = tracer if tracer is not None else default_tracer()
        self._shippers: list = []
        self._store = None
        self._standbys: "list | None" = None
        self._shard = None
        self._sessions: dict = {}
        self._replicas: dict = {}  # (standby index, doc_id) -> ReplicaSession
        self._locks: dict = {}
        self._open_lock = threading.Lock()
        self._server: "asyncio.base_events.Server | None" = None
        self._inflight = 0
        self._idle = None  # asyncio.Event set whenever _inflight == 0
        self._draining = False
        self._drained = None  # asyncio.Event set once drain completed
        self._conn_tasks: "set[asyncio.Task]" = set()
        self.drain_log: "list[str]" = []
        self.metrics = self._declare_metrics()

    # ------------------------------------------------------------------
    # Backing resources (opened lazily, closed by drain)
    # ------------------------------------------------------------------

    @property
    def has_primary(self) -> bool:
        return self._store_root is not None

    @property
    def draining(self) -> bool:
        return self._draining

    def store(self):
        if self._store_root is None:
            raise ServerError("this server has no primary store configured")
        with self._open_lock:
            if self._store is None:
                from ..store import DocumentStore

                self._store = DocumentStore(
                    self._store_root,
                    fsync=self._fsync or "always",
                    registry=self.registry,
                )
            return self._store

    def standbys(self) -> list:
        """Every configured standby store, opened lazily, in the order
        their roots were registered."""
        if not self._standby_roots:
            return []
        with self._open_lock:
            if self._standbys is None:
                from ..replication import StandbyStore

                self._standbys = [
                    StandbyStore(root) for root in self._standby_roots
                ]
            return self._standbys

    def shard(self):
        if self._shard_root is None:
            raise ServerError("this server has no sharded document configured")
        with self._open_lock:
            if self._shard is None:
                from ..sharding import ShardedDocument

                self._shard = ShardedDocument.open(
                    self._shard_root,
                    registry=self.registry,
                    fsync=self._fsync or "always",
                )
            return self._shard

    def session(self, doc_id: str):
        """The document's pinned durable session (opened once, reused
        for every request; the open acquires the write lease)."""
        store = self.store()
        with self._open_lock:
            session = self._sessions.get(doc_id)
            if session is None:
                session = store.open_session(doc_id, fsync=self._fsync)
                self._sessions[doc_id] = session
            return session

    def replicas(self, doc_id: str) -> list:
        """The document's replica sessions as ``(standby_index,
        session)`` pairs, one per configured standby that carries it, in
        registration order — the index names the standby root as
        configured, so routing answers stay meaningful even when some
        standbys never bootstrapped the document.

        Empty when no standby has the document and a primary exists to
        serve it; a replica-only server with *no* standby carrying the
        document raises :class:`~repro.errors.UnknownDocumentError`
        instead — there is nowhere to serve it from.
        """
        stores = self.standbys()
        if not stores:
            return []
        sessions = []
        missing: "Exception | None" = None
        with self._open_lock:
            for index, standby in enumerate(stores):
                replica = self._replicas.get((index, doc_id))
                if replica is None:
                    try:
                        replica = standby.replica_session(doc_id)
                    except UnknownDocumentError as error:
                        missing = error
                        continue
                    self._replicas[(index, doc_id)] = replica
                sessions.append((index, replica))
        if not sessions and not self.has_primary and missing is not None:
            raise missing
        return sessions

    def doc_lock(self, doc_id: str) -> "asyncio.Lock":
        lock = self._locks.get(doc_id)
        if lock is None:
            lock = self._locks.setdefault(doc_id, asyncio.Lock())
        return lock

    async def run_blocking(self, fn, *args):
        # run_in_executor does NOT propagate contextvars — carry the
        # request's ambient trace context into the worker thread, or
        # every span opened there would start a trace of its own
        loop = asyncio.get_running_loop()
        ctx = contextvars.copy_context()
        return await loop.run_in_executor(None, lambda: ctx.run(fn, *args))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _declare_metrics(self) -> MetricsRegistry:
        """Every ``/metrics`` family, once, in exposition order.

        The server holds its own request, error, latency, view-read,
        parse-path and replica-fallback series; every other family is
        collected at scrape time from the object that owns the number,
        read by field name with no default, so a renamed field fails the
        metrics tests instead of exporting 0.
        """
        self.latency_seconds = Family(
            "repro_server_latency_seconds",
            "Request latency histogram per endpoint (stable buckets).",
            "histogram", "endpoint", buckets=LATENCY_BUCKETS,
        )
        self.errors_total = Family(
            "repro_server_errors_total", "Failed requests per endpoint and error code.",
            "counter", "endpoint", "code",
        )
        self.view_reads_total = Family(
            "repro_view_reads_total",
            "View reads served, by render path (cached: the view version's "
            "XML was rendered by an earlier read).",
            "counter", "render",
        )
        self.propagate_requests_total = Family(
            "repro_propagate_requests_total",
            "Propagate requests by parse path (sparse: only the edited region "
            "parsed against the view; full: the whole term parsed).",
            "counter", "parse",
        )
        self.replica_fallbacks_total = Family(
            "repro_replica_fallbacks_total",
            "Bounded reads no replica could honour (lag over budget or "
            "unmeasurable), served by the primary instead.",
            "counter", "doc",
        )
        for render in ("cached", "rendered"):
            self.view_reads_total.inc(render, by=0)
        for parse in ("sparse", "full"):
            self.propagate_requests_total.inc(parse, by=0)
        latency = self.latency_seconds.samples

        def one(name, help, kind, read):
            return Family(name, help, kind, collect=lambda: [((), read())])

        def per_endpoint(name, help, kind, read):
            return Family(
                name, help, kind, "endpoint",
                collect=lambda: [(key, read(series)) for key, series in latency()],
            )

        def per_doc(name, help, kind, read):
            return Family(name, help, kind, "doc", collect=lambda: [
                ((doc_id,), read(session.stats))
                for doc_id, session in sorted(self._sessions.items())
            ])

        def per_replica(name, help, kind, read):
            # a value of None (a lag with no reachable primary) is left
            # out, not exported as 0: absence is the honest value
            return Family(name, help, kind, "doc", collect=lambda: [
                ((label,), value)
                for label, replica in self._labelled_replicas()
                if (value := read(replica)) is not None
            ])

        def shard(name, help, kind, *labels, read):
            return Family(name, help, kind, *labels, collect=lambda: (
                read(self._shard.stats_payload()) if self._shard is not None else ()
            ))

        def per_shard(field):
            return lambda payload: [
                ((shard_id,), stats[field])
                for shard_id, stats in sorted(payload["per_shard"].items())
            ]

        def engines():
            for (schema_hash, _), engine in self.registry.cached_engines():
                for counter, value in engine.stats.as_dict().items():
                    yield (schema_hash[:12], counter), value

        def shipped_lag():
            for shipper in list(self._shippers):
                for doc_id, lag in sorted(shipper.lag().items()):
                    yield (shipper.label, doc_id), lag

        def traces():
            stats = self.tracer.stats_payload()
            return [((outcome,), stats[key]) for outcome, key in TRACE_OUTCOMES]

        return MetricsRegistry(
            one(
                "repro_server_inflight_requests", "Requests currently being served.",
                "gauge", lambda: self._inflight,
            ),
            one(
                "repro_server_draining", "Whether the server is draining for shutdown.",
                "gauge", lambda: self._draining,
            ),
            per_endpoint(
                "repro_server_requests_total", "Requests served per endpoint.",
                "counter", lambda series: series.count,
            ),
            self.errors_total,
            per_endpoint(
                "repro_server_request_seconds", "Request latency per endpoint.",
                "summary", lambda series: series,
            ),
            self.latency_seconds,
            per_endpoint(
                "repro_server_request_seconds_max", "Slowest request per endpoint.",
                "gauge", lambda series: series.max,
            ),
            self.view_reads_total,
            self.propagate_requests_total,
            one(
                "repro_registry_hits_total", "Engine cache hits.",
                "counter", lambda: self.registry.stats.hits,
            ),
            one(
                "repro_registry_misses_total", "Engine cache misses (compiles).",
                "counter", lambda: self.registry.stats.misses,
            ),
            one(
                "repro_registry_evictions_total", "Engines evicted from the LRU.",
                "counter", lambda: self.registry.stats.evictions,
            ),
            one(
                "repro_registry_hit_rate", "Engine cache hit rate.",
                "gauge", lambda: self.registry.stats.hit_rate,
            ),
            Family(
                "repro_engine_counter", "EngineStats counters per compiled engine.",
                "counter", "schema", "counter", collect=engines,
            ),
            per_doc(
                "repro_wal_appends_total", "Records appended to the document's WAL.",
                "counter", lambda stats: stats["wal_appends"],
            ),
            per_doc(
                "repro_wal_syncs_total", "fsync batches issued for the document's WAL.",
                "counter", lambda stats: stats["wal_syncs"],
            ),
            per_doc(
                "repro_wal_pending_records", "Appended records not yet fsynced.",
                "gauge", lambda stats: stats["wal_pending"],
            ),
            per_doc(
                "repro_wal_last_seq", "The document's last journalled sequence number.",
                "gauge", lambda stats: stats["last_seq"],
            ),
            per_doc(
                "repro_session_propagations_total", "Updates served by the pinned session.",
                "counter", lambda stats: stats["session"]["updates_served"],
            ),
            per_replica(
                "repro_replica_applied_seq", "Records this replica session has applied.",
                "gauge", lambda replica: replica.applied_seq,
            ),
            per_replica(
                "repro_replica_lag", "Records the replica is behind the primary.",
                "gauge", lambda replica: replica.lag(),
            ),
            per_replica(
                "repro_replica_refreshes_total", "Refresh passes run by the replica session.",
                "counter", lambda replica: replica.stats["refreshes"],
            ),
            self.replica_fallbacks_total,
            shard(
                "repro_shard_edits_total", "Routed edits by path (fast/boundary/identity).",
                "counter", "path",
                read=lambda payload: [((path,), n) for path, n in sorted(payload["edits"].items())],
            ),
            shard(
                "repro_shard_requests_total",
                "Term-text requests by parse path (local: only the changed shard "
                "parsed; full: the whole update).",
                "counter", "parse",
                read=lambda payload: [((p,), n) for p, n in sorted(payload["parse"].items())],
            ),
            shard(
                "repro_shard_count", "Shards the router currently serves.",
                "gauge", read=lambda payload: [((), payload["shards"])],
            ),
            shard(
                "repro_shard_wal_appends_total", "WAL appends per shard.",
                "counter", "shard", read=per_shard("wal_appends"),
            ),
            shard(
                "repro_shard_last_seq", "Last journalled sequence per shard.",
                "gauge", "shard", read=per_shard("last_seq"),
            ),
            Family(
                "repro_shipper_lag", "Primary WAL records not yet shipped to the standby.",
                "gauge", "standby", "doc", collect=shipped_lag,
            ),
            Family(
                "repro_shipper_records_total", "WAL records shipped to the standby.",
                "counter", "standby", collect=lambda: [
                    ((shipper.label,), shipper.stats["records_shipped"])
                    for shipper in list(self._shippers)
                ],
            ),
            Family(
                "repro_follower_connected",
                "Whether the follow daemon's live feed to the standby is up.",
                "gauge", "standby", collect=lambda: [
                    ((shipper.label,), shipper.connected)
                    for shipper in list(self._shippers)
                    if shipper.connected is not None
                ],
            ),
            one(
                "repro_tracing_enabled", "Whether request tracing is on.",
                "gauge", lambda: self.tracer.enabled,
            ),
            Family(
                "repro_traces_total", "Traces by retention outcome.",
                "counter", "outcome", collect=traces,
            ),
            one(
                "repro_trace_slow_log_size", "Over-threshold traces currently buffered.",
                "gauge", lambda: self.tracer.stats_payload()["slow_log_size"],
            ),
            self.tracer.stages,
        )

    def _labelled_replicas(self) -> list:
        """``(doc label, replica session)`` pairs, by label: a single
        standby keeps the bare doc label (dashboard compat), several get
        ``doc@index`` so per-standby series stay distinct."""
        single = len(self._standby_roots) <= 1
        return sorted(
            (
                ((doc_id if single else f"{doc_id}@{index}"), replica)
                for (index, doc_id), replica in list(self._replicas.items())
            ),
            key=lambda pair: pair[0],
        )

    def attach_shipper(self, shipper) -> None:
        """Register a :class:`~repro.replication.WalShipper` so its
        per-standby shipped-lag shows up in ``/metrics`` and ``/stats``."""
        self._shippers.append(shipper)

    def detach_shipper(self, shipper) -> None:
        """Forget an attached shipper (a followed standby's link died
        and will come back as a fresh registration)."""
        try:
            self._shippers.remove(shipper)
        except ValueError:
            pass

    def stats_payload(self) -> dict:
        """Everything the server knows, as one JSON object."""
        latency = self.latency_seconds.samples()
        payload = {
            "server": {
                "host": self.host,
                "port": self.port,
                "inflight": self._inflight,
                "draining": self._draining,
                "endpoints": {
                    "requests": {endpoint: h.count for (endpoint,), h in latency},
                    "errors": {
                        f"{endpoint}:{code}": count
                        for (endpoint, code), count in self.errors_total.samples()
                    },
                    "latency_seconds_sum": {endpoint: h.sum for (endpoint,), h in latency},
                    "latency_seconds_max": {endpoint: h.max for (endpoint,), h in latency},
                },
                "replica_fallbacks": {
                    doc_id: count
                    for (doc_id,), count in self.replica_fallbacks_total.samples()
                },
                "view_reads": {
                    render: count for (render,), count in self.view_reads_total.samples()
                },
                "propagate_parse": {
                    parse: count
                    for (parse,), count in self.propagate_requests_total.samples()
                },
            },
            "registry": self.registry.stats_payload(),
            "documents": {
                doc_id: session.stats for doc_id, session in list(self._sessions.items())
            },
            "replicas": {label: replica.stats for label, replica in self._labelled_replicas()},
            "tracing": self.tracer.stats_payload(),
        }
        if self._shippers:
            payload["shippers"] = [shipper.stats for shipper in self._shippers]
        if self._shard is not None:
            payload["shard"] = self._shard.stats_payload()
        return payload

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "tuple[str, int]":
        """Bind and start accepting; returns ``(host, port)`` (the port
        resolved when 0 was requested)."""
        if self._server is not None:
            raise ServerError("server already started")
        self._idle = asyncio.Event()
        self._idle.set()
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Serve until :meth:`drain` completes (idempotent to cancel)."""
        if self._server is None:
            await self.start()
        await self._drained.wait()

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, then release
        everything — the SIGTERM path.

        Ordering is the contract: (1) stop accepting and refuse new
        requests, (2) wait for in-flight requests to finish and their
        responses to flush, (3) close pinned sessions — leases release
        here — and the sharded document, (4) close the stores.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self.drain_log.append("refusing_new_requests")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        self.drain_log.append("requests_drained")
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self.run_blocking(self._close_backends)
        self.drain_log.append("stores_closed")
        self._drained.set()

    def _close_backends(self) -> None:
        with self._open_lock:
            for session in self._sessions.values():
                session.close()
            self._sessions.clear()
            self.drain_log.append("sessions_closed")
            if self._shard is not None:
                self._shard.close()
                self._shard = None
                self.drain_log.append("shard_closed")
            self._replicas.clear()
            if self._store is not None:
                self._store.close()
                self._store = None
            if self._standbys is not None:
                for standby in self._standbys:
                    standby.close()
                self._standbys = None

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.drain()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            try:
                first = await reader.readuntil(b"\n")
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if first[:2] == b"M ":
                await self._serve_framed(reader, writer, first)
            else:
                await self._serve_http(reader, writer, first)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    def _begin_request(self) -> None:
        self._inflight += 1
        self._idle.clear()

    def _end_request(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    async def _serve_framed(self, reader, writer, first_header: bytes) -> None:
        header: "bytes | None" = first_header
        while True:
            try:
                request = await read_message(reader, header=header)
            except ProtocolError as error:
                # interior damage: answer once, then drop the connection
                # — resynchronising a corrupt stream by guesswork would
                # serve someone else's bytes as a request
                from ..errors import error_payload

                await write_message(
                    writer, {"ok": False, "error": error_payload(error)}
                )
                return
            header = None
            if request is None:
                return
            self._begin_request()
            try:
                response = await handlers.handle(self, request)
                await write_message(writer, response)
            finally:
                self._end_request()

    async def _serve_http(self, reader, writer, first_line: bytes) -> None:
        """Just enough HTTP/1.1 for scrapes: GET, close after answering."""
        try:
            parts = first_line.decode("latin-1").split()
            method, path = parts[0], parts[1]
        except (UnicodeDecodeError, IndexError):
            writer.write(b"HTTP/1.1 400 Bad Request\r\ncontent-length: 0\r\n\r\n")
            await writer.drain()
            return
        while True:  # drain request headers
            try:
                line = await reader.readuntil(b"\n")
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if line in (b"\r\n", b"\n"):
                break
        self._begin_request()
        try:
            status, content_type, body = self._http_answer(method, path)
        finally:
            self._end_request()
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status}\r\n"
            f"content-type: {content_type}\r\n"
            f"content-length: {len(payload)}\r\n"
            "connection: close\r\n\r\n"
        ).encode("ascii")
        writer.write(head + payload)
        await writer.drain()

    def _http_answer(self, method: str, path: str) -> "tuple[str, str, str]":
        if method != "GET":
            return "405 Method Not Allowed", "text/plain", "GET only\n"
        path, _, query_string = path.partition("?")
        query = parse_qs(query_string)
        if path == "/metrics":
            return (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                self.metrics.render(),
            )
        if path == "/healthz":
            status = "draining" if self._draining else "ok"
            return "200 OK", "text/plain", status + "\n"
        if path == "/stats":
            return (
                "200 OK",
                "application/json",
                json.dumps(self.stats_payload(), sort_keys=True, default=str) + "\n",
            )
        if path == "/debug/traces":
            return "200 OK", "application/json", self._debug_traces(query)
        if path == "/debug/slow":
            return "200 OK", "application/json", self._debug_slow(query)
        return "404 Not Found", "text/plain", f"no route {path}\n"

    @staticmethod
    def _query_limit(query: dict) -> "int | None":
        raw = query.get("limit", [None])[0]
        try:
            return max(1, int(raw)) if raw is not None else None
        except ValueError:
            return None

    def _debug_traces(self, query: dict) -> str:
        """The recent-trace ring as JSON; ``?trace_id=`` looks one up."""
        trace_id = query.get("trace_id", [None])[0]
        if trace_id:
            record = self.tracer.find(trace_id)
            payload = {
                "trace": record,
                "found": record is not None,
                "tracing": self.tracer.stats_payload(),
            }
        else:
            payload = {
                "traces": self.tracer.recent(self._query_limit(query)),
                "tracing": self.tracer.stats_payload(),
            }
        return json.dumps(payload, sort_keys=True, default=str) + "\n"

    def _debug_slow(self, query: dict) -> str:
        """Over-threshold traces, full span trees, newest first."""
        payload = {
            "slow": self.tracer.slow(self._query_limit(query)),
            "threshold_ms": self.tracer.slow_threshold * 1000.0,
            "tracing": self.tracer.stats_payload(),
        }
        return json.dumps(payload, sort_keys=True, default=str) + "\n"
