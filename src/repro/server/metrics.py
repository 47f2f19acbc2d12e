"""Prometheus-text metrics for the serving front-end.

No client library and no background collection: the stack already
counts everything worth exporting — :class:`~repro.engine.EngineStats`
counters per compiled engine, registry hit rates, per-document WAL
append/fsync counts, replication lag, per-shard router counters — and
this module renders those live numbers into the Prometheus text
exposition format at scrape time. The server adds its own per-endpoint
request, error, and latency counters (:class:`EndpointMetrics`).

All counters reset with the process, which is exactly the Prometheus
counter contract (``rate()`` handles restarts).
"""

from __future__ import annotations

import bisect
import threading

__all__ = ["EndpointMetrics", "LATENCY_BUCKETS", "render_metrics"]

#: Fixed histogram bucket upper bounds (seconds) for
#: ``repro_server_latency_seconds``. Stable across releases by contract:
#: dashboards and alerts key on ``le`` values, so changing them is a
#: breaking change. Spans 1 ms (memo-hit serving) to 5 s (huge-document
#: boundary splits); everything slower lands in ``+Inf``.
LATENCY_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


def _escape(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(**labels) -> str:
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}" if inner else ""


class EndpointMetrics:
    """Per-endpoint request/error/latency counters.

    Thread-safe: handlers run on the event loop but blocking work is
    pushed to executor threads, and the scrape path reads whatever is
    current without stopping the world.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests: "dict[str, int]" = {}
        self._errors: "dict[tuple[str, str], int]" = {}
        self._latency_sum: "dict[str, float]" = {}
        self._latency_count: "dict[str, int]" = {}
        self._latency_max: "dict[str, float]" = {}
        # one count per LATENCY_BUCKETS entry plus +Inf, non-cumulative;
        # the render path cumsums into the Prometheus `le` convention
        self._latency_buckets: "dict[str, list[int]]" = {}

    def observe(
        self, endpoint: str, seconds: float, error_code: "str | None" = None
    ) -> None:
        """Record one served request (latency always; the error code
        only when the request failed)."""
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1
            self._latency_sum[endpoint] = (
                self._latency_sum.get(endpoint, 0.0) + seconds
            )
            self._latency_count[endpoint] = (
                self._latency_count.get(endpoint, 0) + 1
            )
            if seconds > self._latency_max.get(endpoint, 0.0):
                self._latency_max[endpoint] = seconds
            buckets = self._latency_buckets.get(endpoint)
            if buckets is None:
                buckets = self._latency_buckets[endpoint] = [0] * (
                    len(LATENCY_BUCKETS) + 1
                )
            buckets[bisect.bisect_left(LATENCY_BUCKETS, seconds)] += 1
            if error_code is not None:
                key = (endpoint, error_code)
                self._errors[key] = self._errors.get(key, 0) + 1

    def snapshot(self) -> dict:
        """A consistent copy of every counter (for ``stats`` payloads)."""
        with self._lock:
            return {
                "requests": dict(self._requests),
                "errors": {
                    f"{endpoint}:{code}": count
                    for (endpoint, code), count in self._errors.items()
                },
                "latency_seconds_sum": dict(self._latency_sum),
                "latency_seconds_max": dict(self._latency_max),
            }

    def render(self) -> "list[str]":
        """The per-endpoint metric lines."""
        with self._lock:
            lines = [
                "# HELP repro_server_requests_total Requests served per endpoint.",
                "# TYPE repro_server_requests_total counter",
            ]
            for endpoint in sorted(self._requests):
                lines.append(
                    f"repro_server_requests_total{_labels(endpoint=endpoint)} "
                    f"{self._requests[endpoint]}"
                )
            lines += [
                "# HELP repro_server_errors_total Failed requests per endpoint and error code.",
                "# TYPE repro_server_errors_total counter",
            ]
            for endpoint, code in sorted(self._errors):
                lines.append(
                    "repro_server_errors_total"
                    f"{_labels(endpoint=endpoint, code=code)} "
                    f"{self._errors[(endpoint, code)]}"
                )
            lines += [
                "# HELP repro_server_request_seconds Request latency per endpoint.",
                "# TYPE repro_server_request_seconds summary",
            ]
            for endpoint in sorted(self._latency_count):
                labels = _labels(endpoint=endpoint)
                lines.append(
                    f"repro_server_request_seconds_sum{labels} "
                    f"{self._latency_sum[endpoint]:.9f}"
                )
                lines.append(
                    f"repro_server_request_seconds_count{labels} "
                    f"{self._latency_count[endpoint]}"
                )
            lines += [
                "# HELP repro_server_latency_seconds Request latency histogram per endpoint (stable buckets).",
                "# TYPE repro_server_latency_seconds histogram",
            ]
            for endpoint in sorted(self._latency_buckets):
                cumulative = 0
                for bound, count in zip(
                    LATENCY_BUCKETS, self._latency_buckets[endpoint]
                ):
                    cumulative += count
                    lines.append(
                        "repro_server_latency_seconds_bucket"
                        f'{_labels(endpoint=endpoint, le=repr(bound))} '
                        f"{cumulative}"
                    )
                cumulative += self._latency_buckets[endpoint][-1]
                lines.append(
                    "repro_server_latency_seconds_bucket"
                    f'{_labels(endpoint=endpoint, le="+Inf")} {cumulative}'
                )
                labels = _labels(endpoint=endpoint)
                lines.append(
                    f"repro_server_latency_seconds_sum{labels} "
                    f"{self._latency_sum.get(endpoint, 0.0):.9f}"
                )
                lines.append(
                    f"repro_server_latency_seconds_count{labels} {cumulative}"
                )
            lines += [
                "# HELP repro_server_request_seconds_max Slowest request per endpoint.",
                "# TYPE repro_server_request_seconds_max gauge",
            ]
            for endpoint in sorted(self._latency_max):
                lines.append(
                    f"repro_server_request_seconds_max{_labels(endpoint=endpoint)} "
                    f"{self._latency_max[endpoint]:.9f}"
                )
            return lines


def _view_read_lines(view_reads: "dict[str, int] | None") -> "list[str]":
    """Served view reads by render path (ReproServer.view_reads)."""
    if view_reads is None:
        return []
    lines = [
        "# HELP repro_view_reads_total View reads served, by render path "
        "(cached: the view version's XML was rendered by an earlier read).",
        "# TYPE repro_view_reads_total counter",
    ]
    for render in sorted(view_reads):
        lines.append(
            f"repro_view_reads_total{_labels(render=render)} {view_reads[render]}"
        )
    return lines


def _propagate_parse_lines(counts: "dict[str, int] | None") -> "list[str]":
    """Unsharded propagate requests by parse path
    (ReproServer.propagate_parse)."""
    if counts is None:
        return []
    lines = [
        "# HELP repro_propagate_requests_total Propagate requests by parse path "
        "(sparse: only the edited region parsed against the view; full: "
        "the whole term parsed).",
        "# TYPE repro_propagate_requests_total counter",
    ]
    for parse in sorted(counts):
        lines.append(
            f"repro_propagate_requests_total{_labels(parse=parse)} {counts[parse]}"
        )
    return lines


def _registry_lines(registry_payload: dict) -> "list[str]":
    """Engine-registry and per-engine EngineStats counters."""
    stats = registry_payload.get("registry", {})
    lines = [
        "# HELP repro_registry_hits_total Engine cache hits.",
        "# TYPE repro_registry_hits_total counter",
        f"repro_registry_hits_total {stats.get('hits', 0)}",
        "# HELP repro_registry_misses_total Engine cache misses (compiles).",
        "# TYPE repro_registry_misses_total counter",
        f"repro_registry_misses_total {stats.get('misses', 0)}",
        "# HELP repro_registry_evictions_total Engines evicted from the LRU.",
        "# TYPE repro_registry_evictions_total counter",
        f"repro_registry_evictions_total {stats.get('evictions', 0)}",
        "# HELP repro_registry_hit_rate Engine cache hit rate.",
        "# TYPE repro_registry_hit_rate gauge",
        f"repro_registry_hit_rate {stats.get('hit_rate', 0.0):.6f}",
    ]
    engines = registry_payload.get("engines", [])
    if engines:
        lines += [
            "# HELP repro_engine_counter EngineStats counters per compiled engine.",
            "# TYPE repro_engine_counter counter",
        ]
        for engine in engines:
            schema = str(engine.get("schema_hash", ""))[:12]
            for counter in (
                "views",
                "validations",
                "inversions",
                "propagations",
                "memo_hits",
                "memo_misses",
                "memo_evictions",
                "memo_bypass",
            ):
                lines.append(
                    "repro_engine_counter"
                    f"{_labels(schema=schema, counter=counter)} "
                    f"{engine.get(counter, 0)}"
                )
    return lines


def _document_lines(documents: "dict[str, dict]") -> "list[str]":
    """Per-document WAL and session counters (DurableSession.stats)."""
    if not documents:
        return []
    lines = [
        "# HELP repro_wal_appends_total Records appended to the document's WAL.",
        "# TYPE repro_wal_appends_total counter",
        "# HELP repro_wal_syncs_total fsync batches issued for the document's WAL.",
        "# TYPE repro_wal_syncs_total counter",
        "# HELP repro_wal_pending_records Appended records not yet fsynced.",
        "# TYPE repro_wal_pending_records gauge",
        "# HELP repro_wal_last_seq The document's last journalled sequence number.",
        "# TYPE repro_wal_last_seq gauge",
        "# HELP repro_session_propagations_total Updates served by the pinned session.",
        "# TYPE repro_session_propagations_total counter",
    ]
    for doc_id in sorted(documents):
        stats = documents[doc_id]
        labels = _labels(doc=doc_id)
        lines.append(f"repro_wal_appends_total{labels} {stats.get('wal_appends', 0)}")
        lines.append(f"repro_wal_syncs_total{labels} {stats.get('wal_syncs', 0)}")
        lines.append(f"repro_wal_pending_records{labels} {stats.get('wal_pending', 0)}")
        lines.append(f"repro_wal_last_seq{labels} {stats.get('last_seq', 0)}")
        session = stats.get("session", {})
        lines.append(
            f"repro_session_propagations_total{labels} "
            f"{session.get('propagations', 0)}"
        )
    return lines


def _replica_lines(replicas: "dict[str, dict]") -> "list[str]":
    """Per-replica position and lag (ReplicaSession.stats). An
    unmeasurable lag (``None`` — no reachable primary) is *omitted*, not
    exported as zero: absence is the honest value for fail-closed
    bounded reads."""
    if not replicas:
        return []
    lines = [
        "# HELP repro_replica_applied_seq Records this replica session has applied.",
        "# TYPE repro_replica_applied_seq gauge",
        "# HELP repro_replica_lag Records the replica is behind the primary.",
        "# TYPE repro_replica_lag gauge",
        "# HELP repro_replica_refreshes_total Refresh passes run by the replica session.",
        "# TYPE repro_replica_refreshes_total counter",
    ]
    for doc_id in sorted(replicas):
        stats = replicas[doc_id]
        labels = _labels(doc=doc_id)
        lines.append(
            f"repro_replica_applied_seq{labels} {stats.get('applied_seq', 0)}"
        )
        lag = stats.get("lag")
        if lag is not None:
            lines.append(f"repro_replica_lag{labels} {lag}")
        lines.append(
            f"repro_replica_refreshes_total{labels} {stats.get('refreshes', 0)}"
        )
    return lines


def _shard_lines(shard_payload: "dict | None") -> "list[str]":
    """Router and per-shard counters (ShardedDocument.stats_payload)."""
    if not shard_payload:
        return []
    lines = [
        "# HELP repro_shard_edits_total Routed edits by path (fast/boundary/identity).",
        "# TYPE repro_shard_edits_total counter",
    ]
    for path, count in sorted(shard_payload.get("edits", {}).items()):
        lines.append(f"repro_shard_edits_total{_labels(path=path)} {count}")
    lines += [
        "# HELP repro_shard_requests_total Term-text requests by parse path "
        "(local: only the changed shard parsed; full: the whole update).",
        "# TYPE repro_shard_requests_total counter",
    ]
    for parse, count in sorted(shard_payload.get("parse", {}).items()):
        lines.append(f"repro_shard_requests_total{_labels(parse=parse)} {count}")
    per_shard = shard_payload.get("per_shard", {})
    lines += [
        "# HELP repro_shard_count Shards the router currently serves.",
        "# TYPE repro_shard_count gauge",
        f"repro_shard_count {shard_payload.get('shards', len(per_shard))}",
    ]
    if per_shard:
        lines += [
            "# HELP repro_shard_wal_appends_total WAL appends per shard.",
            "# TYPE repro_shard_wal_appends_total counter",
            "# HELP repro_shard_last_seq Last journalled sequence per shard.",
            "# TYPE repro_shard_last_seq gauge",
        ]
        for shard_id in sorted(per_shard):
            stats = per_shard[shard_id]
            labels = _labels(shard=shard_id)
            lines.append(
                f"repro_shard_wal_appends_total{labels} "
                f"{stats.get('wal_appends', 0)}"
            )
            lines.append(
                f"repro_shard_last_seq{labels} {stats.get('last_seq', 0)}"
            )
    return lines


def _tracing_lines(tracer) -> "list[str]":
    """Trace retention counters and per-stage duration series."""
    if tracer is None:
        return []
    stats = tracer.stats_payload()
    lines = [
        "# HELP repro_tracing_enabled Whether request tracing is on.",
        "# TYPE repro_tracing_enabled gauge",
        f"repro_tracing_enabled {int(stats['enabled'])}",
        "# HELP repro_traces_total Traces by retention outcome.",
        "# TYPE repro_traces_total counter",
        f"repro_traces_total{_labels(outcome='started')} {stats['started']}",
        f"repro_traces_total{_labels(outcome='kept')} {stats['kept']}",
        f"repro_traces_total{_labels(outcome='dropped')} {stats['dropped']}",
        f"repro_traces_total{_labels(outcome='error')} {stats['errors']}",
        f"repro_traces_total{_labels(outcome='slow')} {stats['slow']}",
        "# HELP repro_trace_slow_log_size Over-threshold traces currently buffered.",
        "# TYPE repro_trace_slow_log_size gauge",
        f"repro_trace_slow_log_size {stats['slow_log_size']}",
    ]
    stages = tracer.stage_seconds()
    if stages:
        lines += [
            "# HELP repro_trace_stage_seconds Time spent per pipeline stage, across all kept-or-not spans.",
            "# TYPE repro_trace_stage_seconds summary",
        ]
        for stage in sorted(stages):
            count, total = stages[stage]
            labels = _labels(stage=stage)
            lines.append(f"repro_trace_stage_seconds_sum{labels} {total:.9f}")
            lines.append(f"repro_trace_stage_seconds_count{labels} {count}")
    return lines


def _shipper_lines(shippers) -> "list[str]":
    """Per-standby shipped-lag gauges (WalShipper.lag), labelled by the
    standby root the shipper resumes from."""
    if not shippers:
        return []
    lines = [
        "# HELP repro_shipper_lag Primary WAL records not yet shipped to the standby.",
        "# TYPE repro_shipper_lag gauge",
        "# HELP repro_shipper_records_total WAL records shipped to the standby.",
        "# TYPE repro_shipper_records_total counter",
    ]
    for shipper in shippers:
        standby = shipper.label
        for doc_id, lag in sorted(shipper.lag().items()):
            lines.append(
                f"repro_shipper_lag{_labels(standby=standby, doc=doc_id)} {lag}"
            )
        lines.append(
            f"repro_shipper_records_total{_labels(standby=standby)} "
            f"{shipper.stats['records_shipped']}"
        )
    followed = [
        shipper
        for shipper in shippers
        if getattr(shipper, "connected", None) is not None
    ]
    if followed:
        lines += [
            "# HELP repro_follower_connected Whether the follow daemon's live feed to the standby is up.",
            "# TYPE repro_follower_connected gauge",
        ]
        for shipper in followed:
            lines.append(
                f"repro_follower_connected{_labels(standby=shipper.label)} "
                f"{int(shipper.connected)}"
            )
    return lines


def render_metrics(
    *,
    endpoints: "EndpointMetrics | None" = None,
    view_reads: "dict[str, int] | None" = None,
    propagate_parse: "dict[str, int] | None" = None,
    registry: "dict | None" = None,
    documents: "dict[str, dict] | None" = None,
    replicas: "dict[str, dict] | None" = None,
    shards: "dict | None" = None,
    inflight: int = 0,
    draining: bool = False,
    tracer=None,
    shippers=None,
) -> str:
    """Assemble the full ``/metrics`` document from live counters."""
    lines = [
        "# HELP repro_server_inflight_requests Requests currently being served.",
        "# TYPE repro_server_inflight_requests gauge",
        f"repro_server_inflight_requests {inflight}",
        "# HELP repro_server_draining Whether the server is draining for shutdown.",
        "# TYPE repro_server_draining gauge",
        f"repro_server_draining {int(draining)}",
    ]
    if endpoints is not None:
        lines += endpoints.render()
    lines += _view_read_lines(view_reads)
    lines += _propagate_parse_lines(propagate_parse)
    if registry is not None:
        lines += _registry_lines(registry)
    lines += _document_lines(documents or {})
    lines += _replica_lines(replicas or {})
    lines += _shard_lines(shards)
    lines += _shipper_lines(shippers)
    lines += _tracing_lines(tracer)
    return "\n".join(lines) + "\n"
