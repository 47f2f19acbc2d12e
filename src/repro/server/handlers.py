"""Request handlers: one function per wire operation.

Each handler receives the running :class:`~repro.server.app.ReproServer`
and the decoded request object, and returns the JSON-serializable
result payload; typed library errors propagate out and the connection
loop maps them through :func:`repro.errors.error_payload` — the same
table the CLI's exit codes come from, so a remote client sees exactly
the failure the local operator would.

Sessions are pinned per document and **sequential**: a per-document
asyncio lock serialises propagations (the session's caches advance with
its document; interleaving two streams would corrupt both), while
requests for *different* documents run concurrently in executor
threads.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..editing import EditScript
from ..errors import ReplicationLagError, ReproError, ServerError, error_payload
from ..obs import trace as _trace
from ..xmltree import has_cached_xml, tree_to_xml

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .app import ReproServer

__all__ = ["handle", "HANDLERS"]


async def _ping(server: "ReproServer", request: dict) -> dict:
    return {"pong": True}


def _required(request: dict, field: str, *, where: "str | None" = None) -> str:
    value = request.get(field)
    if not isinstance(value, str) or not value:
        where = where or f"request op {request.get('op')!r}"
        raise ServerError(f"{where} needs a {field!r} string field")
    return value


async def _propagate(server: "ReproServer", request: dict) -> dict:
    """Serve one view update onto the document's pinned session.

    The term is parsed against the session's current view, under the
    document's lock: a term that writes its untouched subtrees exactly
    as the server renders them is parsed at its edited region only
    (:meth:`EditScript.parse`), any other is parsed whole.
    """
    doc_id = _required(request, "doc")
    text = _required(request, "update")

    def run() -> tuple:
        # one executor hop: the session lookup is a dict hit after the open
        try:
            session = server.session(doc_id)
        except ReproError:
            EditScript.parse(text)  # a bad term is reported first, as ever
            raise
        update = EditScript.parse(text, base=session.view)
        server.propagate_requests_total.inc("full" if update.base is None else "sparse")
        return session.propagate(update), getattr(session, "last_seq", None)

    async with server.doc_lock(doc_id):
        script, last_seq = await server.run_blocking(run)
    return {
        "doc": doc_id,
        "seq": last_seq,
        "cost": script.cost,
        "script": script.to_term(),
    }


def _read_freshest(replicas: list, max_lag) -> "tuple":
    """Refresh every replica, order them freshest first, and serve from
    the first that honours *max_lag*.

    Freshness is the measured post-refresh lag; an unmeasurable lag
    (``None``) sorts last and still fails **closed** under a bound —
    preferring it would route bounded reads to the one standby that
    cannot prove anything. Ties keep registration order, so routing is
    deterministic. Raises the last bound violation when no replica
    qualifies (the caller decides about the primary).
    """
    ranked = []
    for index, replica in replicas:
        replica.refresh()
        lag = replica.lag()
        ranked.append((lag if lag is not None else float("inf"), index, replica))
    ranked.sort(key=lambda entry: entry[:2])
    last_error = None
    for lag, index, replica in ranked:
        try:
            return replica.read(max_lag=max_lag, refresh=False), replica, index
        except ReplicationLagError as error:
            last_error = error
    raise last_error


def _view_text(server: "ReproServer", view) -> str:
    """The view as served XML, counted by render path: a view version
    read before is answered from the text its first read stored."""
    server.view_reads_total.inc("cached" if has_cached_xml(view) else "rendered")
    return tree_to_xml(view)


async def _view(server: "ReproServer", request: dict) -> dict:
    """A bounded-staleness read: freshest replica first, primary
    fallback.

    With standbys configured, the read goes to the *freshest*
    :class:`~repro.replication.ReplicaSession` that honours the
    request's ``max_lag`` (falling back to the server-wide budget) —
    several followed standbys are ranked by measured post-refresh lag.
    A replica that cannot honour the bound — too far behind, or its lag
    is unmeasurable (the fail-closed case) — is passed over; when none
    qualifies the read falls back to the primary, which is fresh by
    definition.
    """
    doc_id = _required(request, "doc")
    max_lag = request.get("max_lag", server.max_lag)
    replicas = server.replicas(doc_id)
    if replicas:
        try:
            view, replica, index = await server.run_blocking(
                lambda: _read_freshest(replicas, max_lag)
            )
            return {
                "doc": doc_id,
                "served_by": "replica",
                "standby": index,
                "lag": replica.lag(),
                "view": _view_text(server, view),
            }
        except ReplicationLagError:
            if not server.has_primary:
                raise
            server.replica_fallbacks_total.inc(doc_id)
    async with server.doc_lock(doc_id):
        # a replayed session extracts its view on first read: off the loop
        view = await server.run_blocking(lambda: server.session(doc_id).view)
    return {
        "doc": doc_id,
        "served_by": "primary",
        "lag": 0,
        "view": _view_text(server, view),
    }


async def _batch(server: "ReproServer", request: dict) -> dict:
    """A stateless many-document batch through the engine registry.

    The request ships its own schema (DTD + annotation text) and a list
    of ``{"source": xml, "update": term}`` entries; the engine comes
    from the server's registry (compiled once per schema across
    requests) and serves the entries in order, as
    :meth:`~repro.engine.ViewEngine.propagate_many` does.
    """
    from ..dtd import parse_dtd
    from ..views import Annotation
    from ..xmltree import tree_from_xml

    dtd = parse_dtd(_required(request, "dtd"))
    annotation = Annotation.parse(_required(request, "annotation"))
    entries = request.get("requests")
    if not isinstance(entries, list):
        raise ServerError("request op 'batch' needs a 'requests' list")
    pairs = []
    for index, entry in enumerate(entries):
        where = f"request op 'batch' entry {index}"
        if not isinstance(entry, dict):
            raise ServerError(f"{where} must be an object")
        source = _required(entry, "source", where=where)
        update = _required(entry, "update", where=where)
        try:
            pairs.append((tree_from_xml(source), EditScript.parse(update)))
        except (ReproError, SyntaxError) as error:  # ParseError is a SyntaxError
            raise ServerError(f"{where}: {error}") from error

    def run():
        engine = server.registry.get_or_compile(dtd, annotation)
        return engine.propagate_many(pairs)

    scripts = await server.run_blocking(run)
    return {
        "count": len(scripts),
        "scripts": [script.to_term() for script in scripts],
        "costs": [script.cost for script in scripts],
    }


async def _shard_propagate(server: "ReproServer", request: dict) -> dict:
    """Front the sharded document: route one update across shards.

    The update goes to the router as term text, so only the shards it
    changes are parsed. The optional ``dirty`` hint must be a list of
    node identifiers; the router trusts it and ignores edits outside
    the regions it names.
    """
    update = _required(request, "update")
    splice = bool(request.get("splice", True))
    dirty = request.get("dirty")
    if "dirty" in request and not (
        isinstance(dirty, list) and all(isinstance(node, str) for node in dirty)
    ):
        raise ServerError(
            "request op 'shard_propagate' needs 'dirty', when given, to be a "
            "list of node identifier strings"
        )
    sharded = server.shard()
    async with server.doc_lock("__shard__"):
        result = await server.run_blocking(
            lambda: sharded.propagate(update, dirty=dirty, splice=splice)
        )
    if splice:
        return {"spliced": True, "cost": result.cost, "script": result.script}
    return {
        "spliced": False,
        "cost": result.cost,
        "touched": list(result.touched),
        "boundary": result.boundary,
        "fresh_used": result.fresh_used,
    }


async def _stats(server: "ReproServer", request: dict) -> dict:
    return server.stats_payload()


async def _metrics(server: "ReproServer", request: dict) -> dict:
    return {"content_type": "text/plain; version=0.0.4", "text": server.metrics.render()}


HANDLERS = {
    "ping": _ping,
    "propagate": _propagate,
    "view": _view,
    "batch": _batch,
    "shard_propagate": _shard_propagate,
    "stats": _stats,
    "metrics": _metrics,
}


async def handle(server: "ReproServer", request: dict) -> dict:
    """Dispatch one request; returns the full response envelope.

    The envelope is ``{"ok": true, "result": …}`` or ``{"ok": false,
    "error": error_payload(...)}`` with the request's ``id`` echoed when
    present; latency and errors land in the server's endpoint metrics
    either way.

    With tracing enabled every request runs under a ``request`` root
    span; its ``trace_id`` rides in the response envelope (and inside
    error payloads), so a slow or failed answer can be looked up in
    ``/debug/traces`` verbatim. A client-supplied ``trace_id`` is
    adopted instead of minting one — and echoed even with tracing off,
    so correlation never depends on server configuration.
    """
    op = request.get("op")
    start = time.perf_counter()
    endpoint = op if isinstance(op, str) else "unknown"
    client_trace_id = request.get("trace_id")
    if not isinstance(client_trace_id, str) or not client_trace_id:
        client_trace_id = None
    root = _trace("request", trace_id=client_trace_id, op=endpoint)
    trace_id = root.trace_id or client_trace_id
    with root:
        try:
            handler = HANDLERS.get(op)
            if handler is None:
                raise ServerError(
                    f"unknown op {op!r}; serve one of {sorted(HANDLERS)}"
                )
            if server.draining:
                raise ServerError("server is draining; no new requests")
            result = await handler(server, request)
            response = {"ok": True, "result": result}
        except Exception as error:  # typed payloads for library errors too
            payload = error_payload(error)
            if trace_id is not None:
                payload["trace_id"] = trace_id
            root.mark_error(payload["code"])
            response = {"ok": False, "error": payload}
            server.errors_total.inc(endpoint, payload["code"])
        server.latency_seconds.observe(time.perf_counter() - start, endpoint)
    if trace_id is not None:
        response["trace_id"] = trace_id
    if "id" in request:
        response["id"] = request["id"]
    return response
