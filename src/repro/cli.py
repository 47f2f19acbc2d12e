"""Command-line interface: the view-update pipeline on files.

Subcommands (``repro-xml <command> --help`` for details):

* ``validate``  — check an XML document against a DTD;
* ``view``      — extract the annotation-defined view of a document;
* ``view-dtd``  — print the derived DTD of the view language;
* ``invert``    — build a minimal source document for a given view;
* ``propagate`` — propagate a view update script onto the source
  (``--stream`` serves a blank-line-separated sequence of sequential
  updates through one :class:`~repro.session.DocumentSession`);
* ``repair-compare`` — run the Section 6.2 baseline next to the real
  propagation and report the side-effect verdicts;
* ``stats``     — registry/engine metrics of this process as JSON;
* ``store …``   — the durable document store
  (:mod:`repro.store`): ``init``, ``put``, ``ls``, ``propagate``,
  ``compact``, ``recover`` (``--upto SEQ`` for point-in-time
  recovery), ``stats``;
* ``replica …`` — WAL-shipping replication
  (:mod:`repro.replication`): ``init``, ``ship`` (``--follow`` runs
  the continuous shipping daemon over live TCP feeds), ``follow``
  (the applier end of a feed), ``spool``, ``apply``, ``status``,
  ``promote``;
* ``shard …``   — one huge document served as per-shard sessions
  (:mod:`repro.sharding`): ``init`` (partition into a durable
  per-shard store), ``status`` (per-shard metrics as JSON),
  ``propagate`` (route view updates across the shard boundary).

File formats: documents are XML carrying node identifiers in an ``id``
attribute; DTDs use classic ``<!ELEMENT …>`` declarations; annotations
use the ``hide parent child`` directive format; update scripts use the
compact term notation (``Nop.r#n0(Del.a#n1, Ins.d#u0)``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import (
    DEL_OVER_NOP_OVER_INS,
    INS_OVER_NOP_OVER_DEL,
    NOP_OVER_DEL_OVER_INS,
    InsertletPackage,
    PreferenceChooser,
)
from .dtd import parse_dtd, serialize_dtd
from .editing import EditScript
from .engine import ViewEngine
from .errors import ReproError, error_code, exit_code
from .obs import configure as obs_configure, default_tracer, enable_json_logs
from .registry import default_registry
from .repair import compare_with_propagation
from .replication import FileSpoolTransport, StandbyStore, WalShipper, replicate
from .sharding import ShardedDocument
from .store import FSYNC_POLICIES, DocumentStore
from .views import Annotation
from .xmltree import tree_from_xml, tree_to_xml

__all__ = ["main", "build_parser"]

_PREFERENCES = {
    "nop": NOP_OVER_DEL_OVER_INS,
    "del": DEL_OVER_NOP_OVER_INS,
    "ins": INS_OVER_NOP_OVER_DEL,
}


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_common(args: argparse.Namespace):
    dtd = parse_dtd(_read(args.dtd))
    annotation = Annotation.parse(_read(args.annotation)) if args.annotation else None
    return dtd, annotation


def _load_engine(args: argparse.Namespace) -> ViewEngine:
    """The compiled engine every subcommand serves from.

    Fetched from the process default
    :class:`~repro.registry.EngineRegistry`, so programmatic callers
    driving :func:`main` repeatedly (tests, batch drivers) share one
    compiled engine per schema instead of recompiling per invocation.
    """
    dtd, annotation = _load_common(args)
    factory = _make_factory(args, dtd)
    return default_registry().get_or_compile(dtd, annotation, factory=factory)


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    dtd = parse_dtd(_read(args.dtd))
    document = tree_from_xml(_read(args.doc))
    violations = list(dtd.violations(document))
    if not violations:
        print(f"valid: {document.size} nodes conform to the DTD")
        return 0
    for violation in violations[: args.max_errors]:
        print(f"INVALID {violation!r}")
    if len(violations) > args.max_errors:
        print(f"... and {len(violations) - args.max_errors} more")
    return 1


def _cmd_view(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    document = tree_from_xml(_read(args.doc))
    _emit(args, tree_to_xml(engine.view(document)))
    return 0


def _cmd_view_dtd(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    _emit(args, serialize_dtd(engine.view_dtd))
    return 0


def _cmd_invert(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    view = tree_from_xml(_read(args.view_doc))
    _emit(args, tree_to_xml(engine.invert(view)))
    return 0


def _make_factory(args: argparse.Namespace, dtd):
    if not getattr(args, "insertlets", None):
        return None
    terms: dict[str, str] = {}
    for line in _read(args.insertlets).splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        label, _, term = line.partition("=")
        terms[label.strip()] = term.strip()
    return InsertletPackage.from_terms(dtd, terms, strict=not args.loose_insertlets)


def _parse_update_stream(text: str) -> "list[EditScript]":
    """Split an update file into scripts: one per block of non-blank lines."""
    blocks: list[str] = []
    current: list[str] = []
    for line in text.splitlines():
        if line.strip():
            current.append(line)
        elif current:
            blocks.append("\n".join(current))
            current = []
    if current:
        blocks.append("\n".join(current))
    return [EditScript.parse(block.strip()) for block in blocks]


def _cmd_propagate(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    source = tree_from_xml(_read(args.doc))
    chooser = PreferenceChooser(_PREFERENCES[args.prefer])
    if args.stream:
        # A stream of sequential updates (blank-line separated), each
        # built against the view the previous propagation produced;
        # served by one DocumentSession carrying the caches forward.
        updates = _parse_update_stream(_read(args.update))
        if not updates:
            print("error: no update scripts in the stream", file=sys.stderr)
            return 1
        session = engine.session(source)
        scripts = []
        for index, update in enumerate(updates):
            script = session.propagate(update, chooser=chooser, verify=True)
            scripts.append(script)
            print(f"update {index}: cost {script.cost}", file=sys.stderr)
        if args.script:
            _emit(args, "\n".join(script.to_term() for script in scripts))
        else:
            _emit(args, tree_to_xml(session.source))
        stats = session.stats
        print(
            f"served {stats.updates_served} updates, "
            f"total cost {stats.total_cost}",
            file=sys.stderr,
        )
        return 0
    update = EditScript.parse(_read(args.update).strip())
    script = engine.propagate(source, update, chooser=chooser)
    assert engine.verify(source, update, script)
    if args.script:
        _emit(args, script.to_term())
    else:
        _emit(args, tree_to_xml(script.output_tree))
    print(f"propagation cost: {script.cost}", file=sys.stderr)
    return 0


def _cmd_repair_compare(args: argparse.Namespace) -> int:
    dtd, annotation = _load_common(args)
    source = tree_from_xml(_read(args.doc))
    update = EditScript.parse(_read(args.update).strip())
    report = compare_with_propagation(dtd, annotation, source, update)
    print(report.summary())
    return 0 if report.repair_side_effect_free else 2


def _cmd_stats(args: argparse.Namespace) -> int:
    """Registry + engine metrics of this process, as JSON.

    One-shot invocations report a single compile; the payload earns its
    keep for programmatic drivers calling :func:`main` repeatedly in one
    process (tests, batch jobs), whose engines accumulate in the default
    registry.
    """
    payload = default_registry().stats_payload()
    payload["tracing"] = default_tracer().stats_payload()
    _emit(args, json.dumps(payload, indent=None if args.compact else 2))
    return 0


# ---------------------------------------------------------------------------
# Durable store subcommands
# ---------------------------------------------------------------------------


def _open_store(args: argparse.Namespace) -> DocumentStore:
    return DocumentStore(
        args.root, fsync=getattr(args, "fsync", None) or "always"
    )


def _cmd_store_init(args: argparse.Namespace) -> int:
    store = DocumentStore.init(args.root)
    print(f"initialised document store at {store.root}")
    return 0


def _cmd_store_put(args: argparse.Namespace) -> int:
    store = _open_store(args)
    dtd, annotation = _load_common(args)
    source = tree_from_xml(_read(args.doc))
    schema_hash = store.put(
        args.id, source, dtd, annotation, overwrite=args.overwrite
    )
    print(
        f"stored {args.id!r}: {source.size} nodes under schema "
        f"{schema_hash[:12]}…"
    )
    return 0


def _cmd_store_ls(args: argparse.Namespace) -> int:
    store = _open_store(args)
    for doc_id in store.documents():
        stats = store.stats(doc_id)
        print(
            f"{doc_id}\trecords={stats['wal_records']} "
            f"last_seq={stats['wal_last_seq']} "
            f"snapshots={','.join(map(str, stats['snapshots']))} "
            f"schema={stats['schema'][:12]}…"
        )
    return 0


def _cmd_store_propagate(args: argparse.Namespace) -> int:
    store = _open_store(args)
    chooser = PreferenceChooser(_PREFERENCES[args.prefer])
    text = _read(args.update)
    updates = (
        _parse_update_stream(text)
        if args.stream
        else [EditScript.parse(text.strip())]
    )
    if not updates:
        print("error: no update scripts in the stream", file=sys.stderr)
        return 1
    with store.open_session(args.id, fsync=args.fsync) as session:
        if session.recovered.truncated_tail:
            print("recovery truncated a torn log tail", file=sys.stderr)
        scripts = []
        for index, update in enumerate(updates):
            script = session.propagate(update, chooser=chooser, verify=True)
            scripts.append(script)
            print(
                f"update {index}: cost {script.cost} (wal seq "
                f"{session.last_seq})",
                file=sys.stderr,
            )
        if args.compact_after:
            seq = session.compact()
            print(f"compacted at seq {seq}", file=sys.stderr)
        if args.script:
            _emit(args, "\n".join(script.to_term() for script in scripts))
        else:
            _emit(args, tree_to_xml(session.source))
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    store = _open_store(args)
    seq = store.compact(args.id)
    print(f"compacted {args.id!r} at seq {seq}")
    return 0


def _cmd_store_recover(args: argparse.Namespace) -> int:
    store = _open_store(args)
    recovered = store.recover(
        args.id, repair=not args.no_repair, upto_seq=args.upto
    )
    point = "" if args.upto is None else f" (point-in-time: seq {args.upto})"
    print(
        f"recovered {args.id!r}: snapshot {recovered.snapshot_seq} + "
        f"{recovered.replayed} replayed records -> seq {recovered.last_seq}"
        + point
        + (" (torn tail truncated)" if recovered.truncated_tail else ""),
        file=sys.stderr,
    )
    if args.view:
        dtd, annotation = store.schema(args.id)
        _emit(args, tree_to_xml(annotation.view(recovered.tree)))
    else:
        _emit(args, tree_to_xml(recovered.tree))
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    store = _open_store(args)
    payload = store.stats(args.id) if args.id else store.stats()
    _emit(args, json.dumps(payload, indent=2))
    return 0


# ---------------------------------------------------------------------------
# Sharding subcommands
# ---------------------------------------------------------------------------


def _cmd_shard_init(args: argparse.Namespace) -> int:
    dtd, annotation = _load_common(args)
    source = tree_from_xml(_read(args.doc))
    doc = ShardedDocument.create(
        args.root, source, dtd, annotation, depth=args.depth
    )
    try:
        print(
            f"sharded {source.size} nodes at spine depth {doc.depth} into "
            f"{len(doc.shard_roots)} shards under {args.root}"
        )
    finally:
        doc.close()
    return 0


def _cmd_shard_status(args: argparse.Namespace) -> int:
    doc = ShardedDocument.open(args.root)
    try:
        _emit(args, json.dumps(doc.stats_payload(), indent=2))
    finally:
        doc.close()
    return 0


def _cmd_shard_propagate(args: argparse.Namespace) -> int:
    chooser = PreferenceChooser(_PREFERENCES[args.prefer])
    text = _read(args.update)
    updates = (
        _parse_update_stream(text)
        if args.stream
        else [EditScript.parse(text.strip())]
    )
    if not updates:
        print("error: no update scripts in the stream", file=sys.stderr)
        return 1
    doc = ShardedDocument.open(args.root, fsync=args.fsync, chooser=chooser)
    try:
        scripts = []
        for index, update in enumerate(updates):
            result = doc.propagate(update, splice=True)
            scripts.append(result)
            print(f"update {index}: cost {result.cost}", file=sys.stderr)
        edits = doc.stats_payload()["edits"]
        print(
            f"served {len(scripts)} updates across "
            f"{len(doc.shard_roots)} shards "
            f"(fast {edits['fast']}, boundary {edits['boundary']}, "
            f"identity {edits['identity']})",
            file=sys.stderr,
        )
        if args.script:
            _emit(args, "\n".join(script.to_term() for script in scripts))
        else:
            _emit(args, tree_to_xml(doc.source))
    finally:
        doc.close()
    return 0


# ---------------------------------------------------------------------------
# Replication subcommands
# ---------------------------------------------------------------------------


def _open_standby(args: argparse.Namespace, *, create: bool = False) -> "StandbyStore":
    return StandbyStore(
        args.standby,
        create=create,
        primary_root=getattr(args, "primary", None),
    )


def _replica_doc_ids(args: argparse.Namespace) -> "list[str] | None":
    return args.id if getattr(args, "id", None) else None


def _cmd_replica_init(args: argparse.Namespace) -> int:
    primary = DocumentStore(args.primary)
    standby = StandbyStore.init(args.standby, primary_root=args.primary)
    out = replicate(primary, standby, doc_ids=_replica_doc_ids(args))
    print(
        f"initialised standby at {standby.root} following {primary.root}: "
        f"{out['applied']} frames applied, positions {out['positions']}"
    )
    return 0


def _cmd_replica_ship(args: argparse.Namespace) -> int:
    if args.follow:
        return _cmd_replica_ship_follow(args)
    if not args.standby:
        print(
            "error: a one-shot ship needs --standby (or pass --follow "
            "with --connect/--listen for a live feed)",
            file=sys.stderr,
        )
        return 2
    primary = DocumentStore(args.primary)
    standby = _open_standby(args)
    out = replicate(primary, standby, doc_ids=_replica_doc_ids(args))
    print(
        f"shipped {out['shipped']} frames ({out['applied']} applied, "
        f"{out['skipped']} duplicates); positions {out['positions']}"
    )
    return 0


def _foreground() -> None:
    """Block the CLI's main thread until SIGTERM/SIGINT (the daemon
    commands' serve loop); prints nothing — callers already announced
    themselves."""
    import signal
    import threading

    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, request_stop)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    stop.wait()


def _cmd_replica_ship_follow(args: argparse.Namespace) -> int:
    """The continuous shipping daemon: tail the primary's WAL and feed
    every ``--connect``/``--listen`` standby over live TCP until
    SIGTERM."""
    from .replication import ShipperDaemon

    if args.standby:
        print(
            "error: --follow streams over TCP; replace --standby with "
            "--connect host:port per applier (or --listen to accept them)",
            file=sys.stderr,
        )
        return 2
    targets = args.connect or []
    if not targets and not args.listen:
        print(
            "error: --follow needs at least one --connect host:port "
            "(a listening `replica follow` applier) or a --listen address",
            file=sys.stderr,
        )
        return 2
    primary = DocumentStore(args.primary)
    metrics_server, metrics_loop = None, None
    if args.metrics_port is not None:
        metrics_server, metrics_loop = _start_metrics_server(args.metrics_port)
    daemon = ShipperDaemon(
        primary,
        connect=targets,
        listen=args.listen,
        doc_ids=_replica_doc_ids(args),
        poll_interval=args.poll_interval,
        backoff_base=args.backoff_base,
        backoff_max=args.backoff_max,
        on_shipper=(
            metrics_server.attach_shipper if metrics_server is not None else None
        ),
        on_shipper_closed=(
            metrics_server.detach_shipper if metrics_server is not None else None
        ),
    )
    daemon.start()
    try:
        # machine-parsable and flushed: launchers (tests, CI) wait on these
        if targets:
            print(f"following {len(targets)} standbys", flush=True)
        if daemon.listen_address is not None:
            host, port = daemon.listen_address
            print(f"accepting standbys on {host}:{port}", flush=True)
        if metrics_server is not None:
            print(
                f"metrics on {metrics_server.host}:{metrics_server.port}",
                flush=True,
            )
        _foreground()
    finally:
        daemon.stop()
        if metrics_loop is not None:
            import asyncio

            asyncio.run_coroutine_threadsafe(
                metrics_server.drain(), metrics_loop
            ).result(timeout=10)
        primary.close()
    print("follow daemon stopped: links closed", flush=True)
    return 0


def _start_metrics_server(port: int):
    """An observability-only :class:`~repro.server.ReproServer` (no
    roots) on its own event-loop thread: ``/metrics``, ``/stats`` and
    ``/healthz`` for the follow daemon, with each link's shipper
    attached so ``repro_shipper_lag`` and ``repro_follower_connected``
    cover followed standbys."""
    import asyncio
    import threading

    from .server import ReproServer

    server = ReproServer(host="127.0.0.1", port=port)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run_loop() -> None:
        asyncio.set_event_loop(loop)

        async def go() -> None:
            await server.start()
            started.set()
            await server.serve_forever()

        loop.run_until_complete(go())

    thread = threading.Thread(target=run_loop, name="metrics-server", daemon=True)
    thread.start()
    if not started.wait(timeout=10):
        raise ReproError("metrics server did not start")
    return server, loop


def _cmd_replica_follow(args: argparse.Namespace) -> int:
    """The applier end of a live feed: accept (or dial) the follow
    daemon, apply shipped frames durably, acknowledge positions."""
    from .replication import FollowerServer
    from .store.store import _STORE_MARKER

    if (args.listen is None) == (args.connect is None):
        print(
            "error: pass exactly one of --listen host:port (wait for the "
            "daemon) or --connect host:port (dial a --listen daemon)",
            file=sys.stderr,
        )
        return 2
    standby = (
        _open_standby(args)
        if (Path(args.standby) / _STORE_MARKER).is_file()
        else StandbyStore.init(
            args.standby, primary_root=getattr(args, "primary", None)
        )
    )
    follower = FollowerServer(standby, listen=args.listen, connect=args.connect)
    address = follower.bind()
    if address is not None:
        # machine-parsable and flushed: launchers (tests, CI) wait on it
        print(f"feeding {standby.root} on {address[0]}:{address[1]}", flush=True)
    else:
        print(f"feeding {standby.root} via {args.connect}", flush=True)
    follower.start()
    try:
        _foreground()
    finally:
        follower.stop()
        standby.close()
    positions = standby.positions()
    print(f"follower stopped; positions {positions}", flush=True)
    return 0


def _cmd_replica_spool(args: argparse.Namespace) -> int:
    primary = DocumentStore(args.primary)
    transport = FileSpoolTransport(args.spool, fsync=args.fsync_spool)
    shipper = WalShipper(primary, transport, doc_ids=_replica_doc_ids(args))
    if args.after is not None:
        if not args.id or len(args.id) != 1:
            print(
                "error: --after resumes one document; pass exactly one --id",
                file=sys.stderr,
            )
            return 1
        shipper.resume_from({args.id[0]: args.after})
    sent = shipper.ship_all()
    print(
        f"spooled {sent} frames to {args.spool} "
        f"(positions {shipper.stats['positions']})"
    )
    return 0


def _cmd_replica_apply(args: argparse.Namespace) -> int:
    from .store.store import _STORE_MARKER

    standby = (
        _open_standby(args)
        if (Path(args.standby) / _STORE_MARKER).is_file()
        else StandbyStore.init(
            args.standby, primary_root=getattr(args, "primary", None)
        )
    )
    transport = FileSpoolTransport(args.spool)
    outcome = standby.apply_frames(transport.drain())
    positions = standby.positions()
    print(
        f"applied {outcome['applied']} frames "
        f"({outcome['skipped']} duplicates); positions {positions}"
    )
    return 0


def _cmd_replica_status(args: argparse.Namespace) -> int:
    standby = _open_standby(args)
    payload = standby.stats()["replication"]
    if getattr(args, "table", False):
        lines = [
            f"role: {payload['role']}   primary: {payload['primary_root']}",
            f"{'DOC':<24} {'APPLIED':>8} {'LAG':>6}",
        ]
        for doc_id in sorted(payload["positions"]):
            lag = payload["lag"].get(doc_id)
            # an unmeasurable lag prints as "?" — absence is the honest
            # value when the primary's log is not reachable from here
            lag_text = "?" if lag is None else str(lag)
            lines.append(
                f"{doc_id:<24} {payload['positions'][doc_id]:>8} {lag_text:>6}"
            )
        _emit(args, "\n".join(lines))
    else:
        _emit(args, json.dumps(payload, indent=2))
    return 0


def _cmd_replica_promote(args: argparse.Namespace) -> int:
    standby = _open_standby(args)
    summary = standby.promote(fence=not args.no_fence)
    fenced = ", ".join(summary["fenced"]) or "none"
    print(f"promoted {standby.root} to primary; fenced leases: {fenced}")
    if summary["unreachable"]:
        print(
            "warning: old primary unreachable for: "
            + ", ".join(summary["unreachable"])
            + " (it is fenced implicitly — it can no longer ship here)",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .server import ReproServer

    if args.log_json:
        enable_json_logs()
    if args.trace:
        obs_configure(
            enabled=True,
            sample_rate=args.trace_sample,
            slow_threshold=args.trace_slow_ms / 1000.0,
            keep=args.trace_keep,
            log_spans=args.log_json,
        )

    async def run() -> int:
        server = ReproServer(
            store_root=args.root,
            standby_root=args.standby_root,
            shard_root=args.shard_root,
            host=args.host,
            port=args.port,
            fsync=args.fsync,
            max_lag=args.max_lag,
        )
        host, port = await server.start()
        # machine-parsable and flushed: launchers (tests, CI) wait on it
        print(f"serving on {host}:{port}", flush=True)
        loop = asyncio.get_running_loop()

        def request_drain() -> None:
            asyncio.ensure_future(server.drain())

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, request_drain)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        await server.serve_forever()
        print("drained: sessions closed, leases released", flush=True)
        return 0

    return asyncio.run(run())


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xml",
        description="View update propagation for XML "
        "(Staworko, Boneva, Groz; EDBT/ICDT Workshops 2010)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub, annotation_required=True, doc=True):
        sub.add_argument("--dtd", required=True, help="<!ELEMENT ...> DTD file")
        sub.add_argument(
            "--annotation",
            required=annotation_required,
            help="annotation directives file (hide/show lines)",
        )
        if doc:
            sub.add_argument("--doc", required=True, help="source XML document")
        sub.add_argument("--out", help="write the result here instead of stdout")

    validate = commands.add_parser("validate", help="check a document against a DTD")
    validate.add_argument("--dtd", required=True)
    validate.add_argument("--doc", required=True)
    validate.add_argument("--max-errors", type=int, default=10)
    validate.set_defaults(handler=_cmd_validate)

    view = commands.add_parser("view", help="extract the view of a document")
    common(view)
    view.set_defaults(handler=_cmd_view)

    vdtd = commands.add_parser("view-dtd", help="derive the DTD of the view language")
    common(vdtd, doc=False)
    vdtd.set_defaults(handler=_cmd_view_dtd)

    inv = commands.add_parser("invert", help="build a minimal source for a view")
    inv.add_argument("--dtd", required=True)
    inv.add_argument("--annotation", required=True)
    inv.add_argument("--view-doc", required=True, help="the view as XML")
    inv.add_argument("--out")
    inv.set_defaults(handler=_cmd_invert)

    prop = commands.add_parser("propagate", help="propagate a view update")
    common(prop)
    prop.add_argument("--update", required=True, help="update script (term notation)")
    prop.add_argument(
        "--prefer",
        choices=sorted(_PREFERENCES),
        default="nop",
        help="preference function Φ (default: keep hidden content)",
    )
    prop.add_argument("--insertlets", help="insertlet file: lines `label = term`")
    prop.add_argument(
        "--loose-insertlets",
        action="store_true",
        help="allow non-minimal insertlet fragments",
    )
    prop.add_argument(
        "--script",
        action="store_true",
        help="print the propagation script instead of the new document",
    )
    prop.add_argument(
        "--stream",
        action="store_true",
        help="treat the update file as blank-line-separated sequential "
        "scripts and serve them through one document session",
    )
    prop.set_defaults(handler=_cmd_propagate)

    cmp_ = commands.add_parser(
        "repair-compare",
        help="run the Section 6.2 repair baseline next to the propagation",
    )
    common(cmp_)
    cmp_.add_argument("--update", required=True)
    cmp_.set_defaults(handler=_cmd_repair_compare)

    stats = commands.add_parser(
        "stats",
        help="print this process's engine-registry metrics as JSON",
    )
    stats.add_argument("--out", help="write the JSON here instead of stdout")
    stats.add_argument(
        "--compact", action="store_true", help="single-line JSON"
    )
    stats.set_defaults(handler=_cmd_stats)

    store = commands.add_parser(
        "store", help="the durable document store (WAL + snapshots)"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)

    def store_common(sub, with_id=True):
        sub.add_argument("--root", required=True, help="store directory")
        if with_id:
            sub.add_argument("--id", required=True, help="document identifier")

    s_init = store_commands.add_parser("init", help="create a store directory")
    store_common(s_init, with_id=False)
    s_init.set_defaults(handler=_cmd_store_init)

    s_put = store_commands.add_parser(
        "put", help="store a document with its schema (genesis snapshot)"
    )
    store_common(s_put)
    s_put.add_argument("--dtd", required=True)
    s_put.add_argument("--annotation", required=True)
    s_put.add_argument("--doc", required=True, help="source XML document")
    s_put.add_argument(
        "--overwrite",
        action="store_true",
        help="replace an existing document, discarding its history",
    )
    s_put.set_defaults(handler=_cmd_store_put)

    s_ls = store_commands.add_parser("ls", help="list stored documents")
    store_common(s_ls, with_id=False)
    s_ls.set_defaults(handler=_cmd_store_ls)

    s_prop = store_commands.add_parser(
        "propagate",
        help="serve view updates against a stored document, write-ahead "
        "logged (recovers the document first)",
    )
    store_common(s_prop)
    s_prop.add_argument("--update", required=True, help="update script file")
    s_prop.add_argument(
        "--stream",
        action="store_true",
        help="blank-line-separated sequential scripts, one durable session",
    )
    s_prop.add_argument(
        "--prefer", choices=sorted(_PREFERENCES), default="nop"
    )
    s_prop.add_argument(
        "--fsync",
        choices=FSYNC_POLICIES,
        default=None,
        help="log durability policy (default: the store's, 'always')",
    )
    s_prop.add_argument(
        "--script",
        action="store_true",
        help="print the propagation scripts instead of the new document",
    )
    s_prop.add_argument(
        "--compact-after",
        action="store_true",
        help="checkpoint and trim the log after serving",
    )
    s_prop.add_argument("--out")
    s_prop.set_defaults(handler=_cmd_store_propagate)

    s_compact = store_commands.add_parser(
        "compact", help="checkpoint a document and trim its log"
    )
    store_common(s_compact)
    s_compact.set_defaults(handler=_cmd_store_compact)

    s_recover = store_commands.add_parser(
        "recover",
        help="rebuild a document from snapshot + log and print it",
    )
    store_common(s_recover)
    s_recover.add_argument(
        "--view",
        action="store_true",
        help="print the document's view instead of the source",
    )
    s_recover.add_argument(
        "--no-repair",
        action="store_true",
        help="audit only: do not truncate a torn log tail",
    )
    s_recover.add_argument(
        "--upto",
        type=int,
        default=None,
        metavar="SEQ",
        help="point-in-time recovery: rebuild the document exactly as it "
        "stood after log record SEQ (0 = genesis); the target must be "
        "covered by a retained snapshot + the log",
    )
    s_recover.add_argument("--out")
    s_recover.set_defaults(handler=_cmd_store_recover)

    s_stats = store_commands.add_parser(
        "stats", help="storage metrics (JSON): log sizes, snapshots"
    )
    s_stats.add_argument("--root", required=True, help="store directory")
    s_stats.add_argument("--id", help="one document (default: whole store)")
    s_stats.add_argument("--out")
    s_stats.set_defaults(handler=_cmd_store_stats)

    shard = commands.add_parser(
        "shard",
        help="one huge document sharded at a spine depth into per-shard sessions",
    )
    shard_commands = shard.add_subparsers(dest="shard_command", required=True)

    sh_init = shard_commands.add_parser(
        "init",
        help="partition a document at a spine depth into a durable "
        "per-shard store (one WAL + lease per shard)",
    )
    sh_init.add_argument("--root", required=True, help="store directory")
    sh_init.add_argument("--dtd", required=True)
    sh_init.add_argument("--annotation", required=True)
    sh_init.add_argument("--doc", required=True, help="source XML document")
    sh_init.add_argument(
        "--depth",
        type=int,
        default=1,
        help="spine depth: subtrees rooted this far below the root become "
        "shards (default: 1)",
    )
    sh_init.set_defaults(handler=_cmd_shard_init)

    sh_status = shard_commands.add_parser(
        "status",
        help="router counters and per-shard WAL/lease metrics as JSON",
    )
    sh_status.add_argument("--root", required=True, help="store directory")
    sh_status.add_argument("--out")
    sh_status.set_defaults(handler=_cmd_shard_status)

    sh_prop = shard_commands.add_parser(
        "propagate",
        help="route view updates across the shard boundary: shard-local "
        "scripts, spliced byte-identically to unsharded serving",
    )
    sh_prop.add_argument("--root", required=True, help="store directory")
    sh_prop.add_argument("--update", required=True, help="update script file")
    sh_prop.add_argument(
        "--stream",
        action="store_true",
        help="blank-line-separated sequential scripts, one sharded document",
    )
    sh_prop.add_argument(
        "--prefer", choices=sorted(_PREFERENCES), default="nop"
    )
    sh_prop.add_argument(
        "--fsync",
        choices=FSYNC_POLICIES,
        default=None,
        help="per-shard log durability policy (default: 'always')",
    )
    sh_prop.add_argument(
        "--script",
        action="store_true",
        help="print the spliced propagation scripts instead of the document",
    )
    sh_prop.add_argument("--out")
    sh_prop.set_defaults(handler=_cmd_shard_propagate)

    serve = commands.add_parser(
        "serve",
        help="the asyncio serving front-end: framed JSON requests plus "
        "HTTP /metrics, /healthz, /stats (and, with --trace, "
        "/debug/traces + /debug/slow) on one port; SIGTERM drains "
        "(in-flight requests finish, sessions close, leases release)",
    )
    serve.add_argument("--root", help="primary document store directory")
    serve.add_argument(
        "--standby-root",
        action="append",
        help="standby store serving bounded-staleness `view` reads "
        "(primary fallback when the lag budget cannot be honoured); "
        "repeatable — with several, reads route to the freshest "
        "standby within the budget",
    )
    serve.add_argument(
        "--shard-root", help="sharded document directory for shard_propagate"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks a free port (printed)"
    )
    serve.add_argument(
        "--fsync",
        choices=FSYNC_POLICIES,
        default=None,
        help="override the store's WAL durability policy",
    )
    serve.add_argument(
        "--max-lag",
        type=int,
        default=None,
        metavar="RECORDS",
        help="server-wide staleness budget for replica-routed reads",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="enable request tracing: per-stage spans, /debug/traces "
        "and /debug/slow, trace_id echoed in every response envelope",
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="head-sampling rate in [0,1]; errors and over-threshold "
        "requests are always kept (default: keep everything)",
    )
    serve.add_argument(
        "--trace-slow-ms",
        type=float,
        default=100.0,
        metavar="MS",
        help="requests at or over this duration land in /debug/slow "
        "and bypass sampling (default: 100)",
    )
    serve.add_argument(
        "--trace-keep",
        type=int,
        default=256,
        metavar="N",
        help="completed traces retained in the /debug/traces ring "
        "(default: 256)",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="structured one-line JSON logs on stderr, trace_id-"
        "correlated; with --trace also logs one line per span",
    )
    serve.set_defaults(handler=_cmd_serve)

    replica = commands.add_parser(
        "replica",
        help="WAL-shipping replication: standbys, lag, promotion",
    )
    replica_commands = replica.add_subparsers(dest="replica_command", required=True)

    def replica_docs(sub):
        sub.add_argument(
            "--id",
            action="append",
            help="document to replicate (repeatable; default: all)",
        )

    r_init = replica_commands.add_parser(
        "init", help="create a standby store and bootstrap it from a primary"
    )
    r_init.add_argument("--primary", required=True, help="primary store directory")
    r_init.add_argument("--standby", required=True, help="standby store directory")
    replica_docs(r_init)
    r_init.set_defaults(handler=_cmd_replica_init)

    r_ship = replica_commands.add_parser(
        "ship",
        help="one replication pass: ship pending WAL records from the "
        "primary and apply them at the standby; --follow keeps shipping "
        "continuously over live TCP feeds until SIGTERM",
    )
    r_ship.add_argument("--primary", required=True)
    r_ship.add_argument(
        "--standby", help="standby store directory (one-shot mode)"
    )
    replica_docs(r_ship)
    r_ship.add_argument(
        "--follow",
        action="store_true",
        help="run as the continuous shipping daemon: tail the primary's "
        "WAL (wake on append, bounded poll fallback) and stream frames "
        "to every --connect/--listen standby, reconnecting with backoff "
        "and resuming from each standby's acknowledged positions",
    )
    r_ship.add_argument(
        "--connect",
        action="append",
        metavar="HOST:PORT",
        help="with --follow: a listening `replica follow` applier to "
        "feed (repeatable — one live link per standby)",
    )
    r_ship.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="with --follow: accept applier connections here instead "
        "(the reverse topology; port 0 picks a free port, printed)",
    )
    r_ship.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="with --follow: the bounded poll fallback for appends made "
        "by other processes (default: 0.2)",
    )
    r_ship.add_argument(
        "--backoff-base",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="with --follow: first reconnect delay, doubling per failed "
        "attempt (default: 0.05)",
    )
    r_ship.add_argument(
        "--backoff-max",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="with --follow: reconnect delay ceiling (default: 2.0)",
    )
    r_ship.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="with --follow: serve HTTP /metrics, /stats and /healthz "
        "on 127.0.0.1:PORT with every link's shipper attached "
        "(repro_shipper_lag, repro_follower_connected)",
    )
    r_ship.set_defaults(handler=_cmd_replica_ship)

    r_follow = replica_commands.add_parser(
        "follow",
        help="the applier end of a live feed: accept (or dial) a "
        "`replica ship --follow` daemon, apply shipped frames durably, "
        "acknowledge positions; survives kill -9 at any byte",
    )
    r_follow.add_argument("--standby", required=True)
    r_follow.add_argument(
        "--primary",
        help="record the primary's directory in the standby (enables "
        "lag measurement and lease fencing at promotion when reachable)",
    )
    r_follow.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="wait for the daemon here (port 0 picks a free port, printed)",
    )
    r_follow.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="dial a `replica ship --follow --listen` daemon instead",
    )
    r_follow.set_defaults(handler=_cmd_replica_follow)

    r_spool = replica_commands.add_parser(
        "spool",
        help="ship frames into an append-only spool file (apply them "
        "elsewhere with `replica apply`)",
    )
    r_spool.add_argument("--primary", required=True)
    r_spool.add_argument("--spool", required=True, help="spool file to append to")
    replica_docs(r_spool)
    r_spool.add_argument(
        "--after",
        type=int,
        default=None,
        metavar="SEQ",
        help="resume one document's stream after SEQ instead of "
        "bootstrapping (requires exactly one --id)",
    )
    r_spool.add_argument(
        "--fsync-spool",
        action="store_true",
        help="fsync the spool after every frame",
    )
    r_spool.set_defaults(handler=_cmd_replica_spool)

    r_apply = replica_commands.add_parser(
        "apply",
        help="apply a spool file's complete frames to a standby "
        "(creates the standby store if missing; duplicates are skipped, "
        "so replaying a spool is always safe)",
    )
    r_apply.add_argument("--standby", required=True)
    r_apply.add_argument("--spool", required=True)
    r_apply.add_argument(
        "--primary",
        help="record the primary's directory in the standby (enables lag "
        "measurement and lease fencing at promotion when it is reachable)",
    )
    r_apply.set_defaults(handler=_cmd_replica_apply)

    r_status = replica_commands.add_parser(
        "status",
        help="replication positions and lag of a standby as JSON "
        "(--table for aligned DOC/APPLIED/LAG columns)",
    )
    r_status.add_argument("--standby", required=True)
    r_status.add_argument(
        "--table",
        action="store_true",
        help="print aligned per-document columns instead of JSON "
        "(an unmeasurable lag shows as '?')",
    )
    r_status.add_argument("--out")
    r_status.set_defaults(handler=_cmd_replica_status)

    r_promote = replica_commands.add_parser(
        "promote",
        help="promote a standby to primary, fencing the old primary's "
        "per-document write leases",
    )
    r_promote.add_argument("--standby", required=True)
    r_promote.add_argument(
        "--no-fence",
        action="store_true",
        help="flip the role without touching the old primary's leases",
    )
    r_promote.set_defaults(handler=_cmd_replica_promote)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        # One shared table (repro.errors._ERROR_TABLE) maps typed
        # errors to stable codes: scripts can switch on the exit code
        # instead of scraping tracebacks, and the server ships the same
        # code in its error payloads.
        print(f"error[{error_code(error)}]: {error}", file=sys.stderr)
        return exit_code(error)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
