"""Shard workers: per-shard sessions behind a uniform pool interface.

A pool owns one :class:`~repro.session.DocumentSession` per shard and
answers the router's dispatches:

``preview``
    propagate a shard-local update against the shard, **without
    advancing** (``advance=False``), numbering fresh nodes from the
    document-global floor the router reserved; report the script cost
    and how many fresh identifiers the propagation consumed.
``commit``
    renumber the previewed script's fresh identifiers into their
    document-global slots (the router's document-order offsets) and
    advance the session along the final ``(update, script)`` pair via
    :meth:`~repro.session.DocumentSession.advance_script` — which is
    where a durable shard's write-ahead journal fires, so the log
    records exactly the renumbered script replay must re-apply.
``apply``
    advance along an externally computed pair — the boundary (slow)
    path, where the router propagated the whole document locally and
    redistributes the per-shard subscripts.
``text``
    the shard's current view or source in term notation with every
    node ``Nop`` — the router's cached shard text.

Two implementations share the interface:

* :class:`LocalShardPool` keeps sessions in-process and fans previews
  out on a thread pool (propagation is pure Python, so threads overlap
  only around the GIL — but a single-shard dispatch, the common case,
  runs inline with zero handoff cost). This is the only mode that can
  host **durable** shard sessions, whose WAL handles cannot cross a
  process boundary.
* :class:`ProcessShardPool` pins shards to long-lived worker processes
  over pipes. The engine crosses as its serialized schema (reusing
  :mod:`repro.parallel`'s envelope); trees and scripts cross as term
  notation, so shard node identifiers must be term-safe.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import TYPE_CHECKING, Callable, Sequence

from ..core.choosers import PathChooser
from ..editing import EditScript, Op
from ..errors import ShardingError, ShardWorkerError
from ..obs import current_span, span as _span
from ..xmltree import NodeId, Tree, parse_term
from ..xmltree.nodeid import numeric_suffix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import ViewEngine
    from ..session import DocumentSession

__all__ = ["LocalShardPool", "ProcessShardPool", "consumed_fresh", "renumber_fresh"]

_FRESH = "f"


def consumed_fresh(script: EditScript, floor: int) -> int:
    """How many fresh identifiers at or above *floor* the script holds.

    A propagation started at ``fresh_floor=floor`` numbers its fresh
    nodes consecutively from the floor and every generated identifier
    lands in the script (inserted fragments are emitted wholesale), so
    this count is exactly the slots the shard consumed.
    """
    count = 0
    for node in script.tree._labels:
        suffix = numeric_suffix(node, _FRESH)
        if suffix is not None and suffix >= floor:
            count += 1
    return count


def _edited_ids(script: EditScript) -> "tuple[list[NodeId], list[NodeId]]":
    """The script's inserted and its deleted node identifiers."""
    inserted: "list[NodeId]" = []
    deleted: "list[NodeId]" = []
    for node, label in script.tree._labels.items():
        if label.op is Op.INS:
            inserted.append(node)
        elif label.op is Op.DEL:
            deleted.append(node)
    return inserted, deleted


def renumber_fresh(script: EditScript, floor: int, offset: int, count: int) -> EditScript:
    """Shift the script's fresh identifiers ``f{floor}..f{floor+count-1}``
    up by *offset* — into the document-order slots the router assigned.

    Collision-free by construction: every pre-existing identifier's
    ``f``-suffix is below the floor (that is what the floor means), and
    the shifted range stays above it.
    """
    if offset == 0 or count == 0:
        return script
    mapping = {
        f"{_FRESH}{floor + j}": f"{_FRESH}{floor + offset + j}" for j in range(count)
    }
    return EditScript._trusted(script.tree.relabel_nodes(mapping))


class LocalShardPool:
    """In-process shard sessions; previews fan out on threads.

    *session_factory* (``(shard_id, tree) -> DocumentSession``) lets the
    durable layer adopt new shards through the store; the default builds
    plain in-memory sessions off the shared engine.
    """

    mode = "thread"

    def __init__(
        self,
        engine: "ViewEngine",
        *,
        workers: "int | None" = None,
        session_factory: "Callable[[NodeId, Tree], DocumentSession] | None" = None,
    ) -> None:
        self._engine = engine
        self._workers = workers
        self._executor: "ThreadPoolExecutor | None" = None
        self._sessions: "dict[NodeId, DocumentSession]" = {}
        self._pending: "dict[NodeId, tuple[EditScript, EditScript, int, int]]" = {}
        self._factory = session_factory or (
            lambda sid, tree: engine.session(tree, validate_source=False)
        )

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._workers or min(8, os.cpu_count() or 1)
            )
        return self._executor

    def _session(self, shard_id: NodeId) -> "DocumentSession":
        try:
            return self._sessions[shard_id]
        except KeyError:
            raise ShardWorkerError(f"no worker owns shard {shard_id!r}") from None

    # -- membership ----------------------------------------------------

    def shard_ids(self) -> tuple:
        return tuple(self._sessions)

    def adopt(self, shard_id: NodeId, tree: Tree) -> int:
        """Hand a (new) shard to a worker; returns its max ``f``-suffix."""
        session = self._factory(shard_id, tree)
        self._sessions[shard_id] = session
        return session.fresh_suffix_max

    def attach(self, shard_id: NodeId, session: "DocumentSession") -> int:
        """Adopt an already-open session (durable reopen path)."""
        self._sessions[shard_id] = session
        return session.fresh_suffix_max

    def drop(self, shard_id: NodeId) -> None:
        self._sessions.pop(shard_id, None)
        self._pending.pop(shard_id, None)

    # -- serving -------------------------------------------------------

    def preview(
        self,
        requests: "Sequence[tuple[NodeId, EditScript, int]]",
        *,
        chooser: PathChooser,
        optimal: bool,
        validate: bool,
    ) -> "dict[NodeId, tuple[int, int]]":
        """Propagate shard-local updates without advancing; returns
        ``{shard_id: (cost, fresh_consumed)}`` and parks the previewed
        pairs for :meth:`commit`."""

        # pool threads do not inherit the ambient context — hand each
        # per-shard span the dispatching request's span explicitly, so
        # stragglers show up as children of the fan-out, not as orphans
        parent = current_span()

        def one(request: "tuple[NodeId, EditScript, int]"):
            shard_id, update, floor = request
            with _span("shard.propagate", parent=parent, shard=str(shard_id)):
                session = self._session(shard_id)
                script = session.propagate(
                    update,
                    chooser=chooser,
                    optimal=optimal,
                    validate=validate,
                    advance=False,
                    fresh_floor=floor,
                )
                consumed = consumed_fresh(script, floor)
            return shard_id, (update, script, consumed, floor)

        if len(requests) == 1:
            # the common per-edit case: one shard touched — skip the
            # executor handoff entirely, it would dominate the latency
            results = [one(requests[0])]
        else:
            results = list(self._pool().map(one, requests))
        out: "dict[NodeId, tuple[int, int]]" = {}
        for shard_id, parked in results:
            self._pending[shard_id] = parked
            out[shard_id] = (parked[1].cost, parked[2])
        return out

    def commit(
        self, offsets: "dict[NodeId, int]", *, want_script: bool
    ) -> "dict[NodeId, tuple]":
        """Renumber and advance every parked preview; returns per shard
        the new max ``f``-suffix, the final script when asked (else
        ``None``), and the script's inserted and deleted identifiers."""
        out: "dict[NodeId, tuple]" = {}
        for shard_id, offset in offsets.items():
            try:
                update, script, consumed, floor = self._pending.pop(shard_id)
            except KeyError:
                raise ShardWorkerError(
                    f"commit without preview for shard {shard_id!r}"
                ) from None
            script = renumber_fresh(script, floor, offset, consumed)
            session = self._session(shard_id)
            session.advance_script(update, script)
            out[shard_id] = (
                session.fresh_suffix_max,
                script if want_script else None,
                *_edited_ids(script),
            )
        return out

    def apply(
        self, shard_id: NodeId, update: EditScript, script: EditScript
    ) -> int:
        """Advance a shard along an externally computed pair (slow path)."""
        session = self._session(shard_id)
        session.advance_script(update, script)
        return session.fresh_suffix_max

    # -- introspection -------------------------------------------------

    def fetch(self, shard_id: NodeId) -> Tree:
        return self._session(shard_id).source

    def text(self, shard_id: NodeId, *, view: bool) -> str:
        session = self._session(shard_id)
        return EditScript.phantom_pieces(session.view if view else session.source)[0]

    def suffix_max(self, shard_id: NodeId) -> int:
        return self._session(shard_id).fresh_suffix_max

    def stats(self, shard_id: NodeId) -> dict:
        return asdict(self._session(shard_id).stats)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._sessions.clear()
        self._pending.clear()


def _shard_worker_main(conn, spec: tuple) -> None:
    """Worker-process loop: own some shards, answer pipe commands.

    Reuses :func:`repro.parallel._worker_init` to reconstruct the engine
    from its serialized schema (under ``fork`` the registry entry is
    typically inherited pre-compiled).
    """
    from ..core.choosers import chooser_from_key
    from ..parallel import _WORKER_ENGINE, _worker_init

    _worker_init(spec)
    engine = _WORKER_ENGINE["engine"]
    sessions: dict = {}
    pending: dict = {}
    while True:
        try:
            message = conn.recv()
        except EOFError:  # pragma: no cover - parent died
            break
        command = message[0]
        try:
            if command == "close":
                conn.send(("ok",))
                break
            if command == "adopt":
                _, shard_id, term = message
                session = engine.session(
                    parse_term(term), validate_source=False
                )
                sessions[shard_id] = session
                conn.send(("ok", session.fresh_suffix_max))
            elif command == "preview":
                _, shard_id, term, floor, key, optimal, validate = message
                session = sessions[shard_id]
                update = EditScript.parse(term)
                script = session.propagate(
                    update,
                    chooser=chooser_from_key(key),
                    optimal=optimal,
                    validate=validate,
                    advance=False,
                    fresh_floor=floor,
                )
                consumed = consumed_fresh(script, floor)
                pending[shard_id] = (update, script, consumed, floor)
                conn.send(("ok", script.cost, consumed))
            elif command == "commit":
                _, shard_id, offset, want_script = message
                update, script, consumed, floor = pending.pop(shard_id)
                script = renumber_fresh(script, floor, offset, consumed)
                sessions[shard_id].advance_script(update, script)
                conn.send((
                    "ok",
                    sessions[shard_id].fresh_suffix_max,
                    script.to_term() if want_script else None,
                    *_edited_ids(script),
                ))
            elif command == "apply":
                _, shard_id, update_term, script_term = message
                sessions[shard_id].advance_script(
                    EditScript.parse(update_term), EditScript.parse(script_term)
                )
                conn.send(("ok", sessions[shard_id].fresh_suffix_max))
            elif command == "fetch":
                conn.send(("ok", sessions[message[1]].source.to_term()))
            elif command == "text":
                _, shard_id, view = message
                session = sessions[shard_id]
                tree = session.view if view else session.source
                conn.send(("ok", EditScript.phantom_pieces(tree)[0]))
            elif command == "suffix":
                conn.send(("ok", sessions[message[1]].fresh_suffix_max))
            elif command == "stats":
                conn.send(("ok", asdict(sessions[message[1]].stats)))
            elif command == "drop":
                sessions.pop(message[1], None)
                pending.pop(message[1], None)
                conn.send(("ok",))
            else:
                conn.send(("err", "ShardWorkerError", f"unknown command {command!r}"))
        except Exception as error:  # noqa: BLE001 - ferried to the parent
            conn.send(("err", type(error).__name__, str(error)))
    conn.close()


class ProcessShardPool:
    """Shards pinned to long-lived worker processes over pipes.

    Each shard is assigned round-robin at adoption and stays with its
    process — the worker's session caches (view, size table, suffix
    index) are the whole point of pinning. Dispatches to distinct
    processes overlap; commands to one process are served in order
    (each pipe is FIFO).

    Trees and scripts cross the boundary as term notation, so node
    identifiers must survive the round trip (the generated workloads'
    do). Durable shard sessions cannot live here — see
    :class:`LocalShardPool`.
    """

    mode = "process"

    def __init__(self, engine: "ViewEngine", *, workers: "int | None" = None) -> None:
        import multiprocessing

        from ..parallel import engine_spec

        spec = engine_spec(engine)
        context = multiprocessing.get_context()
        count = max(1, workers or (os.cpu_count() or 1))
        self._procs = []
        for _ in range(count):
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_shard_worker_main, args=(child_end, spec), daemon=True
            )
            process.start()
            child_end.close()
            self._procs.append((process, parent_end))
        self._owner: "dict[NodeId, int]" = {}
        self._next = 0
        self._closed = False

    def _conn(self, shard_id: NodeId):
        try:
            index = self._owner[shard_id]
        except KeyError:
            raise ShardWorkerError(f"no worker owns shard {shard_id!r}") from None
        return self._procs[index][1]

    @staticmethod
    def _reply(conn):
        reply = conn.recv()
        if reply[0] == "err":
            raise ShardWorkerError(f"shard worker failed: {reply[1]}: {reply[2]}")
        return reply

    def _call(self, conn, message):
        conn.send(message)
        return self._reply(conn)

    # -- membership ----------------------------------------------------

    def shard_ids(self) -> tuple:
        return tuple(self._owner)

    def adopt(self, shard_id: NodeId, tree: Tree) -> int:
        index = self._next % len(self._procs)
        self._next += 1
        self._owner[shard_id] = index
        reply = self._call(
            self._procs[index][1], ("adopt", shard_id, tree.to_term())
        )
        return reply[1]

    def attach(self, shard_id: NodeId, session) -> int:
        raise ShardingError(
            "process-mode shard workers cannot adopt an in-process session "
            "(durable shards need mode='thread')"
        )

    def drop(self, shard_id: NodeId) -> None:
        conn = self._conn(shard_id)
        self._call(conn, ("drop", shard_id))
        del self._owner[shard_id]

    # -- serving -------------------------------------------------------

    def preview(
        self,
        requests: "Sequence[tuple[NodeId, EditScript, int]]",
        *,
        chooser: PathChooser,
        optimal: bool,
        validate: bool,
    ) -> "dict[NodeId, tuple[int, int]]":
        key_of = getattr(chooser, "cache_key", None)
        if key_of is None:
            raise ShardingError(
                "process-mode sharding needs a chooser with a canonical "
                f"cache_key; got {type(chooser).__name__}"
            )
        key = key_of()
        # send everything first — workers overlap — then collect in the
        # same per-pipe order (each pipe answers FIFO)
        sent: "list[tuple[NodeId, object]]" = []
        for shard_id, update, floor in requests:
            conn = self._conn(shard_id)
            conn.send((
                "preview", shard_id, update.to_term(), floor, key, optimal, validate
            ))
            sent.append((shard_id, conn))
        out: "dict[NodeId, tuple[int, int]]" = {}
        for shard_id, conn in sent:
            reply = self._reply(conn)
            out[shard_id] = (reply[1], reply[2])
        return out

    def commit(
        self, offsets: "dict[NodeId, int]", *, want_script: bool
    ) -> "dict[NodeId, tuple]":
        sent = []
        for shard_id, offset in offsets.items():
            conn = self._conn(shard_id)
            conn.send(("commit", shard_id, offset, want_script))
            sent.append((shard_id, conn))
        out: "dict[NodeId, tuple]" = {}
        for shard_id, conn in sent:
            reply = self._reply(conn)
            script = EditScript.parse(reply[2]) if reply[2] is not None else None
            out[shard_id] = (reply[1], script, reply[3], reply[4])
        return out

    def apply(
        self, shard_id: NodeId, update: EditScript, script: EditScript
    ) -> int:
        conn = self._conn(shard_id)
        reply = self._call(
            conn, ("apply", shard_id, update.to_term(), script.to_term())
        )
        return reply[1]

    # -- introspection -------------------------------------------------

    def fetch(self, shard_id: NodeId) -> Tree:
        reply = self._call(self._conn(shard_id), ("fetch", shard_id))
        return parse_term(reply[1])

    def text(self, shard_id: NodeId, *, view: bool) -> str:
        return self._call(self._conn(shard_id), ("text", shard_id, view))[1]

    def suffix_max(self, shard_id: NodeId) -> int:
        return self._call(self._conn(shard_id), ("suffix", shard_id))[1]

    def stats(self, shard_id: NodeId) -> dict:
        return self._call(self._conn(shard_id), ("stats", shard_id))[1]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for process, conn in self._procs:
            try:
                conn.send(("close",))
                conn.recv()
            except (BrokenPipeError, EOFError, OSError):  # pragma: no cover
                pass
            conn.close()
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
        self._owner.clear()
