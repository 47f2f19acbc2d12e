"""Shard sessions behind the router's dispatch interface.

A :class:`LocalShardPool` owns one :class:`~repro.session.DocumentSession`
per shard and answers the router's dispatches, in order, on the calling
thread:

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

Propagation is pure Python, so previews of several shards run one after
another: a thread fan-out would only contend on the interpreter lock.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Callable, Sequence

from ..core.choosers import PathChooser
from ..editing import EditScript, Op
from ..errors import ShardWorkerError
from ..obs import span as _span
from ..xmltree import NodeId, Tree
from ..xmltree.nodeid import numeric_suffix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import ViewEngine
    from ..session import DocumentSession

__all__ = ["LocalShardPool", "consumed_fresh", "renumber_fresh"]

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
    """In-process shard sessions, served in dispatch order.

    *session_factory* (``(shard_id, tree) -> DocumentSession``) lets the
    durable layer adopt new shards through the store; the default builds
    plain in-memory sessions off the shared engine.
    """

    def __init__(
        self,
        engine: "ViewEngine",
        *,
        session_factory: "Callable[[NodeId, Tree], DocumentSession] | None" = None,
    ) -> None:
        self._sessions: "dict[NodeId, DocumentSession]" = {}
        self._pending: "dict[NodeId, tuple[EditScript, EditScript, int, int]]" = {}
        self._factory = session_factory or (
            lambda sid, tree: engine.session(tree, validate_source=False)
        )

    def _session(self, shard_id: NodeId) -> "DocumentSession":
        try:
            return self._sessions[shard_id]
        except KeyError:
            raise ShardWorkerError(f"no worker owns shard {shard_id!r}") from None

    # -- membership ----------------------------------------------------

    def shard_ids(self) -> tuple:
        return tuple(self._sessions)

    def adopt(self, shard_id: NodeId, tree: Tree) -> int:
        """Open a session for a (new) shard; returns its max ``f``-suffix."""
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
        pairs for :meth:`commit` (none when any preview fails)."""
        parked: "dict[NodeId, tuple[EditScript, EditScript, int, int]]" = {}
        for shard_id, update, floor in requests:
            with _span("shard.propagate", shard=str(shard_id)):
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
            parked[shard_id] = (update, script, consumed, floor)
        self._pending.update(parked)
        return {
            shard_id: (script.cost, consumed)
            for shard_id, (_, script, consumed, _) in parked.items()
        }

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
        self._sessions.clear()
        self._pending.clear()
