"""The WAL shipper: stream a primary's durable history to standbys.

The paper's side-effect-free propagation makes the translated edit
script a complete, deterministic description of every state change, so
replication never re-runs the engine: the shipper reads the primary's
write-ahead log and snapshot chain — the artifacts the store already
trusts for crash recovery — and pushes them over a
:class:`~repro.replication.transport.ReplicationTransport` as three
frame kinds:

``bootstrap``
    everything a standby needs to start following a document it has
    never seen: the raw schema files, the newest retained snapshot, and
    the sequence number it stands at;
``record``
    one WAL record (sequence number + record text, the bytes the
    primary journalled), shipped in order from wherever the standby is
    acknowledged up to the log head;
``checkpoint``
    a snapshot alone, bridging a standby that fell behind a compacted
    prefix — the records it still needs were trimmed on the primary, so
    the snapshot re-bases it.

The shipper is **stateless between runs by design**: resume positions
come from the standby's own acknowledged sequence numbers
(:meth:`WalShipper.resume_from`), and standbys skip duplicates, so
re-shipping after any crash — the shipper's, the standby's, or the
transport's — converges without coordination. :func:`replicate` wires a
primary to a reachable standby in one call.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from ..errors import ReplicationError, UnknownDocumentError
from ..obs import span as _span
from ..store import DocumentStore
from ..store.snapshot import list_snapshots, read_snapshot
from ..store.store import _ANN_FILE, _DTD_FILE, _META, _SNAP_DIR, _WAL_FILE
from ..store.wal import wal_cursor
from ..xmltree import tree_to_xml
from .transport import ReplicationTransport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..framing import TailCursor
    from .standby import StandbyStore

__all__ = ["WalShipper", "replicate"]


class WalShipper:
    """Stream one primary store's WAL (and snapshots) over a transport.

    Parameters
    ----------
    primary:
        The store being replicated. The shipper only reads it.
    transport:
        Where frames go — an in-process queue, a socket stream, or a
        spool file (:mod:`repro.replication.transport`).
    doc_ids:
        The documents to ship; default, every document in the store (the
        set is re-listed per :meth:`ship_all`, so documents added later
        are picked up).
    """

    def __init__(
        self,
        primary: DocumentStore,
        transport: ReplicationTransport,
        *,
        doc_ids: "Iterable[str] | None" = None,
        label: "str | None" = None,
    ) -> None:
        self._primary = primary
        self._transport = transport
        self._doc_ids = tuple(doc_ids) if doc_ids is not None else None
        self._positions: "dict[str, int]" = {}
        # one WAL cursor per document for shipping and one for the lag
        # gauge, which /metrics reads from another thread
        self._ship_cursors: "dict[str, TailCursor]" = {}
        self._lag_cursors: "dict[str, TailCursor]" = {}
        self._bootstraps = 0
        self._checkpoints = 0
        self._records = 0
        self._label = label
        #: ``None`` for one-shot shippers; the follow daemon flips this
        #: per link so ``repro_follower_connected`` can be rendered.
        self.connected: "bool | None" = None

    # ------------------------------------------------------------------
    # Positions
    # ------------------------------------------------------------------

    @property
    def positions(self) -> "dict[str, int]":
        """Sequence number shipped so far per document (absent: never
        shipped — the next pass bootstraps it)."""
        return dict(self._positions)

    def resume_from(
        self, acknowledged: "Mapping[str, int] | StandbyStore"
    ) -> "WalShipper":
        """Adopt a standby's acknowledged positions as the resume point
        (pass the standby itself, or any ``{doc_id: seq}`` mapping).
        Returns self, for chaining."""
        if self._label is None:
            root = getattr(acknowledged, "root", None)
            if root is not None:
                self._label = str(root)
        if hasattr(acknowledged, "positions"):
            acknowledged = acknowledged.positions()
        self._positions.update(acknowledged)
        return self

    def restart_from(
        self, acknowledged: "Mapping[str, int] | StandbyStore"
    ) -> "WalShipper":
        """Like :meth:`resume_from`, but the standby's word replaces any
        in-memory positions instead of merging over them — the follow
        daemon's re-handshake path, where a standby that was wiped and
        re-seeded must get a fresh bootstrap, not a resume past history
        it no longer holds."""
        self._positions.clear()
        return self.resume_from(acknowledged)

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------

    def _doc_dir(self, doc_id: str) -> Path:
        directory = self._primary.root / "docs" / doc_id
        if not (directory / _META).is_file():
            raise UnknownDocumentError(doc_id)
        return directory

    def _cursor(self, cursors: "dict[str, TailCursor]", doc_id: str) -> "TailCursor":
        cursor = cursors.get(doc_id)
        if cursor is None:
            cursor = wal_cursor(self._doc_dir(doc_id) / _WAL_FILE)
            cursor = cursors.setdefault(doc_id, cursor)
        return cursor

    def _newest_snapshot(self, doc_id: str, directory: Path, schema_hash: str):
        snapshots = list_snapshots(directory / _SNAP_DIR)
        if not snapshots:
            raise ReplicationError(
                f"document {doc_id!r} has no snapshot to bootstrap a "
                "standby from"
            )
        _, path = snapshots[-1]
        return read_snapshot(path, schema_hash=schema_hash)

    def ship(self, doc_id: str) -> int:
        """Ship everything *doc_id* needs to reach the primary's log
        head from this shipper's resume position; returns frames sent.

        A document never shipped gets a ``bootstrap`` frame first; a
        position that fell behind the log's compacted base gets a
        ``checkpoint`` frame; then WAL records follow in order. Safe to
        re-run at any time — standbys deduplicate by sequence number.
        """
        with _span("replication.ship", doc=doc_id) as sp:
            sent = self._ship(doc_id)
            sp.set(frames=sent)
        return sent

    def _ship(self, doc_id: str) -> int:
        directory = self._doc_dir(doc_id)
        schema_hash = self._primary.meta(doc_id)["schema"]
        position = self._positions.get(doc_id)
        cursor = self._cursor(self._ship_cursors, doc_id)
        state = cursor.state
        if position is None or (state is not None and position < state.seq):
            cursor.state = None  # the standby needs records this cursor passed
        scan = cursor.read()
        sent = 0
        if position is None:
            snapshot = self._newest_snapshot(doc_id, directory, schema_hash)
            self._transport.send(
                "bootstrap",
                {
                    "doc_id": doc_id,
                    "schema": schema_hash,
                    "dtd": (directory / _DTD_FILE).read_text(encoding="utf-8"),
                    "annotation": (directory / _ANN_FILE).read_text(
                        encoding="utf-8"
                    ),
                    "snapshot_seq": snapshot.seq,
                    "snapshot_xml": tree_to_xml(snapshot.tree, indent=False),
                },
            )
            self._bootstraps += 1
            sent += 1
            position = snapshot.seq
        elif position < scan.base_seq:
            # the records this standby still needs were compacted away;
            # bridge with the newest snapshot and continue from there
            snapshot = self._newest_snapshot(doc_id, directory, schema_hash)
            self._transport.send(
                "checkpoint",
                {
                    "doc_id": doc_id,
                    "schema": schema_hash,
                    "snapshot_seq": snapshot.seq,
                    "snapshot_xml": tree_to_xml(snapshot.tree, indent=False),
                },
            )
            self._checkpoints += 1
            sent += 1
            position = snapshot.seq
        for record in scan.records:
            if record.seq <= position:
                continue
            self._transport.send(
                "record",
                {"doc_id": doc_id, "seq": record.seq, "text": record.text},
            )
            self._records += 1
            sent += 1
            position = record.seq
        self._positions[doc_id] = position
        return sent

    def ship_all(self) -> int:
        """One shipping pass over every tracked document; returns frames
        sent (0 when every standby position is already at the head)."""
        doc_ids = (
            self._doc_ids if self._doc_ids is not None else self._primary.documents()
        )
        return sum(self.ship(doc_id) for doc_id in doc_ids)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def label(self) -> str:
        """A stable name for the standby this shipper feeds — the
        standby root adopted by :meth:`resume_from`, an explicit
        ``label=``, or the transport's repr as a last resort."""
        return self._label or type(self._transport).__name__

    def lag(self) -> "dict[str, int]":
        """Records at the primary's log head not yet shipped, per
        tracked document — the ``repro_shipper_lag`` gauge.

        A document never shipped reports its full log depth (everything
        after the newest snapshot still has to travel); reading the
        position map alone cannot tell that apart from "caught up".
        """
        doc_ids = (
            self._doc_ids
            if self._doc_ids is not None
            else self._primary.documents()
        )
        lag: "dict[str, int]" = {}
        for doc_id in doc_ids:
            try:
                cursor = self._cursor(self._lag_cursors, doc_id)
                if doc_id not in self._positions:
                    cursor.state = None  # every record after the log's base is unshipped
                scan = cursor.read()
            except (UnknownDocumentError, OSError):
                continue
            # read after the log, so a ship in between cannot inflate the lag
            position = self._positions.get(doc_id)
            if position is None:
                position = scan.base_seq
            lag[doc_id] = max(0, scan.last_seq - position)
        return lag

    @property
    def stats(self) -> dict:
        """JSON-serializable shipping counters and positions."""
        return {
            "label": self.label,
            "positions": dict(self._positions),
            "lag": self.lag(),
            "bootstraps": self._bootstraps,
            "checkpoints": self._checkpoints,
            "records_shipped": self._records,
        }

    def __repr__(self) -> str:
        return (
            f"WalShipper({self._primary!r}, records={self._records}, "
            f"bootstraps={self._bootstraps})"
        )


def replicate(
    primary: DocumentStore,
    standby: "StandbyStore",
    *,
    transport: "ReplicationTransport | None" = None,
    doc_ids: "Iterable[str] | None" = None,
) -> dict:
    """One synchronous replication pass: ship from *primary*, apply at
    *standby*, resume from the standby's own acknowledged positions.

    The convenience wiring for reachable standbys (same process or same
    filesystem): a fresh :class:`WalShipper` over an in-process queue
    (or the given *transport*), one :meth:`~WalShipper.ship_all`, one
    drain-and-apply. Returns ``{"shipped": frames, "applied": n,
    "skipped": n, "positions": {...}}``.
    """
    from .transport import QueueTransport

    carrier = transport if transport is not None else QueueTransport()
    shipper = WalShipper(primary, carrier, doc_ids=doc_ids).resume_from(standby)
    shipped = shipper.ship_all()
    outcome = standby.apply_frames(carrier.drain())
    return {
        "shipped": shipped,
        "applied": outcome["applied"],
        "skipped": outcome["skipped"],
        "positions": standby.positions(),
    }
