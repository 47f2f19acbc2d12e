"""Standby stores and replica sessions: the receive side of WAL shipping.

A :class:`StandbyStore` is a :class:`~repro.store.DocumentStore` whose
documents advance **only** by applying shipped frames — never by local
propagation. Because what ships is the primary's own durable artifact
(WAL records and snapshot bodies, byte for byte), a standby document is
not "similar" to the primary: its log records are the identical bytes,
so recovery on either side reconstructs the identical tree — and view —
at every acknowledged sequence number. Local writes are refused
(:class:`~repro.errors.ReadOnlyReplicaError`) until :meth:`promote`,
which flips the store's role and fences the old primary's per-document
write lease (:mod:`repro.store.lease`) so a partitioned-away primary
cannot keep extending a history the standby has taken over.

A :class:`ReplicaSession` serves reads from one standby document with a
warm :class:`~repro.session.DocumentSession` (view/size/id caches
carried), refreshed incrementally from the standby's log —
:meth:`ReplicaSession.refresh` applies only the newly shipped records —
and with observable, optionally bounded staleness: :meth:`ReplicaSession.read`
raises :class:`~repro.errors.ReplicationLagError` when the standby
trails the primary by more than the caller tolerates.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from ..dtd import parse_dtd
from ..editing import EditScript
from ..editing.script import check_record_syntax
from ..errors import (
    ReadOnlyReplicaError,
    ReplicationError,
    ReplicationLagError,
    ScriptError,
    TreeError,
)
from ..registry import schema_fingerprint
from ..store import DocumentStore
from ..store.lease import acquire_lease, lease_path
from ..store.snapshot import list_snapshots, write_snapshot
from ..store.store import _ANN_FILE, _DTD_FILE, _META, _SNAP_DIR, _WAL_FILE, _write_file
from ..store.wal import (
    create_wal,
    encode_record,
    scan_wal,
    truncate_torn_tail,
    wal_cursor,
)
from ..views import Annotation
from ..xmltree import Tree, tree_from_xml
from .transport import Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..framing import TailCursor
    from ..session import DocumentSession

__all__ = ["StandbyStore", "ReplicaSession"]

_REPLICA_MARKER = "replica.json"
_REPLICA_FORMAT = 1


class StandbyStore(DocumentStore):
    """A document store fed by shipped WAL frames (see module docstring).

    Parameters beyond :class:`~repro.store.DocumentStore`'s:

    primary_root:
        Where the primary store lives, when the standby can see it (same
        filesystem / shared volume). Enables lag measurement against the
        primary's live log and lease fencing at promotion; a standby fed
        purely over a wire leaves it ``None`` and measures lag against
        the sequence numbers the shipper reports.
    """

    def __init__(
        self,
        root: "Path | str",
        *,
        create: bool = False,
        primary_root: "Path | str | None" = None,
        **kwargs,
    ) -> None:
        super().__init__(root, create=create, **kwargs)
        marker = self.root / _REPLICA_MARKER
        if not marker.is_file():
            if not create:
                raise ReplicationError(
                    f"{self.root} is not a replica (no {_REPLICA_MARKER}); "
                    "initialise one with StandbyStore.init(root, "
                    "primary_root=...)"
                )
            self._role = "standby"
            self._primary_root = (
                str(Path(primary_root)) if primary_root is not None else None
            )
            self._write_marker()
        else:
            header = json.loads(marker.read_text(encoding="utf-8"))
            if header.get("format") != _REPLICA_FORMAT:
                raise ReplicationError(
                    f"replica marker format {header.get('format')!r} is not "
                    f"supported (this library writes format {_REPLICA_FORMAT})"
                )
            self._role = header.get("role", "standby")
            self._primary_root = header.get("primary_root")
            if primary_root is not None:
                self._primary_root = str(Path(primary_root))
                self._write_marker()
        self._applied: "dict[str, int]" = {}
        self._lag_cursors: "dict[str, TailCursor]" = {}  # over the primary's logs

    def _write_marker(self) -> None:
        _write_file(
            self.root / _REPLICA_MARKER,
            json.dumps(
                {
                    "format": _REPLICA_FORMAT,
                    "role": self._role,
                    "primary_root": self._primary_root,
                },
                sort_keys=True,
            )
            + "\n",
        )

    # ------------------------------------------------------------------
    # Role
    # ------------------------------------------------------------------

    @property
    def role(self) -> str:
        """``"standby"`` (read-only, advancing by shipped frames) or
        ``"primary"`` (promoted; a normal writable store)."""
        return self._role

    @property
    def primary_root(self) -> "str | None":
        return self._primary_root

    def _refuse_writes(self, what: str) -> None:
        if self._role == "standby":
            raise ReadOnlyReplicaError(
                f"{what} refused: this store is a standby replica — its "
                "documents advance only by applying shipped WAL frames. "
                "promote() it to take writes here."
            )

    def put(self, doc_id, source, dtd, annotation, **kwargs):
        self._refuse_writes(f"put({doc_id!r})")
        return super().put(doc_id, source, dtd, annotation, **kwargs)

    def open_session(self, doc_id, **kwargs):
        self._refuse_writes(f"open_session({doc_id!r})")
        return super().open_session(doc_id, **kwargs)

    def compact(self, doc_id):
        # Compaction rewrites the log; on a standby that is the shipper's
        # prerogative (checkpoint frames), not a local decision.
        self._refuse_writes(f"compact({doc_id!r})")
        return super().compact(doc_id)

    def promote(self, *, fence: bool = True) -> dict:
        """Take over as primary: flip the store's role and fence the old
        primary's write leases.

        For every replicated document, the old primary's per-document
        lease epoch is bumped (owner ``promoted:<standby root>``) when
        its store directory is reachable — a still-live
        :class:`~repro.store.DurableSession` over there raises
        :class:`~repro.errors.LeaseFencedError` at its next journal
        append instead of extending a history this standby no longer
        follows. An unreachable primary (real network partition) is
        fenced implicitly: it cannot ship frames here, and this store
        stops applying any.

        Returns a summary: the new role, which documents' primary leases
        were fenced, and which could not be reached.
        """
        fenced: "list[str]" = []
        unreachable: "list[str]" = []
        if fence and self._primary_root is not None:
            primary_docs = Path(self._primary_root) / "docs"
            for doc_id in self.documents():
                doc_dir = primary_docs / doc_id
                if doc_dir.is_dir():
                    # fence=True makes the takeover sticky (no ordinary
                    # open on the old primary can reclaim the document);
                    # force=True keeps promotion idempotent — re-fencing
                    # a lease this (or an earlier) promotion already
                    # fenced is deliberate, not an accident.
                    acquire_lease(
                        lease_path(doc_dir),
                        f"promoted:{self.root}",
                        fence=True,
                        force=True,
                    )
                    fenced.append(doc_id)
                else:
                    unreachable.append(doc_id)
        elif fence:
            unreachable = self.documents()
        self._role = "primary"
        self._write_marker()
        return {
            "role": self._role,
            "fenced": fenced,
            "unreachable": unreachable,
        }

    # ------------------------------------------------------------------
    # Applying shipped frames
    # ------------------------------------------------------------------

    def applied_seq(self, doc_id: str) -> int:
        """The last sequence number durably applied for *doc_id* — the
        standby's acknowledgement position.

        The first look at a document's log also truncates a torn final
        record — the signature of an applier killed mid-append. By
        write-ahead discipline the torn record was never acknowledged,
        and it must not stay in the file: appending the re-shipped copy
        after torn bytes would read as interior corruption forever.
        This is the apply-side twin of what :class:`WalWriter` does when
        it opens a log (within one process, our own appends are flushed
        whole, so one repair per document per process suffices).
        """
        cached = self._applied.get(doc_id)
        if cached is None:
            wal = self._require_doc(doc_id) / _WAL_FILE
            scan = scan_wal(wal)
            truncate_torn_tail(wal, scan)
            cached = scan.last_seq
            self._applied[doc_id] = cached
        return cached

    def positions(self) -> "dict[str, int]":
        """Acknowledged sequence number per replicated document."""
        return {doc_id: self.applied_seq(doc_id) for doc_id in self.documents()}

    def lag(self, doc_id: str) -> "int | None":
        """How many acknowledged primary records this standby has not
        applied yet, when the primary's log is reachable (``None``
        otherwise — measure against the shipper's reported head)."""
        if self._primary_root is None:
            return None
        wal = Path(self._primary_root) / "docs" / doc_id / _WAL_FILE
        if not wal.is_file():
            return None
        cursor = self._lag_cursors.get(doc_id)
        if cursor is None:
            cursor = self._lag_cursors.setdefault(doc_id, wal_cursor(wal))
        return max(0, cursor.read().last_seq - self.applied_seq(doc_id))

    def apply_frames(self, frames: "Iterable[Frame]") -> "dict[str, int]":
        """Apply a drained batch of frames; returns counts by outcome
        (``applied``, ``skipped`` — already-acknowledged duplicates)."""
        outcome = {"applied": 0, "skipped": 0}
        for frame in frames:
            outcome["applied" if self.apply_frame(frame) else "skipped"] += 1
        return outcome

    def apply_frame(self, frame: Frame) -> bool:
        """Apply one shipped frame; returns whether it advanced the
        standby (``False`` for an already-applied duplicate — replaying
        a spool from byte 0 is always safe).

        Raises :class:`~repro.errors.ReplicationError` for a record that
        would leave a sequence gap (the shipper must bridge a compacted
        prefix with a ``checkpoint`` frame), a schema that contradicts
        the replicated document's, or a payload that does not decode to
        what its kind promises.
        """
        if self._role != "standby":
            raise ReplicationError(
                "this store was promoted to primary; it no longer applies "
                "shipped frames (a new standby can be seeded from it)"
            )
        try:
            if frame.kind == "bootstrap":
                return self._apply_bootstrap(frame.payload)
            if frame.kind == "checkpoint":
                return self._apply_checkpoint(frame.payload)
            if frame.kind == "record":
                return self._apply_record(frame.payload)
        except KeyError as error:
            raise ReplicationError(
                f"{frame.kind} frame payload lacks field {error}"
            ) from error
        raise ReplicationError(f"unknown frame kind {frame.kind!r}")

    def _parse_snapshot_tree(self, payload: dict) -> Tree:
        try:
            return tree_from_xml(payload["snapshot_xml"], require_ids=True)
        except (TreeError, ValueError, SyntaxError) as error:
            raise ReplicationError(
                f"shipped snapshot for {payload.get('doc_id')!r} is not an "
                f"identifier-carrying XML document ({error})"
            ) from error

    def _apply_bootstrap(self, payload: dict) -> bool:
        doc_id = payload["doc_id"]
        schema_hash = payload["schema"]
        seq = payload["snapshot_seq"]
        dtd_text, ann_text = payload["dtd"], payload["annotation"]
        actual = schema_fingerprint(
            parse_dtd(dtd_text), Annotation.parse(ann_text)
        )
        if actual != schema_hash:
            raise ReplicationError(
                f"bootstrap for {doc_id!r}: shipped schema files hash to "
                f"{actual[:12]}… but the frame claims {schema_hash[:12]}…"
            )
        if self.exists(doc_id):
            recorded = self.meta(doc_id)["schema"]
            if recorded != schema_hash:
                raise ReplicationError(
                    f"bootstrap for {doc_id!r} carries schema "
                    f"{schema_hash[:12]}… but the replica already follows "
                    f"{recorded[:12]}… — refusing to silently switch views"
                )
            if self.applied_seq(doc_id) >= seq:
                return False  # replayed spool prefix; already past this
        tree = self._parse_snapshot_tree(payload)
        directory = self._doc_dir(doc_id)
        directory.mkdir(parents=True, exist_ok=True)
        _write_file(directory / _DTD_FILE, dtd_text)
        _write_file(directory / _ANN_FILE, ann_text)
        write_snapshot(directory / _SNAP_DIR, tree, seq=seq, schema_hash=schema_hash)
        create_wal(directory / _WAL_FILE, base_seq=seq)
        _write_file(
            directory / _META,
            json.dumps(
                {"format": 1, "doc_id": doc_id, "schema": schema_hash},
                sort_keys=True,
            )
            + "\n",
        )
        self._applied[doc_id] = seq
        return True

    def _apply_checkpoint(self, payload: dict) -> bool:
        doc_id = payload["doc_id"]
        seq = payload["snapshot_seq"]
        recorded = self.meta(doc_id)["schema"]
        if payload["schema"] != recorded:
            raise ReplicationError(
                f"checkpoint for {doc_id!r} was taken under schema "
                f"{str(payload['schema'])[:12]}…, but the replica follows "
                f"{recorded[:12]}…"
            )
        if self.applied_seq(doc_id) >= seq:
            return False  # already at or past this checkpoint
        tree = self._parse_snapshot_tree(payload)
        # Re-base the replica at *seq*: the records between its position
        # and the checkpoint were compacted away on the primary, so the
        # shipped snapshot is the authoritative bridge. Snapshot first,
        # then the log rewrite — a kill between the two leaves the
        # snapshot ahead of the log, which plain recovery refuses (as it
        # must: on a primary that state means acknowledged records
        # vanished), but re-applying this same frame completes the
        # install: apply is idempotent, so spool replay self-heals it.
        directory = self._require_doc(doc_id)
        write_snapshot(directory / _SNAP_DIR, tree, seq=seq, schema_hash=recorded)
        snapshots = list_snapshots(directory / _SNAP_DIR)
        for _, path in snapshots[: -self._keep_snapshots or None]:
            path.unlink(missing_ok=True)
        create_wal(directory / _WAL_FILE, base_seq=seq)
        self._applied[doc_id] = seq
        return True

    def _apply_record(self, payload: dict) -> bool:
        doc_id, seq, text = payload["doc_id"], payload["seq"], payload["text"]
        if not self.exists(doc_id):
            raise ReplicationError(
                f"record {seq} for {doc_id!r} arrived before any bootstrap "
                "frame — the shipper must seed the document first"
            )
        applied = self.applied_seq(doc_id)
        if seq <= applied:
            return False  # duplicate from a spool replay
        if seq != applied + 1:
            raise ReplicationError(
                f"record {seq} for {doc_id!r} does not extend the replica "
                f"log contiguously (acknowledged up to {applied}) — a "
                "checkpoint frame must bridge the compacted gap"
            )
        # Refuse garbage before acknowledging it: the record must read as
        # record text, whole or with skips, as the primary's journal
        # wrote it. A syntax check: whether it fits the document is
        # decided where it is replayed, against that document.
        try:
            check_record_syntax(text)
        except (ScriptError, TreeError) as error:
            raise ReplicationError(
                f"record {seq} for {doc_id!r} is not an edit script "
                f"({error}) — refusing to acknowledge it"
            ) from error
        directory = self._require_doc(doc_id)
        with open(directory / _WAL_FILE, "ab") as handle:
            handle.write(encode_record(seq, text))
            handle.flush()
            if self.fsync == "always":
                os.fsync(handle.fileno())
        self._applied[doc_id] = seq
        return True

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def replica_session(
        self, doc_id: str, *, max_lag: "int | None" = None
    ) -> "ReplicaSession":
        """Open a read-only, incrementally refreshed session over one
        replicated document (see :class:`ReplicaSession`)."""
        return ReplicaSession(self, doc_id, max_lag=max_lag)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self, doc_id: "str | None" = None) -> dict:
        payload = super().stats(doc_id)
        if doc_id is None:
            payload["replication"] = {
                "role": self._role,
                "primary_root": self._primary_root,
                "positions": self.positions(),
                "lag": {one: self.lag(one) for one in self.documents()},
            }
        else:
            payload["applied_seq"] = self.applied_seq(doc_id)
            payload["lag"] = self.lag(doc_id)
        return payload

    def __repr__(self) -> str:
        return f"StandbyStore({str(self.root)!r}, role={self._role!r})"


class ReplicaSession:
    """Read-only serving from one standby document (see module docstring).

    Construction replays the standby's snapshot + log through a warm
    :class:`~repro.session.DocumentSession` (engine fetched from the
    standby's registry); :meth:`refresh` then advances it incrementally
    along records shipped since — O(new records), not O(history).

    Not thread-safe, like the session it wraps.
    """

    def __init__(
        self,
        standby: StandbyStore,
        doc_id: str,
        *,
        max_lag: "int | None" = None,
    ) -> None:
        if max_lag is not None and max_lag < 0:
            raise ReplicationError(f"max_lag must be >= 0, got {max_lag}")
        self._standby = standby
        self._doc_id = doc_id
        self._max_lag = max_lag
        self._engine, self._session, self._recovered = standby._replay_session(
            doc_id
        )
        self._applied = self._recovered.last_seq
        # reads only the log tail past the last refresh; the first read,
        # and any after the log is rewritten under us, reads it in full
        self._cursor = wal_cursor(standby._require_doc(doc_id) / _WAL_FILE)
        self._refreshes = 0
        self._records_applied = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def doc_id(self) -> str:
        return self._doc_id

    @property
    def session(self) -> "DocumentSession":
        """The wrapped read-only session (no journal attached)."""
        return self._session

    @property
    def source(self) -> Tree:
        """The replicated source document as of :attr:`applied_seq`."""
        return self._session.source

    @property
    def view(self) -> Tree:
        """The replicated view as of :attr:`applied_seq`."""
        return self._session.view

    @property
    def applied_seq(self) -> int:
        """The sequence number this session currently serves."""
        return self._applied

    @property
    def max_lag(self) -> "int | None":
        """The session-wide staleness bound :meth:`read` enforces."""
        return self._max_lag

    def lag(self) -> "int | None":
        """Records the *standby* has acknowledged but this session has
        not applied yet, plus the standby's own lag behind the primary
        when measurable — ``None`` when the primary is unreachable."""
        behind_standby = self._standby.applied_seq(self._doc_id) - self._applied
        upstream = self._standby.lag(self._doc_id)
        if upstream is None:
            return None
        return behind_standby + upstream

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def refresh(self) -> int:
        """Apply records the standby acknowledged since the last refresh;
        returns how many. Incremental: after the first refresh, only the
        log tail past this session's position is read and replayed —
        O(new records), not O(history)."""
        scan = self._cursor.read()
        if scan.base_seq > self._applied:
            # The shipper re-based the standby past this session's
            # position (checkpoint frame); incremental replay is
            # impossible — rebuild from the new snapshot chain.
            self._engine, self._session, self._recovered = (
                self._standby._replay_session(self._doc_id)
            )
            applied, self._applied = self._applied, self._recovered.last_seq
            self._cursor.state = None
            self._refreshes += 1
            self._records_applied += max(0, self._applied - applied)
            return max(0, self._applied - applied)
        count = 0
        for record in scan.records:
            if record.seq <= self._applied:
                continue
            try:
                script = EditScript.parse(
                    record.text, base=self._session.source, skips=True
                )
            except (ScriptError, TreeError) as error:
                self._cursor.state = None
                raise ReplicationError(
                    f"replica log record {record.seq} does not extend the "
                    f"session's document ({error})"
                ) from error
            self._session.apply_source_script(script)
            self._applied = record.seq
            count += 1
        self._refreshes += 1
        self._records_applied += count
        return count

    def read(self, *, max_lag: "int | None" = None, refresh: bool = True) -> Tree:
        """The freshest view this replica can serve, bounded-staleness.

        Refreshes first (pass ``refresh=False`` to serve the current
        position), then enforces the lag bound — *max_lag* here, falling
        back to the session-wide bound. Exceeding it raises
        :class:`~repro.errors.ReplicationLagError`, as does a bound
        given while the primary is unreachable (wire-only shipping, no
        primary marker): bounded-staleness reads fail **closed** — an
        unmeasurable lag is treated as unbounded, never as zero — so
        callers can fall back to the primary with one ``except``
        clause.
        """
        if refresh:
            self.refresh()
        bound = max_lag if max_lag is not None else self._max_lag
        if bound is not None:
            lag = self.lag()
            if lag is None:
                raise ReplicationLagError(
                    f"replica of {self._doc_id!r} cannot bound its lag: the "
                    "primary's log is not reachable from this standby, and "
                    "an unmeasurable lag is not a satisfied one — read "
                    "without a bound, or route to the primary"
                )
            if lag > bound:
                raise ReplicationLagError(
                    f"replica of {self._doc_id!r} is {lag} records behind "
                    f"the primary (bound: {bound}) — ship and refresh, or "
                    "read with a looser bound"
                )
        return self._session.view

    def propagate(self, *args, **kwargs):
        """Replicas do not translate view updates — send writes to the
        primary (or :meth:`StandbyStore.promote` this standby first)."""
        raise ReadOnlyReplicaError(
            f"replica session of {self._doc_id!r} is read-only; propagate "
            "against the primary, or promote the standby"
        )

    serve = propagate

    @property
    def stats(self) -> dict:
        """JSON-serializable counters: position, lag, refresh traffic,
        and the wrapped session's cache counters."""
        from dataclasses import asdict

        return {
            "doc_id": self._doc_id,
            "applied_seq": self._applied,
            "standby_applied_seq": self._standby.applied_seq(self._doc_id),
            "lag": self.lag(),
            "max_lag": self._max_lag,
            "refreshes": self._refreshes,
            "records_applied": self._records_applied,
            "session": asdict(self._session.stats),
        }

    def __repr__(self) -> str:
        return (
            f"ReplicaSession({self._doc_id!r}, applied_seq={self._applied}, "
            f"max_lag={self._max_lag})"
        )
