"""Per-document write leases: the two-writer guard made durable.

PR 3's guard against two writers was open-time only: a
:class:`~repro.store.DurableSession` re-scans the log it is about to
append to and refuses to open when the log advanced under it. That
catches a second writer that *already wrote*; it cannot fence a writer
that is still alive but must now stop — the situation promotion creates,
where a standby takes over a document and the old primary, possibly
healthy and merely partitioned away, must not append another record.

A lease is a tiny JSON file next to the document's log::

    docs/<doc_id>/lease.json
    {"format": 1, "epoch": 7, "owner": "host:pid:a1b2c3d4"}

``epoch`` increases monotonically for the lifetime of the document;
``owner`` identifies the current holder (``None`` after a clean
release). Acquiring the lease means writing ``epoch + 1`` with your
owner token — atomically (tmp + rename + directory fsync), so the file
is never half-written. Holding it means the file still carries *your*
(epoch, owner) pair: a :class:`~repro.store.DurableSession` verifies
that before every journal append, and a mismatch raises
:class:`~repro.errors.LeaseFencedError` *before* the record lands —
the fenced writer cannot split the document's history.

Fencing is therefore just acquisition by someone else: a promoted
standby (:meth:`repro.replication.StandbyStore.promote`) bumps the
epoch in the old primary's lease file, and the old primary's next
append is refused. The race window is the classic one for advisory
leases — a writer that passed its verification and is already inside
``append`` finishes that record — which the sequence-contiguity check
on the standby side still catches (a record shipped from a fenced
writer duplicates a sequence number and is dropped as already applied,
or breaks contiguity and raises).
"""

from __future__ import annotations

import json
import os
import socket
import uuid
from dataclasses import dataclass
from pathlib import Path

from ..errors import LeaseFencedError, StoreError
from ..framing import fsync_dir

__all__ = [
    "Lease",
    "lease_path",
    "read_lease",
    "acquire_lease",
    "release_lease",
    "verify_lease",
    "owner_token",
]

_FORMAT = 1
_FILE = "lease.json"


@dataclass(frozen=True)
class Lease:
    """One observation of a document's lease file."""

    epoch: int
    """Monotonic fencing token; bumped by every acquisition."""

    owner: "str | None"
    """Holder token, ``None`` when the lease was released cleanly (the
    epoch is still authoritative: re-acquisition keeps counting)."""

    fenced: bool = False
    """A sticky fence: set by a promoted standby taking the document
    over. Ordinary acquisition refuses a fenced lease — the old primary
    stays dead until an operator force-reclaims it."""

    @property
    def held(self) -> bool:
        return self.owner is not None


def owner_token() -> str:
    """A token identifying this writer: host, pid, and a random tail so
    a pid recycled after a crash never impersonates the old holder."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def lease_path(doc_dir: "Path | str") -> Path:
    """Where the lease of the document at *doc_dir* lives."""
    return Path(doc_dir) / _FILE


def read_lease(path: "Path | str") -> Lease:
    """The current lease; a missing file reads as the never-acquired
    ``Lease(epoch=0, owner=None)`` (documents created before leases
    existed start there too). An unreadable file is an error — guessing
    about fencing state is how split brain happens."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return Lease(epoch=0, owner=None)
    try:
        header = json.loads(raw)
        epoch = header["epoch"]
        owner = header.get("owner")
        fenced = bool(header.get("fenced", False))
    except (ValueError, TypeError, KeyError) as error:
        raise StoreError(
            f"{path.name}: unreadable lease file ({error}); refusing to "
            "guess who holds the document's write lease"
        ) from error
    if not isinstance(epoch, int) or epoch < 0 or not (
        owner is None or isinstance(owner, str)
    ):
        raise StoreError(f"{path.name}: lease fields are not epoch/owner shaped")
    return Lease(epoch=epoch, owner=owner, fenced=fenced)


def _write(path: Path, lease: Lease) -> None:
    tmp = path.with_name(path.name + ".tmp")
    payload = {"format": _FORMAT, "epoch": lease.epoch, "owner": lease.owner}
    if lease.fenced:
        payload["fenced"] = True
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def acquire_lease(
    path: "Path | str", owner: str, *, fence: bool = False, force: bool = False
) -> Lease:
    """Take the lease at *path* for *owner*: epoch bumps, everyone else
    is fenced. Returns the lease the caller now holds.

    *fence* makes the acquisition sticky — what a promoted standby
    writes into the old primary's lease, so no ordinary open over there
    can ever take the document back (that would fork the history the
    standby now owns). Acquiring a stickily fenced lease raises
    :class:`~repro.errors.LeaseFencedError` unless *force* (the
    operator's deliberate reclaim after decommissioning the promoted
    side)."""
    path = Path(path)
    current = read_lease(path)
    if current.fenced and not force:
        raise LeaseFencedError(
            f"document lease is fenced (epoch {current.epoch}, owner "
            f"{current.owner!r}): a promoted standby took this document "
            "over. Serve it there, or force-reclaim deliberately."
        )
    taken = Lease(epoch=current.epoch + 1, owner=owner, fenced=fence)
    _write(path, taken)
    return taken


def release_lease(path: "Path | str", lease: Lease) -> bool:
    """Give the lease back if *lease* still holds it; returns whether it
    did. Releasing a lease someone else took over is a no-op — the new
    holder's claim stands."""
    path = Path(path)
    current = read_lease(path)
    if current != lease:
        return False
    _write(path, Lease(epoch=lease.epoch, owner=None, fenced=lease.fenced))
    return True


def verify_lease(path: "Path | str", lease: Lease) -> None:
    """Raise :class:`~repro.errors.LeaseFencedError` unless *lease* is
    still exactly what the file says — the check a durable session runs
    before every journal append."""
    current = read_lease(path)
    if current != lease:
        raise LeaseFencedError(
            f"write lease lost: held epoch {lease.epoch} as {lease.owner!r} "
            f"but the lease file now says epoch {current.epoch}, owner "
            f"{current.owner!r} — another writer (or a promoted standby) "
            "took over this document"
        )
