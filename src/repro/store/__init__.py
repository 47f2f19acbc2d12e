"""Durable document store: write-ahead logged sessions that survive
restarts.

The serving tier (:mod:`repro.engine`, :mod:`repro.registry`,
:mod:`repro.session`) is in-memory: a process restart loses every
document. This subpackage persists them, exploiting the property the
paper's propagation semantics guarantee — every view update translates
to a deterministic, side-effect-free edit script over the source — so
the *script*, not the materialized tree, is the durable unit:

* :mod:`repro.store.wal` — an append-only, checksummed log of source
  edit scripts (torn tails truncated, interior corruption fatal);
* :mod:`repro.store.snapshot` — checkpoints of the serialized tree
  keyed by schema hash and log offset;
* :mod:`repro.store.store` — :class:`DocumentStore` (init/put/recover/
  compact) and :class:`DurableSession` (log-before-advance serving with
  configurable fsync policies).

Quickstart::

    from repro.store import DocumentStore

    store = DocumentStore.init("catalog-store")
    store.put("acme", source, dtd, annotation)

    with store.open_session("acme") as session:     # recovers, compiles
        for update in incoming:
            script = session.propagate(update)      # logged, then applied
        session.compact()                           # checkpoint + trim

    # ...crash, restart...
    doc = store.load("acme")                        # byte-identical
"""

from .lease import (
    Lease,
    acquire_lease,
    lease_path,
    read_lease,
    release_lease,
    verify_lease,
)
from .snapshot import Snapshot, list_snapshots, read_snapshot, write_snapshot
from .store import DocumentStore, DurableSession, RecoveredDocument, TimeTravelView
from .wal import (
    FSYNC_POLICIES,
    GroupCommitCoordinator,
    WalRecord,
    WalScan,
    WalWriter,
    create_wal,
    scan_wal,
    wal_cursor,
)

__all__ = [
    "DocumentStore",
    "DurableSession",
    "RecoveredDocument",
    "TimeTravelView",
    "Lease",
    "lease_path",
    "read_lease",
    "acquire_lease",
    "release_lease",
    "verify_lease",
    "FSYNC_POLICIES",
    "GroupCommitCoordinator",
    "WalRecord",
    "WalScan",
    "WalWriter",
    "create_wal",
    "scan_wal",
    "wal_cursor",
    "Snapshot",
    "list_snapshots",
    "read_snapshot",
    "write_snapshot",
]
