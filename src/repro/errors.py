"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate precise failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TreeError",
    "NodeNotFoundError",
    "DuplicateNodeError",
    "TermSyntaxError",
    "RegexSyntaxError",
    "AutomatonError",
    "NondeterministicAutomatonError",
    "DTDError",
    "UnsatisfiableDTDError",
    "UnknownLabelError",
    "DTDSyntaxError",
    "EDTDError",
    "AnnotationError",
    "ScriptError",
    "InvalidScriptError",
    "InvalidViewUpdateError",
    "NoInversionError",
    "NoPropagationError",
    "InsertletError",
    "StaleSessionError",
    "StoreError",
    "DocumentExistsError",
    "UnknownDocumentError",
    "WALCorruptError",
    "SnapshotCorruptError",
    "RecoveryError",
    "LeaseFencedError",
    "StoreSchemaMismatchError",
    "ReplicationError",
    "ReadOnlyReplicaError",
    "ReplicationLagError",
    "ServerError",
    "ProtocolError",
    "error_code",
    "exit_code",
    "error_payload",
]


class ReproError(Exception):
    """Base class for all errors raised by the library."""


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


class TreeError(ReproError):
    """A tree structure is malformed or an operation on it is invalid."""


class NodeNotFoundError(TreeError, KeyError):
    """A node identifier does not belong to the tree."""

    def __init__(self, node):
        super().__init__(node)
        self.node = node

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable
        return f"node {self.node!r} is not part of the tree"


class DuplicateNodeError(TreeError):
    """A node identifier occurs more than once during construction."""


class TermSyntaxError(TreeError, ValueError):
    """The term notation for a tree (``r#n0(a#n1, ...)``) failed to parse."""


# ---------------------------------------------------------------------------
# Regular expressions and automata
# ---------------------------------------------------------------------------


class RegexSyntaxError(ReproError, ValueError):
    """A content-model regular expression failed to parse."""


class AutomatonError(ReproError):
    """An automaton is malformed or an operation on it is invalid."""


class NondeterministicAutomatonError(AutomatonError):
    """A deterministic automaton was required (e.g. for state typings)."""


# ---------------------------------------------------------------------------
# DTDs
# ---------------------------------------------------------------------------


class DTDError(ReproError):
    """A DTD is malformed or a DTD operation is invalid."""


class UnsatisfiableDTDError(DTDError):
    """The DTD admits no finite tree for at least one symbol.

    The paper restricts attention to satisfiable DTDs (Section 2); the
    constructor of :class:`repro.dtd.DTD` enforces this and raises this
    error listing the offending symbols.
    """

    def __init__(self, symbols):
        self.symbols = tuple(sorted(symbols))
        super().__init__(
            "DTD is unsatisfiable for symbol(s): " + ", ".join(self.symbols)
        )


class UnknownLabelError(DTDError, KeyError):
    """A label outside the DTD alphabet was used."""

    def __init__(self, label):
        super().__init__(label)
        self.label = label

    def __str__(self) -> str:
        return f"label {self.label!r} is not part of the DTD alphabet"


class DTDSyntaxError(DTDError, ValueError):
    """A ``<!ELEMENT ...>`` style DTD document failed to parse."""


class EDTDError(DTDError):
    """An extended DTD is malformed (e.g. not single-type) or typing failed."""


# ---------------------------------------------------------------------------
# Annotations / views
# ---------------------------------------------------------------------------


class AnnotationError(ReproError):
    """An annotation is malformed."""


# ---------------------------------------------------------------------------
# Editing scripts
# ---------------------------------------------------------------------------


class ScriptError(ReproError):
    """Base class for editing-script errors."""


class InvalidScriptError(ScriptError):
    """An editing script violates well-formedness.

    Well-formedness (Section 2 of the paper): every descendant of an
    inserting node is inserting, and every descendant of a deleting node
    is deleting.
    """


class InvalidViewUpdateError(ScriptError):
    """A script is not a valid view update for the given source and view.

    A view update ``S`` must satisfy ``In(S) = A(t)``, must not reuse node
    identifiers hidden by the view (``N_S ∩ (N_t \\ N_{A(t)}) = ∅``), and
    ``Out(S)`` must belong to the view language ``A(L(D))``.
    """


# ---------------------------------------------------------------------------
# Inversion / propagation
# ---------------------------------------------------------------------------


class NoInversionError(ReproError):
    """The view tree has no inverse, i.e. it is not in ``A(L(D))``."""


class NoPropagationError(ReproError):
    """No schema-compliant side-effect-free propagation exists.

    By Theorem 5 this cannot happen for *valid* view updates; it is raised
    when the caller bypasses validation with an out-of-language update.
    """


class InsertletError(ReproError):
    """An insertlet package entry is missing or does not satisfy the DTD."""


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


class StaleSessionError(ReproError):
    """A :class:`repro.session.DocumentSession` was asked to serve against
    a tree that is not its pinned source.

    Sessions maintain per-document caches (the source view, the
    subtree-size table, the fresh-identifier map); serving a request for
    a different tree from those caches would silently produce wrong
    propagations, so the mismatch is refused. Re-pin with
    :meth:`~repro.session.DocumentSession.rebase` to switch documents.
    """


# ---------------------------------------------------------------------------
# Durable document store
# ---------------------------------------------------------------------------


class StoreError(ReproError):
    """Base class for :mod:`repro.store` failures."""


class DocumentExistsError(StoreError):
    """A document identifier is already taken in the store."""


class UnknownDocumentError(StoreError, KeyError):
    """A document identifier does not exist in the store."""

    def __init__(self, doc_id):
        super().__init__(doc_id)
        self.doc_id = doc_id

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable
        return f"document {self.doc_id!r} is not in the store"


class WALCorruptError(StoreError):
    """A write-ahead log contains an unreadable record *before* its tail.

    A torn **final** record is the expected signature of a crash
    mid-append and is silently truncated during recovery; corruption in
    the interior of the log (a record that fails its checksum, a broken
    header, or a sequence-number gap followed by further records) means
    data written before the crash was lost or rewritten, which recovery
    must never paper over.
    """


class SnapshotCorruptError(StoreError):
    """A snapshot file failed its header, checksum, or schema check."""


class RecoveryError(StoreError):
    """A document cannot be reconstructed from its snapshot and log.

    Raised when no usable snapshot exists, when the newest snapshot is
    *ahead* of the log (records the snapshot supposedly covers are
    missing), when the log was trimmed past the snapshot, or when a
    replayed edit script does not apply to the document state it should.
    """


class LeaseFencedError(StoreError):
    """A writer lost its per-document lease to a newer writer.

    Every :class:`repro.store.DurableSession` acquires the document's
    lease (``lease.json``, a monotonically increasing epoch plus an
    owner token) when it opens, and re-verifies it before every journal
    append. A second writer — another session, or a promoted standby
    (:meth:`repro.replication.StandbyStore.promote`) — acquires the
    lease by bumping the epoch, after which the fenced writer's next
    append raises this error instead of splitting the document's
    history into two divergent logs.
    """


class StoreSchemaMismatchError(StoreError, StaleSessionError):
    """A stored document was opened under a different ``(DTD, Annotation)``.

    The store keys every document's snapshots and sessions by the
    canonical :func:`repro.registry.schema_fingerprint`; serving a
    document through an engine compiled for another schema would
    propagate against the wrong view definition, so — like serving a
    session from stale caches — the mismatch is refused (this error is
    also a :class:`StaleSessionError`).
    """


# ---------------------------------------------------------------------------
# Replication
# ---------------------------------------------------------------------------


class ReplicationError(StoreError):
    """Base class for :mod:`repro.replication` failures.

    Raised for damaged ship frames in the interior of a stream (a torn
    *final* frame is the expected signature of a shipper killed
    mid-record and is simply not applied), for a record that does not
    extend the standby's log contiguously when no checkpoint frame can
    bridge the gap, and for bootstrap/checkpoint payloads that disagree
    with the standby's recorded schema.
    """


class ReadOnlyReplicaError(ReplicationError):
    """A write path was invoked on an unpromoted standby.

    Standby stores serve reads only — their documents advance
    exclusively by applying shipped WAL records, so a local write would
    fork the history away from the primary's. Promote the standby
    (:meth:`repro.replication.StandbyStore.promote`) to make it
    writable, which also fences the old primary's lease.
    """


class ReplicationLagError(ReplicationError):
    """A bounded-lag read found the standby further behind the primary
    than the caller allows (:meth:`repro.replication.ReplicaSession.read`
    with ``max_lag=``)."""


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


class ShardingError(ReproError):
    """Base class for :mod:`repro.sharding` failures: invalid spine
    depths, partitions of empty documents, or inconsistent shard
    layouts."""


class ShardWorkerError(ShardingError):
    """A dispatch named a shard the pool does not hold, or committed a
    shard it never previewed."""


# ---------------------------------------------------------------------------
# Serving front-end
# ---------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class for :mod:`repro.server` failures: a request names an
    unknown operation or document root, a handler is invoked while the
    server is draining, or an endpoint was asked to serve a mode its
    backing store does not provide."""


class ProtocolError(ServerError):
    """A framed message stream is damaged in its interior.

    The wire protocol reuses the WAL's framing discipline: a torn
    **final** message is the expected signature of a peer that went
    away mid-write and simply never completes, but a message that fails
    its checksum or declares an unreadable header with further bytes
    behind it means the stream is corrupt and the connection must be
    dropped rather than resynchronised by guesswork.
    """


# ---------------------------------------------------------------------------
# The error-mapping table shared by the CLI and the server
# ---------------------------------------------------------------------------
#
# One table, first-isinstance-match wins, most specific classes first.
# The CLI turns a caught error into a process exit code; the server
# turns the same error into a structured payload whose ``code`` a
# remote client can switch on (and whose ``exit_code`` a remote CLI
# could faithfully re-raise). Exit code 1 stays the generic library
# failure, 2 stays reserved for argparse usage errors and the
# repair-compare "plans differ" verdict.

_ERROR_TABLE: "tuple[tuple[type, str, int], ...]" = (
    (WALCorruptError, "wal_corrupt", 3),
    (SnapshotCorruptError, "snapshot_corrupt", 4),
    (RecoveryError, "recovery_failed", 5),
    (LeaseFencedError, "lease_fenced", 6),
    (ReadOnlyReplicaError, "read_only_replica", 7),
    (ReplicationLagError, "replication_lag", 8),
    (ReplicationError, "replication_failed", 9),
    (StoreSchemaMismatchError, "schema_mismatch", 10),
    (UnknownDocumentError, "unknown_document", 11),
    (DocumentExistsError, "document_exists", 12),
    (StoreError, "store_failed", 13),
    (StaleSessionError, "stale_session", 14),
    (ShardWorkerError, "shard_worker_failed", 15),
    (ShardingError, "sharding_failed", 15),
    (InvalidViewUpdateError, "invalid_view_update", 16),
    (InvalidScriptError, "invalid_script", 17),
    (ScriptError, "script_failed", 18),
    (NoInversionError, "no_inversion", 19),
    (NoPropagationError, "no_propagation", 20),
    (ProtocolError, "protocol_violation", 21),
    (ServerError, "server_failed", 22),
    (ReproError, "error", 1),
)


def _lookup(error: BaseException) -> "tuple[str, int]":
    for cls, code, exit_ in _ERROR_TABLE:
        if isinstance(error, cls):
            return code, exit_
    return "error", 1


def error_code(error: BaseException) -> str:
    """The stable machine-readable code for *error* (``"error"`` for an
    unclassified :class:`ReproError`)."""
    return _lookup(error)[0]


def exit_code(error: BaseException) -> int:
    """The process exit code the CLI maps *error* to."""
    return _lookup(error)[1]


def error_payload(error: BaseException) -> dict:
    """The structured payload the server ships for *error*.

    ``code`` is the stable identifier clients switch on, ``type`` the
    Python class name for humans, ``exit_code`` what a faithful remote
    CLI would exit with.
    """
    code, exit_ = _lookup(error)
    return {
        "code": code,
        "type": type(error).__name__,
        "message": str(error),
        "exit_code": exit_,
    }
