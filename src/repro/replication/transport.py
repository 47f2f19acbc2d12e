"""Replication transports: CRC-framed ship streams, pluggable carriers.

What travels between a primary and its standbys is exactly the durable
artifact the store already trusts — WAL records (translated source edit
scripts) plus snapshot payloads for bootstrap — as ``F <kind>`` frames of
:mod:`repro.framing`. Under its damage model an incomplete final frame
is *not yet received*, and interior damage raises
:class:`~repro.errors.ReplicationError` rather than skipping history.

Three carriers implement the same two-ended interface
(:class:`ReplicationTransport`: ``send`` frames in, ``drain`` complete
frames out):

* :class:`QueueTransport` — an in-process queue; the zero-configuration
  topology for standbys in the same process (tests, embedded replicas);
* :class:`SocketTransport` — a real OS byte stream
  (:func:`socket.socketpair`); partial reads and torn sends behave
  exactly as a TCP link would, without binding ports. A networked
  deployment swaps the pair for a connected socket — the framing and
  drain loop are unchanged;
* :class:`FileSpoolTransport` — an append-only spool file; the
  crash-tolerant carrier (ship and apply survive kills at any byte, and
  the spool doubles as an audit trail of everything ever shipped).
"""

from __future__ import annotations

import json
import os
import socket
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .. import framing
from ..errors import ReplicationError

__all__ = [
    "MAX_FRAME_BYTES",
    "Frame",
    "encode_frame",
    "decode_frames",
    "ReplicationTransport",
    "QueueTransport",
    "SocketTransport",
    "FileSpoolTransport",
]

FRAME_KINDS = ("bootstrap", "checkpoint", "record")
"""What ships: a full document (schema + snapshot), a snapshot alone
(re-basing a standby past a compacted prefix), one WAL record."""

MAX_FRAME_BYTES = 1 << 30
"""Refuse a ship frame whose payload exceeds 1 GiB. The largest
legitimate frame is a ``bootstrap``: it carries the document's whole
snapshot (schema and source document), so this bounds the documents a
standby can be seeded with; records and checkpoints are smaller. A
header declaring more is damage, not a frame in flight: a live feed
drops the link instead of buffering toward the declared length."""

_GRAMMAR = framing.Grammar(
    b"F (" + "|".join(FRAME_KINDS).encode("ascii") + b")", limit=MAX_FRAME_BYTES
)


@dataclass(frozen=True)
class Frame:
    """One decoded ship message."""

    kind: str
    payload: dict


def encode_frame(kind: str, payload: dict) -> bytes:
    """The exact bytes a transport carries for (*kind*, *payload*)."""
    if kind not in FRAME_KINDS:
        raise ReplicationError(
            f"unknown frame kind {kind!r}; ship one of {FRAME_KINDS}"
        )
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ReplicationError(
            f"{kind} frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return framing.encode(b"F " + kind.encode("ascii"), body)


_INTERIOR = {
    framing.HEADER: "malformed ship frame header at byte {at} — the stream "
    "is not a replication feed or was corrupted",
    framing.LIMIT: "ship frame at byte {at} declares {length} bytes, beyond "
    f"the {MAX_FRAME_BYTES}-byte frame limit — the feed is damaged, "
    "refusing to apply anything past it",
    framing.CHECKSUM: "ship frame at byte {at} fails its checksum with further "
    "data after it — interior corruption, refusing to apply anything past it",
    framing.CUT: "ship frame at byte {at} declares {length} bytes, running past "
    "the end of the spool, but an intact frame follows it — interior "
    "corruption, refusing to apply anything past it",
}


def _frames(found: framing.Scan) -> "list[Frame]":
    """The scan's frames, decoded; raises :class:`ReplicationError` for
    an unreadable payload or interior damage."""
    frames: "list[Frame]" = []
    for raw in found.frames:
        try:
            payload = json.loads(raw.payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ReplicationError(
                f"ship frame at byte {raw.at} carries an unreadable payload "
                f"({error})"
            ) from error
        if not isinstance(payload, dict):
            raise ReplicationError(
                f"ship frame at byte {raw.at} payload is not an object"
            )
        frames.append(Frame(kind=raw.tag.decode("ascii"), payload=payload))
    damage = found.damage
    if damage is not None and not damage.torn:
        raise ReplicationError(_INTERIOR[damage.reason].format(at=found.end, **damage._asdict()))
    return frames


def decode_frames(data: bytes) -> "tuple[list[Frame], int]":
    """``(frames, consumed)``: the complete frames at the front of
    *data* and the offset just past them; an incomplete final frame
    stays unconsumed, a damaged one raises :class:`ReplicationError`."""
    found = framing.scan(data, _GRAMMAR, stream=True)
    return _frames(found), found.end


class ReplicationTransport:
    """The two-ended carrier interface: a shipper ``send``\\ s frames, an
    applier ``drain``\\ s whatever complete frames have arrived (never
    blocking on a partial one)."""

    def send(self, kind: str, payload: dict) -> None:
        raise NotImplementedError

    def drain(self) -> "list[Frame]":
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - optional hook
        """Release carrier resources (sockets, file handles)."""


class QueueTransport(ReplicationTransport):
    """In-process carrier: frames ride a deque as encoded bytes.

    Frames are still encoded/decoded — the queue carries the same bytes
    a socket would, so framing bugs cannot hide behind object passing.
    """

    def __init__(self) -> None:
        self._queue: "deque[bytes]" = deque()
        self.sent = 0
        self.received = 0

    def send(self, kind: str, payload: dict) -> None:
        self._queue.append(encode_frame(kind, payload))
        self.sent += 1

    def drain(self) -> "list[Frame]":
        frames: "list[Frame]" = []
        while self._queue:
            decoded, consumed = decode_frames(self._queue.popleft())
            frames.extend(decoded)
        self.received += len(frames)
        return frames


class SocketTransport(ReplicationTransport):
    """A real OS byte stream between shipper and applier.

    Built on :func:`socket.socketpair` by default, so it exercises
    everything a TCP link would — partial reads, frames split across
    ``recv`` calls, a sender that dies mid-frame — without ports or
    network flakiness. The applier side buffers bytes across ``drain``
    calls and only yields complete frames.

    A networked deployment passes already-connected sockets instead:
    the follow daemon binds its end with ``SocketTransport(send_sock=
    conn)`` and the remote applier binds ``SocketTransport(recv_sock=
    conn)`` — same framing, same drain loop, real TCP underneath. An
    end the transport was not given is simply absent (``send``/``drain``
    on it raises), because over TCP the other end lives in a different
    process. ``eof`` flips once the peer closes its write side, so a
    long-running applier can tell "no bytes yet" from "feed is gone";
    bytes of a torn final frame stay buffered and are never applied —
    a sender killed mid-frame is indistinguishable from one that never
    sent the frame at all.
    """

    def __init__(
        self,
        send_sock: "socket.socket | None" = None,
        recv_sock: "socket.socket | None" = None,
    ) -> None:
        if send_sock is None and recv_sock is None:
            send_sock, recv_sock = socket.socketpair()
        self._send_sock = send_sock
        self._recv_sock = recv_sock
        if self._recv_sock is not None:
            self._recv_sock.setblocking(False)
        self._buffer = framing.StreamBuffer(_GRAMMAR, _frames)
        self.sent = 0
        self.received = 0

    @property
    def eof(self) -> bool:
        return self._buffer.eof

    def send(self, kind: str, payload: dict) -> None:
        if self._send_sock is None:
            raise ReplicationError(
                "this transport end only receives — the sender lives in "
                "another process"
            )
        self._send_sock.sendall(encode_frame(kind, payload))
        self.sent += 1

    def drain(self) -> "list[Frame]":
        if self._recv_sock is None:
            raise ReplicationError(
                "this transport end only sends — the receiver lives in "
                "another process"
            )
        frames = self._buffer.pull(self._recv_sock)
        self.received += len(frames)
        return frames

    def close(self) -> None:
        if self._send_sock is not None:
            self._send_sock.close()
        if self._recv_sock is not None and self._recv_sock is not self._send_sock:
            self._recv_sock.close()


class FileSpoolTransport(ReplicationTransport):
    """An append-only spool file as the carrier.

    The shipper appends frames (flushed, optionally fsynced); the
    applier reads complete frames past its position. A torn final frame
    is not shipped yet, and a resumed shipper truncates it before
    appending, like a WAL torn tail. Because appliers skip
    already-applied sequence numbers, replaying the whole spool from
    byte 0 is always safe: the spool is idempotent by construction.
    """

    def __init__(self, path: "Path | str", *, fsync: bool = False) -> None:
        self._path = Path(path)
        self._fsync = fsync
        self._cursor = framing.TailCursor(self._path, _GRAMMAR, _frames)
        self._tail_repaired = False
        self.sent = 0
        self.received = 0

    @property
    def path(self) -> Path:
        return self._path

    def _repair_tail(self) -> None:
        """Truncate a torn final frame before appending after it —
        otherwise the new frame would be glued onto garbage and read as
        interior corruption forever. Once per transport: only a frame a
        *previous* shipper died inside can be torn; this instance's own
        appends are written whole. Interior damage raises: cutting there
        would drop frames that were shipped whole."""
        try:
            data = self._path.read_bytes()
        except FileNotFoundError:
            return
        found = framing.scan(data, _GRAMMAR)
        _frames(found)  # raises for interior damage
        if found.end < len(data):
            with open(self._path, "r+b") as handle:
                handle.truncate(found.end)
                handle.flush()
                os.fsync(handle.fileno())

    def send(self, kind: str, payload: dict) -> None:
        if not self._tail_repaired:
            self._repair_tail()
            self._tail_repaired = True
        with open(self._path, "ab") as handle:
            handle.write(encode_frame(kind, payload))
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        self.sent += 1

    def drain(self) -> "list[Frame]":
        """Complete frames appended since the last drain (all of them
        again when the spool was rewritten shorter: a fresh shipping
        run, which sequence-number skipping at the applier makes safe)."""
        try:
            frames = self._cursor.read()
        except FileNotFoundError:
            return []
        self.received += len(frames)
        return frames

    def rewind(self) -> None:
        """Re-read the spool from the start on the next drain (appliers
        deduplicate by sequence number, so this is always safe)."""
        self._cursor.state = None
