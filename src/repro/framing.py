"""One framing for every log and stream: CRC-checked, length-prefixed frames.

The WAL, replication ship frames and wire messages all carry their
payloads in one self-checking frame::

    <tag> <length> <crc32>\\n
    <length bytes of payload>\\n

A :class:`Grammar` states what differs per format: the tag (``R <seq>``,
``F <kind>``, ``M``), a file's header line, sequence numbers, a length
limit. This module is the only code that knows the frame: :func:`encode`
writes one, :func:`scan` reads a run of them and classifies where it
stops, :func:`check` verifies one body, :class:`StreamBuffer` decodes
a stream and :class:`TailCursor` reads what was appended to a file
since its last read.

A scan stops at the first frame that is not intact. The frame is
**torn** when it is unfinished (its header line has no newline yet,
its declared body runs past the end, or its checksum or terminator
fails exactly at the end) and **interior damage** otherwise. At rest a
torn frame is a crash mid-append, safe to truncate; on a stream it is
still in flight. Files add the **successor rule**: a frame that fails
at the end is torn only if no intact frame starts at a line boundary
inside its span, because appends are sequential and an intact frame
behind a broken one means the broken one was once whole. A malformed
final line is torn at rest too; on a stream a complete header line
must parse.
"""

from __future__ import annotations

import os
import re
import socket
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

__all__ = [
    "Grammar",
    "RawFrame",
    "Damage",
    "Scan",
    "TailState",
    "encode",
    "check",
    "fsync_dir",
    "scan",
    "StreamBuffer",
    "TailCursor",
]

# Damage.reason: where in the frame the scan stopped
MAGIC, HEADER, LIMIT, CUT, CHECKSUM, SEQ = (
    "file header", "header", "limit", "cut short", "checksum", "sequence"
)


class Grammar:
    """One format. *tag* is the regex before ``<length> <crc32>`` on a
    header line, with one group (empty for a bare tag); *magic* the
    regex of a file's first line, with one integer group. *seq* makes
    the tag a sequence number counting up by one from the file
    header's value. *text* makes a payload intact only if it is UTF-8
    (returned as ``str``); *limit* bounds the declared length."""

    def __init__(
        self,
        tag: bytes,
        *,
        magic: "bytes | None" = None,
        seq: bool = False,
        text: bool = False,
        limit: "int | None" = None,
    ) -> None:
        self.header = re.compile(tag + rb" (\d+) (\d+)")
        self.magic = re.compile(magic) if magic is not None else None
        self.seq = seq
        self.text = text
        self.limit = limit

    def parse(self, data, start: int, end: int) -> "tuple[bytes | int, int, int] | None":
        """``(tag, length, crc)`` of the header line ``data[start:end]``."""
        match = self.header.fullmatch(data, start, end)
        if match is None:
            return None
        tag, length, crc = match.groups()
        return (int(tag) if self.seq else tag), int(length), int(crc)


class RawFrame(NamedTuple):
    """One intact frame; offsets are absolute (header line, payload)."""

    at: int
    body: int
    length: int
    crc: int
    tag: "bytes | int"
    payload: "bytes | str"


class Damage(NamedTuple):
    """Why a scan stopped at :attr:`Scan.end`, and the stopped frame's
    *tag* and *length* when its header parsed."""

    torn: bool
    reason: str
    tag: "bytes | int | None" = None
    length: "int | None" = None


class Scan(NamedTuple):
    """What a scan read. *end* is just past the last intact frame (where
    appends resume and a torn tail is cut), *head* the file header's
    value, *seq* the last intact frame's sequence number, *need* the
    length the bytes must reach before a rescan can decode more."""

    frames: "list[RawFrame]"
    end: int
    damage: "Damage | None"
    head: "int | None"
    seq: "int | None"
    need: int


def encode(tag: bytes, payload: bytes) -> bytes:
    """The frame carrying *payload* under *tag* (``b"R 7"``, ``b"M"``)."""
    return b"%s %d %d\n%s\n" % (tag, len(payload), zlib.crc32(payload), payload)


def check(chunk: bytes, crc: int) -> "bytes | None":
    """The payload of *chunk* (a body and its terminator) when the
    terminator and the checksum hold, else ``None``."""
    payload = chunk[:-1]
    if chunk[-1:] != b"\n" or zlib.crc32(payload) != crc:
        return None
    return payload


def fsync_dir(path: "Path | str") -> None:
    """Make renames and creates in directory *path* durable (where the
    platform can open a directory)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _successor(data, grammar: Grammar, pos: int) -> bool:
    """Whether an intact frame starts at a line boundary after *pos*."""
    size = len(data)
    start = data.find(b"\n", pos) + 1
    while 0 < start < size:
        newline = data.find(b"\n", start)
        fields = grammar.parse(data, start, newline) if newline >= 0 else None
        if fields is not None:
            end = newline + 1 + fields[1]
            if end < size and data[end] == 10 and zlib.crc32(data[newline + 1:end]) == fields[2]:
                return True
        start = newline + 1
    return False


def scan(
    data, grammar: Grammar, *, origin: int = 0, seq: "int | None" = None, stream: bool = False
) -> Scan:
    """Read the intact frames at the front of *data*, which starts at
    file offset *origin* (at 0 a file header comes first), and classify
    where they stop. *seq* is the sequence number of the frame before
    *data*; *stream* applies the stream rules. Offsets are absolute."""
    size = len(data)
    pos, head = 0, None
    if origin == 0 and grammar.magic is not None:
        newline = data.find(b"\n")
        match = grammar.magic.fullmatch(data, 0, newline) if newline >= 0 else None
        if match is None:
            return Scan([], 0, Damage(newline < 0, MAGIC), None, seq, size + 1)
        head, pos = int(match.group(1)), newline + 1
        if seq is None and grammar.seq:
            seq = head
    frames: "list[RawFrame]" = []
    damage, need = None, size + 1
    while pos < size:
        newline = data.find(b"\n", pos)
        fields = grammar.parse(data, pos, newline) if newline >= 0 else None
        if fields is None:  # a header line in flight, or not a header
            torn = newline < 0 or (not stream and newline == size - 1)
            damage = Damage(torn, HEADER)
            break
        tag, length, crc = fields
        if grammar.limit is not None and length > grammar.limit:
            damage = Damage(False, LIMIT, tag, length)
            break
        body = newline + 1
        end = body + length
        if end >= size:
            torn = stream or not _successor(data, grammar, pos)
            damage, need = Damage(torn, CUT, tag, length), end + 1
            break
        payload = data[body:end]
        intact = data[end] == 10 and zlib.crc32(payload) == crc
        if intact and grammar.text:
            try:
                payload = payload.decode("utf-8")
            except UnicodeDecodeError:
                intact = False
        if not intact:
            torn = end + 1 == size and (stream or not _successor(data, grammar, pos))
            damage = Damage(torn, CHECKSUM, tag, length)
            break
        if grammar.seq:
            if tag != seq + 1:
                damage = Damage(False, SEQ, tag, length)
                break
            seq = tag
        frames.append(RawFrame(origin + pos, origin + body, length, crc, tag, payload))
        pos = end + 1
    return Scan(frames, origin + pos, damage, head, seq, origin + need)


class StreamBuffer:
    """The bytes of one stream not yet decoded. :meth:`feed` appends a
    chunk (empty at the end of the stream, which sets :attr:`eof`) and
    returns what *decode* (which raises the format's error for interior
    damage) makes of the scan. The scanner runs only once the buffer can
    hold the frame at its front, whose header declares its length, so a
    large frame arriving in many chunks is scanned about once."""

    eof = False

    def __init__(self, grammar: Grammar, decode: Callable[[Scan], list]) -> None:
        self._grammar = grammar
        self._decode = decode
        self._data = bytearray()
        self._need = 1

    def pull(self, sock: socket.socket) -> list:
        """Feed whatever *sock* has received, without waiting for more."""
        items: list = []
        while not self.eof:
            try:
                chunk = sock.recv(1 << 16, socket.MSG_DONTWAIT)
            except BlockingIOError:
                break
            items += self.feed(chunk)
        return items

    def feed(self, chunk: bytes) -> list:
        self.eof = self.eof or not chunk
        self._data += chunk
        if len(self._data) < self._need:
            return []
        found = scan(self._data, self._grammar, stream=True)
        items = self._decode(found)
        del self._data[:found.end]
        self._need = found.need - found.end
        return items


class TailState(NamedTuple):
    """A cursor's position: the device and inode it was read from, the
    offset past the last intact frame, the file header's value and the
    last sequence number."""

    file: "tuple[int, int]"
    offset: int
    head: "int | None"
    seq: "int | None"


class TailCursor:
    """Reads the frames appended to one file since its last read: each
    :meth:`read` scans only the bytes past :attr:`state` (and does not
    open a file whose inode and size are unchanged) and returns what
    *convert* makes of the :class:`Scan`. The whole file is read
    instead when it was replaced (another inode) or shrank below the
    position, or when the tail does not continue the frames read so far.

    The position is one immutable value, read once and replaced whole,
    so concurrent readers need no lock: a race costs a re-read, never a
    wrong position. A *convert* that raises leaves the position as it
    was; setting :attr:`state` to ``None`` reads the whole file next."""

    def __init__(self, path: "Path | str", grammar: Grammar, convert: Callable) -> None:
        self.path = Path(path)
        self.grammar = grammar
        self._convert = convert
        self.state: "TailState | None" = None

    def changed(self) -> bool:
        """Whether the file differs from what the position covers: it
        grew (if only by a torn tail), shrank or was replaced since the
        last read, or was never read."""
        return self._changed(self.state)

    def _changed(self, state: "TailState | None") -> bool:
        if state is None or state.offset == 0:
            return True
        info = os.stat(self.path)
        return state.file != (info.st_dev, info.st_ino) or info.st_size != state.offset

    def read(self):
        """What *convert* makes of the frames past the position."""
        state = self.state
        if not self._changed(state):  # the empty tail, without opening the file
            return self._convert(
                Scan([], state.offset, None, state.head, state.seq, state.offset + 1)
            )
        with open(self.path, "rb") as handle:
            info = os.fstat(handle.fileno())
            file = (info.st_dev, info.st_ino)
            found = None
            if state is not None and 0 < state.offset <= info.st_size and state.file == file:
                handle.seek(state.offset)
                tail = scan(handle.read(), self.grammar, origin=state.offset, seq=state.seq)
                if tail.damage is None or tail.damage.torn:
                    found = tail._replace(head=state.head)
            if found is None:
                handle.seek(0)
                found = scan(handle.read(), self.grammar)
        result = self._convert(found)
        self.state = TailState(file, found.end, found.head, found.seq)
        return result
