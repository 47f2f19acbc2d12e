"""Segment files: the disk cache's append-only, self-checking record log.

The tier stores every cache entry as one framed record in a numbered
segment file, in the WAL's record frame (:mod:`repro.framing`):

.. code-block:: text

    CSEGv1 <segment_number>\\n      # file header, written once
    R <seq> <length> <crc32>\\n     # one record header per append
    <length bytes of JSON payload>\\n

Unlike the WAL — whose records are acknowledged history, so interior
corruption must *stop the world* — a cache record is always
re-derivable: the worst a damaged segment may cost is a recompile. A
torn tail is ignored and truncated by the next appender holding the
file lock; interior damage quarantines the whole segment. No code path
raises into the serving tier and no damaged payload is ever returned:
:func:`read_payload` re-verifies the CRC on every point read.

Segment numbers are monotonic; scans apply records in
``(segment, seq)`` order, so rewritten entries (garbage collection
copies live records into a fresh, higher-numbered segment before
deleting the old ones) deterministically win over stale ones.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

from .. import framing
from ..store.wal import encode_record

__all__ = [
    "CacheRecord",
    "SegmentScan",
    "segment_path",
    "segment_number",
    "list_segments",
    "create_segment",
    "scan_segment",
    "segment_cursor",
    "read_payload",
    "append_records",
]

_MAGIC = b"CSEGv1"
_GRAMMAR = framing.Grammar(rb"R (\d+)", magic=rb"CSEGv1 (\d+)", seq=0, text=True)

SEGMENT_SUFFIX = ".log"
QUARANTINE_SUFFIX = ".bad"
_SEGMENT_RE = re.compile(r"seg-(\d+)\.log$")


@dataclass(frozen=True)
class CacheRecord:
    """One intact record: where its payload lives and how to verify it."""

    segment: int
    seq: int
    offset: int
    """Byte offset of the payload within the segment file."""
    length: int
    crc: int
    text: str
    """The payload (carried by scans; point reads re-fetch from disk)."""


@dataclass
class SegmentScan:
    """Everything one pass over a segment (or its tail) learned."""

    number: int
    records: "list[CacheRecord]"
    intact_end: int
    """Byte offset just past the last intact record — appends resume
    here, and bytes beyond it are torn-tail garbage."""
    next_seq: int
    torn: bool
    """The file ends in an unfinished record (safe: ignore/truncate)."""
    corrupt: bool
    """Interior damage — the caller must quarantine the segment."""
    reason: "str | None" = None


def segment_path(root: "Path | str", number: int) -> Path:
    return Path(root) / f"seg-{number}{SEGMENT_SUFFIX}"


def segment_number(path: "Path | str") -> "int | None":
    match = _SEGMENT_RE.search(Path(path).name)
    return int(match.group(1)) if match else None


def list_segments(root: "Path | str") -> "list[tuple[int, Path]]":
    """All live ``(number, path)`` segments under *root*, ascending."""
    found = []
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return []
    for name in names:
        match = _SEGMENT_RE.fullmatch(name)
        if match:
            found.append((int(match.group(1)), Path(root) / name))
    found.sort()
    return found


def _fsync_fd(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


def create_segment(path: "Path | str", number: int) -> int:
    """Write a fresh segment header; returns the header's byte length."""
    path = Path(path)
    header = _MAGIC + f" {number}\n".encode("ascii")
    with open(path, "wb") as handle:
        handle.write(header)
        _fsync_fd(handle)
    framing.fsync_dir(path.parent)
    return len(header)


def _segment_scan(found: framing.Scan) -> SegmentScan:
    damage = found.damage
    number = -1 if found.head is None else found.head
    records = [
        CacheRecord(number, frame.tag, frame.body, frame.length, frame.crc, frame.payload)
        for frame in found.frames
    ]
    next_seq = 1 if found.seq is None else found.seq + 1
    if damage is None:
        return SegmentScan(number, records, found.end, next_seq, False, False)
    kind = "torn" if damage.torn else "damaged"
    return SegmentScan(
        number, records, found.end, next_seq, damage.torn, not damage.torn,
        f"{kind} {damage.reason} at byte {found.end}",
    )


def segment_cursor(path: "Path | str") -> framing.TailCursor:
    """A cursor whose ``read()`` returns a :class:`SegmentScan` of the
    records appended to the segment since its previous read. Never
    raises on damage (see :func:`scan_segment`); an unreadable file
    raises :class:`OSError`."""
    return framing.TailCursor(path, _GRAMMAR, _segment_scan)


def scan_segment(path: "Path | str") -> SegmentScan:
    """Scan a whole segment. Never raises on damage: interior damage
    comes back as ``corrupt=True``, a torn tail as ``torn=True``."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return SegmentScan(-1, [], 0, 1, False, True, "unreadable")
    return _segment_scan(framing.scan(data, _GRAMMAR))


def read_payload(
    path: "Path | str", offset: int, length: int, crc: int
) -> "str | None":
    """Point-read one payload, re-verifying frame and checksum.

    Returns ``None`` on any damage (short read, missing trailing
    newline, CRC mismatch, undecodable bytes, unreadable file) — the
    caller treats that as corruption and quarantines the segment.
    """
    payload = framing.read_at(path, offset, length, crc)
    try:
        return None if payload is None else payload.decode("utf-8")
    except UnicodeDecodeError:
        return None


def append_records(
    path: "Path | str",
    texts: "list[str]",
    first_seq: int,
    *,
    number: int,
    fsync: bool = False,
) -> "tuple[list[CacheRecord], int]":
    """Append *texts* as consecutive records from *first_seq* to a
    segment :func:`create_segment` started.

    Returns the appended records and the new end offset. The caller is
    responsible for exclusion (the tier appends under its file lock)
    and for having truncated any torn tail first — appends always land
    at the current end of file.
    """
    blob = b"".join(encode_record(first_seq + i, text) for i, text in enumerate(texts))
    with open(path, "ab") as handle:
        end = handle.tell()
        handle.write(blob)
        if fsync:
            _fsync_fd(handle)
    # the records are what a scan of the appended bytes reads
    found = framing.scan(blob, _GRAMMAR, origin=end, seq=first_seq - 1)
    return _segment_scan(found._replace(head=number)).records, end + len(blob)
