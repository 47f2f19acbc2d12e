"""One damage harness for every framed format.

Each target writes three frames (to a file, or as a byte stream),
damages them, reads them back through the format's own reader and
reports what came back as an :class:`Outcome`: the decoded records; a
verdict, ``clean``, ``torn`` (at rest a torn tail; on a stream bytes
still in flight) or ``error`` (the format's typed error); the offset
where the reader stops (at rest where appends resume and a torn tail
is cut, on a stream the bytes consumed); and the error's message. The property every target must keep
(``repro.framing``'s damage model):

* what comes back is exactly the intact prefix: the frames before the
  damaged one, unchanged and in order, never a wrong or skipped record,
  and the reader stops just past them (past the file header when none
  is whole);
* a truncation reads as torn (clean at a frame boundary), never as an
  error, and every split of a stream decodes every frame;
* damage inside the final frame reads as torn or as an error; damage
  inside an earlier frame must read as an error at rest, where fewer
  records without an error would be silent data loss, and as an error
  or bytes in flight on a stream, where the rest may still arrive;
* an error for a damaged body (payload or terminator) names the
  checksum.

Damage is a truncation at every byte and one flipped byte (three masks:
a digit stays a digit under 0x01, ``1`` becomes ``9`` under 0x08, 0x80
leaves ASCII) at every offset of every frame, headers included.

The WAL case runs three times: over arbitrary payloads, over a
document's log of record text (``EditScript.to_record``) and over a
mixed log of record text and whole terms. The last two are also
recovered: a torn tail recovers the document after the intact records
(and recovery cuts just the tail), interior damage raises
:class:`~repro.errors.WALCorruptError` and cuts nothing.
"""

import pathlib
import tempfile
from functools import lru_cache
from typing import NamedTuple

import pytest

from repro.errors import ProtocolError, RecoveryError, ReplicationError, WALCorruptError
from repro.generators.workloads import hospital
from repro.replication import QueueTransport, StandbyStore, WalShipper
from repro.replication.transport import (
    FileSpoolTransport,
    Frame,
    SocketTransport,
    decode_frames,
    encode_frame,
)
from repro.server.protocol import decode_messages, encode_message, message_buffer
from repro.store import DocumentStore
from repro.store.wal import WalWriter, encode_record, scan_wal, wal_cursor

from .test_wal_record_differential import _built, _discharge_admit, _reference

MASKS = (0x01, 0x08, 0x80)

# payloads of 100-199 bytes: a 0x08 flip of the length's leading digit
# declares 900-odd bytes, running past the end of three frames
_TERM = "Nop.r#n0(" + ", ".join(f"Ins.a#u{i}" for i in range(12)) + ", Ins.ä#x{n})"
_TEXTS = [_TERM.format(n=n) for n in (1, 2, 3)]
_PAYLOADS = [{"doc_id": "d", "seq": n, "text": text} for n, text in enumerate(_TEXTS, 1)]
_MESSAGES = [{"op": "propagate", "doc": "d", "id": n, "update": text}
             for n, text in enumerate(_TEXTS, 1)]


class Outcome(NamedTuple):
    records: list
    verdict: str
    end: "int | None" = None  # None for an error
    error: str = ""


class Target:
    """One format: its file header, its frames, the records they carry
    and a reader returning the :class:`Outcome` of some bytes."""

    at_rest = True
    prefix = b""

    def __init__(self, tmp_path):
        self.path = tmp_path / "frames"

    def read(self, data):
        raise NotImplementedError


class Wal(Target):
    prefix = b"WALv1 0\n"
    frames = [encode_record(n, text) for n, text in enumerate(_TEXTS, 1)]
    records = list(enumerate(_TEXTS, 1))

    def read(self, data):
        self.path.write_bytes(data)
        try:
            scan = scan_wal(self.path)
        except WALCorruptError as error:
            # the writer refuses too, and cuts nothing
            with pytest.raises(WALCorruptError):
                WalWriter(self.path, policy="off")
            assert self.path.read_bytes() == data
            return Outcome([], "error", error=str(error))
        records = [(record.seq, record.text) for record in scan.records]
        assert scan.torn_at in (None, scan.end_offset)
        return Outcome(records, "clean" if scan.torn_at is None else "torn", scan.end_offset)

    def tail(self, first, rest):
        self.path.write_bytes(first)
        cursor = wal_cursor(self.path)
        seen = list(cursor.read().records)
        with open(self.path, "ab") as handle:
            handle.write(rest)
        seen += cursor.read().records
        return [(record.seq, record.text) for record in seen]


@lru_cache(maxsize=None)
def _stream():
    """Three propagations of a ``hospital(3)`` stream: the workload, the
    scripts and the documents before and after each."""
    workload = hospital(3)
    with tempfile.TemporaryDirectory() as root:
        scripts, _, _ = _reference(pathlib.Path(root), workload, _built(_discharge_admit), 3)
    trees = [workload.source] + [script.output_tree for script in scripts[:3]]
    return workload, scripts[:3], trees


class RecordWal(Wal):
    """A document's log of record text, read back by recovery too."""

    kinds = ("record", "record", "record")

    def __init__(self, tmp_path):
        workload, scripts, self.trees = _stream()
        self.store = DocumentStore.init(tmp_path / "store", fsync="off")
        self.store.put("d", workload.source, workload.dtd, workload.annotation)
        self.path = tmp_path / "store" / "docs" / "d" / "wal.log"
        texts = [
            script.to_record() if kind == "record" else script.to_term()
            for script, kind in zip(scripts, self.kinds)
        ]
        self.frames = [encode_record(n, text) for n, text in enumerate(texts, 1)]
        self.records = list(enumerate(texts, 1))

    def read(self, data):
        outcome = super().read(data)
        if outcome.verdict == "error":
            with pytest.raises(WALCorruptError):
                self.store.recover("d")
            assert self.path.read_bytes() == data  # nothing cut
        else:
            assert self.store.recover("d").tree == self.trees[len(outcome.records)]
            assert self.path.read_bytes() == data[:outcome.end]  # just the tail
            self.path.write_bytes(data)
        return outcome


class MixedWal(RecordWal):
    """An upgraded document's log: whole terms among record text."""

    kinds = ("whole", "record", "whole")


class Spool(Target):
    frames = [encode_frame("record", payload) for payload in _PAYLOADS]
    records = [("record", payload) for payload in _PAYLOADS]
    marker = {"doc_id": "d", "seq": 99, "text": "Nop.r#n0"}

    def read(self, data):
        self.path.write_bytes(data)
        try:
            frames = FileSpoolTransport(self.path).drain()
        except ReplicationError:
            frames = None
        try:
            FileSpoolTransport(self.path).send("record", self.marker)  # a resumed shipper
        except ReplicationError as error:
            assert self.path.read_bytes() == data  # refused, nothing cut
            return Outcome([], "error", error=str(error))
        assert frames is not None
        records = [(frame.kind, frame.payload) for frame in frames]
        # the resumed shipper cut at most a torn tail, at *end*, and
        # appended after exactly the frames the applier saw
        marker = encode_frame("record", self.marker)
        spool = self.path.read_bytes()
        end = len(spool) - len(marker)
        assert spool == data[:end] + marker
        after = FileSpoolTransport(self.path).drain()
        assert [(f.kind, f.payload) for f in after] == records + [("record", self.marker)]
        return Outcome(records, "clean" if end == len(data) else "torn", end)

    def tail(self, first, rest):
        self.path.write_bytes(first)
        reader = FileSpoolTransport(self.path)
        seen = reader.drain()
        with open(self.path, "ab") as handle:
            handle.write(rest)
        seen += reader.drain()
        return [(frame.kind, frame.payload) for frame in seen]


class ShipStream(Target):
    at_rest = False
    frames = Spool.frames
    records = Spool.records

    def read(self, data):
        try:
            frames, consumed = decode_frames(data)
        except ReplicationError as error:
            return Outcome([], "error", error=str(error))
        records = [(frame.kind, frame.payload) for frame in frames]
        return Outcome(records, "clean" if consumed == len(data) else "torn", consumed)

    def tail(self, first, rest):
        transport = SocketTransport()
        try:
            transport._send_sock.sendall(first)
            seen = transport.drain()
            transport._send_sock.sendall(rest)
            seen += transport.drain()
        finally:
            transport.close()
        return [(frame.kind, frame.payload) for frame in seen]


class WireStream(Target):
    at_rest = False
    frames = [encode_message(message) for message in _MESSAGES]
    records = _MESSAGES

    def read(self, data):
        try:
            messages, consumed = decode_messages(data)
        except ProtocolError as error:
            return Outcome([], "error", error=str(error))
        return Outcome(messages, "clean" if consumed == len(data) else "torn", consumed)

    def tail(self, first, rest):
        buffer = message_buffer()
        return buffer.feed(first) + buffer.feed(rest)


TARGETS = [Wal, RecordWal, MixedWal, Spool, ShipStream, WireStream]


@pytest.fixture(params=TARGETS, ids=lambda cls: cls.__name__.lower())
def target(request, tmp_path):
    return request.param(tmp_path)


def _layout(target):
    """The whole bytes, and the (start, body, end) offsets of every
    frame in them."""
    spans, pos = [], len(target.prefix)
    for frame in target.frames:
        spans.append((pos, pos + frame.index(b"\n") + 1, pos + len(frame)))
        pos += len(frame)
    return target.prefix + b"".join(target.frames), spans


def test_intact_frames_read_clean(target):
    data, _ = _layout(target)
    assert target.read(data) == Outcome(target.records, "clean", len(data))


def test_truncation_at_every_byte(target):
    data, spans = _layout(target)
    for cut in range(len(data)):
        outcome = target.read(data[:cut])
        if cut < len(target.prefix):  # inside the file header
            assert outcome.records == [] and outcome.verdict != "clean", cut
            assert outcome.end in (None, 0), cut
            continue
        ends = [end for _, _, end in spans if end <= cut]
        end = ends[-1] if ends else len(target.prefix)
        verdict = "clean" if cut == end else "torn"
        assert outcome == Outcome(target.records[:len(ends)], verdict, end), cut


def test_flipped_byte_at_every_offset(target):
    data, spans = _layout(target)
    for at in range(len(data)):
        index = next((i for i, (start, _, end) in enumerate(spans) if start <= at < end), None)
        for mask in MASKS:
            damaged = bytearray(data)
            damaged[at] ^= mask
            outcome = target.read(bytes(damaged))
            case = f"byte {at} ^ {mask:#x}"
            if index is None:  # the file header
                assert outcome.records == [] and outcome.verdict != "clean", case
            elif outcome.verdict == "error":  # an error returns nothing
                assert at < spans[index][1] or "checksum" in outcome.error, case
            else:
                start = spans[index][0]
                assert outcome == Outcome(target.records[:index], "torn", start), case
                assert not target.at_rest or index == len(spans) - 1, case


def test_delivery_split_at_every_byte(target):
    data, _ = _layout(target)
    start = len(target.prefix) if isinstance(target, Wal) else 0
    for split in range(start, len(data) + 1):
        assert target.tail(data[:split], data[split:]) == target.records, split


def test_stream_fed_one_byte_at_a_time():
    data, _ = _layout(WireStream)
    buffer = message_buffer()
    messages = []
    for at in range(len(data)):
        messages += buffer.feed(data[at:at + 1])
    assert messages == _MESSAGES


# ---------------------------------------------------------------------------
# Records whose checksum holds but whose text is wrong
# ---------------------------------------------------------------------------

# record 2 of the stream, mutated so it no longer fits the document record
# 1 leaves (the ward's children: name, q1 inserted, p1, p2, q0 deleted)
_MISFITS = {
    "skip run past the children": ("~2, Del.patient#q0", "~9, Del.patient#q0"),
    "identifier out of position": (
        "~2, Del.patient#q0(Del.name#q0n, Del.admission#q0a)",
        "~1, Del.patient#q0(Del.name#q0n, Del.admission#q0a), ~1",
    ),
    "label differs": ("Nop.ward#w", "Nop.wing#w"),
}


def _primary(tmp_path, second: str) -> DocumentStore:
    """A stored ``hospital(3)`` whose log holds records 1 and 3 of the
    stream around *second*, all with valid checksums."""
    workload, scripts, _ = _stream()
    store = DocumentStore.init(tmp_path / "primary", fsync="off")
    store.put("d", workload.source, workload.dtd, workload.annotation)
    writer = WalWriter(store.root / "docs" / "d" / "wal.log", policy="off")
    for text in (scripts[0].to_record(), second, scripts[2].to_record()):
        writer.append(text)
    writer.close()
    return store


def _misfits():
    _, scripts, _ = _stream()
    record = scripts[1].to_record()
    for name, (old, new) in _MISFITS.items():
        assert old in record
        yield name, record.replace(old, new, 1)
    # a whole term of another document state: parsed whole, In(S) differs
    yield "whole term, other state", scripts[0].to_term()


@pytest.mark.parametrize("name, second", list(_misfits()), ids=[n for n, _ in _misfits()])
def test_a_record_that_does_not_fit_names_its_seq(tmp_path, name, second):
    _, _, trees = _stream()
    store = _primary(tmp_path, second)
    for recover in (
        lambda: store.recover("d"),
        lambda: store.recover("d", upto_seq=2),
        lambda: store.open_session("d"),
    ):
        with pytest.raises(RecoveryError, match="log record 2 does not apply"):
            recover()
    assert store.recover("d", upto_seq=1).tree == trees[1]
    # a replica that served record 1 refuses record 2 at its refresh
    standby = StandbyStore.init(tmp_path / "standby")
    transport = QueueTransport()
    shipper = WalShipper(store, transport)
    shipper.ship_all()
    frames = transport.drain()
    standby.apply_frames(frames[:2])  # the bootstrap and record 1
    replica = standby.replica_session("d")
    assert replica.source == trees[1]
    assert standby.apply_frames(frames[2:]) == {"applied": 2, "skipped": 0}
    with pytest.raises(ReplicationError, match="log record 2 does not extend"):
        replica.refresh()
    assert replica.applied_seq == 1 and replica.source == trees[1]


@pytest.mark.parametrize("text", [
    "x",
    "~3",
    "Nop.hospital#h(~1",
    "Nop.hospital#h(Nop.ward#w(~0))",
    "Nop.hospital#h(Nop.ward#w(~1,~2))",
    "Nop.hospital#h()",
    "Nop.hospital h",
    "Bad.hospital#h",
    "Nop.hospital#h(Nop.ward#w), Nop.x#y",
])
def test_the_standby_refuses_text_in_neither_form_before_acknowledging(tmp_path, text):
    _, scripts, _ = _stream()
    store = _primary(tmp_path, scripts[1].to_record())
    standby = StandbyStore.init(tmp_path / "standby")
    transport = QueueTransport()
    WalShipper(store, transport).ship_all()
    standby.apply_frames(transport.drain()[:2])
    wal = tmp_path / "standby" / "docs" / "d" / "wal.log"
    before = wal.read_bytes()
    with pytest.raises(ReplicationError, match="record 2 for 'd' is not an edit script"):
        standby.apply_frame(Frame("record", {"doc_id": "d", "seq": 2, "text": text}))
    assert standby.applied_seq("d") == 1
    assert wal.read_bytes() == before
