"""Ship-frame framing and the three carriers.

The framing shares the WAL's failure model: an incomplete final frame
is "not yet received", interior damage is fatal. Each carrier —
in-process queue, OS socket stream, append-only spool file — must
deliver exactly the frames that were completely sent, in order,
whatever the kill point.
"""

import pytest

from repro.errors import ReplicationError
from repro.replication import (
    FileSpoolTransport,
    QueueTransport,
    SocketTransport,
    decode_frames,
    encode_frame,
)

PAYLOADS = [
    {"doc_id": "a", "seq": 1, "text": "Nop.r#n0"},
    {"doc_id": "a", "seq": 2, "text": "Nop.r#n0(Del.a#n1)"},
    {"doc_id": "b", "seq": 1, "text": "Nop.r#n9"},
]


class TestFraming:
    def test_round_trip(self):
        data = b"".join(encode_frame("record", p) for p in PAYLOADS)
        frames, consumed = decode_frames(data)
        assert consumed == len(data)
        assert [f.payload for f in frames] == PAYLOADS
        assert {f.kind for f in frames} == {"record"}

    def test_unknown_kind_is_refused_at_encode_time(self):
        with pytest.raises(ReplicationError, match="unknown frame kind"):
            encode_frame("gossip", {})

    def test_interior_corruption_is_fatal(self):
        first = bytearray(encode_frame("record", PAYLOADS[0]))
        first[-3] ^= 0xFF  # flip a payload byte: checksum now fails
        data = bytes(first) + encode_frame("record", PAYLOADS[1])
        with pytest.raises(ReplicationError, match="interior corruption"):
            decode_frames(data)

    def test_garbage_header_is_fatal(self):
        with pytest.raises(ReplicationError, match="malformed ship frame"):
            decode_frames(b"not a frame\n" + encode_frame("record", PAYLOADS[0]))

    def test_length_beyond_the_limit_is_fatal(self):
        """A damaged length digit declaring 100 GB is not a frame in
        flight: the stream is refused, nothing before it is lost."""
        intact = b"".join(encode_frame("record", p) for p in PAYLOADS[:2])
        with pytest.raises(ReplicationError, match="frame limit"):
            decode_frames(b"F record 99999999999 0\n" + intact)
        with pytest.raises(ReplicationError, match="frame limit"):
            decode_frames(intact + b"F record 99999999999 0\n")

    def test_oversized_payload_is_refused_at_encode_time(self, monkeypatch):
        from repro.replication import transport

        monkeypatch.setattr(transport, "MAX_FRAME_BYTES", 64)
        encode_frame("record", {"text": "x" * 40})
        with pytest.raises(ReplicationError, match="64-byte frame limit"):
            encode_frame("bootstrap", {"text": "x" * 60})
        sock = SocketTransport()
        try:
            with pytest.raises(ReplicationError, match="frame limit"):
                sock.send("record", {"text": "x" * 60})
            assert sock.sent == 0 and sock.drain() == []  # nothing went out
        finally:
            sock.close()

    def test_non_object_payload_is_refused(self):
        import json
        import zlib

        body = json.dumps([1, 2, 3]).encode()
        raw = (
            f"F record {len(body)} {zlib.crc32(body)}\n".encode()
            + body
            + b"\n"
        )
        with pytest.raises(ReplicationError, match="not an object"):
            decode_frames(raw)


class TestQueueTransport:
    def test_send_drain_in_order(self):
        queue = QueueTransport()
        for payload in PAYLOADS:
            queue.send("record", payload)
        frames = queue.drain()
        assert [f.payload for f in frames] == PAYLOADS
        assert queue.drain() == []
        assert (queue.sent, queue.received) == (3, 3)


class TestSocketTransport:
    def test_frames_survive_the_byte_stream(self):
        sock = SocketTransport()
        try:
            for payload in PAYLOADS:
                sock.send("record", payload)
            frames = sock.drain()
            assert [f.payload for f in frames] == PAYLOADS
        finally:
            sock.close()

    def test_partial_send_stays_buffered_until_completed(self):
        sock = SocketTransport()
        try:
            whole = encode_frame("record", PAYLOADS[0])
            sock._send_sock.sendall(whole[:10])
            assert sock.drain() == []  # half a frame: nothing to apply
            sock._send_sock.sendall(whole[10:])
            frames = sock.drain()
            assert [f.payload for f in frames] == [PAYLOADS[0]]
        finally:
            sock.close()

    def test_damaged_length_digit_drops_the_link(self):
        sock = SocketTransport()
        try:
            sock._send_sock.sendall(
                b"F record 99999999999 0\n"
                + b"".join(encode_frame("record", p) for p in PAYLOADS[:2])
            )
            with pytest.raises(ReplicationError, match="frame limit"):
                sock.drain()
            assert sock.received == 0
        finally:
            sock.close()

    def test_a_large_frame_is_scanned_about_once(self, monkeypatch):
        """An 8 MiB bootstrap frame arriving in 64 KiB pieces hands the
        scanner at most twice its bytes: the buffer re-scans only once
        the declared body can be complete."""
        from repro import framing

        scanned = []
        real = framing.scan

        def spy(data, *args, **kwargs):
            scanned.append(len(data))
            return real(data, *args, **kwargs)

        monkeypatch.setattr(framing, "scan", spy)
        payload = {"doc_id": "a", "snapshot_xml": "x" * (8 << 20)}
        whole = encode_frame("bootstrap", payload)
        sock = SocketTransport()
        try:
            frames = []
            for at in range(0, len(whole), 1 << 16):
                sock._send_sock.sendall(whole[at:at + (1 << 16)])
                frames += sock.drain()
        finally:
            sock.close()
        assert [f.payload for f in frames] == [payload]
        assert sum(scanned) <= 2 * len(whole)


class TestFileSpoolTransport:
    def test_drain_advances_past_only_complete_frames(self, tmp_path):
        spool = FileSpoolTransport(tmp_path / "s.spool")
        spool.send("record", PAYLOADS[0])
        spool.send("record", PAYLOADS[1])
        reader = FileSpoolTransport(tmp_path / "s.spool")
        assert [f.payload for f in reader.drain()] == PAYLOADS[:2]
        assert reader.drain() == []  # offset remembered
        spool.send("record", PAYLOADS[2])
        assert [f.payload for f in reader.drain()] == [PAYLOADS[2]]

    def test_missing_spool_reads_as_empty(self, tmp_path):
        assert FileSpoolTransport(tmp_path / "nope.spool").drain() == []

    def test_resumed_shipping_refuses_interior_damage(self, tmp_path):
        """Frame 2 of 3 declares a body running past the end of the
        spool, but frame 3 is intact: that is damage, not a torn tail,
        and a resumed shipper must not cut frames 2 and 3 away."""
        path = tmp_path / "s.spool"
        spool = FileSpoolTransport(path)
        for seq in (1, 2, 3):
            spool.send("record", {"doc_id": "a", "seq": seq, "text": "Nop.r#n0"})
        data = path.read_bytes()
        second = data.index(b"\nF record ") + len(b"\nF record ")
        path.write_bytes(data[:second] + b"9" + data[second:])
        damaged = path.read_bytes()
        with pytest.raises(ReplicationError, match="intact frame follows"):
            FileSpoolTransport(path).send("record", {"doc_id": "a", "seq": 4, "text": "x"})
        assert path.read_bytes() == damaged
        with pytest.raises(ReplicationError):
            FileSpoolTransport(path).drain()

    def test_rewind_replays_from_the_start(self, tmp_path):
        spool = FileSpoolTransport(tmp_path / "s.spool")
        spool.send("record", PAYLOADS[0])
        reader = FileSpoolTransport(tmp_path / "s.spool")
        assert len(reader.drain()) == 1
        reader.rewind()
        assert len(reader.drain()) == 1

    def test_shorter_rewritten_spool_restarts_the_reader(self, tmp_path):
        path = tmp_path / "s.spool"
        spool = FileSpoolTransport(path)
        for payload in PAYLOADS:
            spool.send("record", payload)
        reader = FileSpoolTransport(path)
        assert len(reader.drain()) == 3
        path.unlink()
        fresh = FileSpoolTransport(path)
        fresh.send("record", PAYLOADS[0])
        assert [f.payload for f in reader.drain()] == [PAYLOADS[0]]
