"""repro.framing: the bytes every format writes, the successor rule and
the tail cursor's positions."""

import os

import pytest

from repro import framing
from repro.replication.transport import encode_frame
from repro.server.protocol import encode_message
from repro.store.wal import create_wal, encode_record, wal_cursor

WAL = framing.Grammar(rb"R (\d+)", magic=rb"WALv1 (\d+)", seq=True, text=True)


class TestGoldenBytes:
    """Fixed inputs against the exact bytes each format wrote before the
    formats shared one framing module."""

    def test_wal(self, tmp_path):
        assert encode_record(7, "Nop.r#n0(Ins.ä#n1)") == (
            b"R 7 19 2949982860\nNop.r#n0(Ins.\xc3\xa4#n1)\n"
        )
        create_wal(tmp_path / "wal.log", base_seq=41)
        assert (tmp_path / "wal.log").read_bytes() == b"WALv1 41\n"

    def test_ship_frames(self):
        assert encode_frame(
            "bootstrap",
            {
                "doc_id": "d",
                "schema": "h",
                "dtd": "<!ELEMENT r (a)*>",
                "annotation": "hide r a",
                "snapshot_seq": 0,
                "snapshot_xml": '<r id="n0"/>',
            },
        ) == (
            b'F bootstrap 137 1681003101\n{"annotation": "hide r a", "doc_id": "d", '
            b'"dtd": "<!ELEMENT r (a)*>", "schema": "h", "snapshot_seq": 0, '
            b'"snapshot_xml": "<r id=\\"n0\\"/>"}\n'
        )
        assert encode_frame(
            "checkpoint",
            {"doc_id": "d", "schema": "h", "snapshot_seq": 4, "snapshot_xml": '<r id="n0"/>'},
        ) == (
            b'F checkpoint 83 3673824157\n{"doc_id": "d", "schema": "h", '
            b'"snapshot_seq": 4, "snapshot_xml": "<r id=\\"n0\\"/>"}\n'
        )
        assert encode_frame(
            "record", {"doc_id": "d", "seq": 5, "text": "Nop.r#n0(Ins.ä#n1)"}
        ) == (
            b'F record 60 229408001\n{"doc_id": "d", "seq": 5, '
            b'"text": "Nop.r#n0(Ins.\\u00e4#n1)"}\n'
        )

    def test_wire_message(self):
        message = {"op": "propagate", "doc": "d", "update": "Nop.r#n0", "id": 7}
        assert encode_message({**message, "x": [1, 2.5, None, True]}) == (
            b'M 89 1513505707\n{"doc": "d", "id": 7, "op": "propagate", '
            b'"update": "Nop.r#n0", "x": [1, 2.5, null, true]}\n'
        )


def _log(*texts):
    return b"WALv1 0\n" + b"".join(encode_record(n, t) for n, t in enumerate(texts, 1))


class TestSuccessorRule:
    def test_length_running_past_the_end_is_torn_only_at_the_tail(self):
        data = _log("Nop.r#n0", "Nop.r#n1")
        second = data.index(b"R 2 ") + 4
        torn = framing.scan(data[:second] + b"9" + data[second:], WAL)
        assert torn.damage.torn and torn.damage.reason == framing.CUT
        first = data.index(b"R 1 ") + 4
        interior = framing.scan(data[:first] + b"9" + data[first:], WAL)
        assert not interior.damage.torn and interior.damage.reason == framing.CUT
        assert interior.frames == [] and interior.end == 8

    def test_a_stream_waits_for_the_declared_body(self):
        data = _log("Nop.r#n0", "Nop.r#n1")[8:]
        first = data.index(b"R 1 ") + 4
        damaged = data[:first] + b"9" + data[first:]
        grammar = framing.Grammar(rb"R (\d+)")
        found = framing.scan(damaged, grammar, stream=True)
        assert found.damage.torn and found.end == 0
        declared = int(damaged.split(b" ")[2])
        assert found.need == damaged.index(b"\n") + 1 + declared + 1

    def test_checksum_failure_at_the_end_with_an_intact_frame_inside(self):
        # record 1's length grows so that its span swallows record 2 and
        # ends exactly at the end: the terminator lines up, the checksum
        # fails, and the intact record 2 inside makes it damage
        data = _log("Nop.r#n0", "Nop.r#n1")
        record = encode_record(1, "Nop.r#n0")
        grown = len(data) - 8 - (record.index(b"\n") + 1) - 1
        damaged = data.replace(b"R 1 8 ", b"R 1 %d " % grown)
        found = framing.scan(damaged, WAL)
        assert found.damage.reason == framing.CHECKSUM and not found.damage.torn


class TestTailCursor:
    def _cursor(self, path):
        return framing.TailCursor(path, WAL, lambda found: found)

    def test_reads_only_what_was_appended(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(_log("Nop.r#n0", "Nop.r#n1"))
        cursor = self._cursor(path)
        assert [f.tag for f in cursor.read().frames] == [1, 2]
        assert cursor.read().frames == []
        with open(path, "ab") as handle:
            handle.write(encode_record(3, "Nop.r#n2"))
        found = cursor.read()
        assert [f.tag for f in found.frames] == [3] and found.seq == 3 and found.head == 0

    def test_an_unchanged_file_is_not_opened(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.log"
        path.write_bytes(_log("Nop.r#n0"))
        cursor = self._cursor(path)
        assert cursor.changed()
        cursor.read()
        assert not cursor.changed()

        def closed(*args, **kwargs):
            raise AssertionError("the cursor opened an unchanged file")

        monkeypatch.setattr(framing, "open", closed, raising=False)
        found = cursor.read()
        assert found.frames == [] and found.damage is None
        assert (found.end, found.head, found.seq) == (path.stat().st_size, 0, 1)
        monkeypatch.undo()
        with open(path, "ab") as handle:
            handle.write(encode_record(2, "Nop.r#n1"))
        assert cursor.changed()
        assert [f.tag for f in cursor.read().frames] == [2]
        fresh = tmp_path / "wal.log.tmp"
        fresh.write_bytes(path.read_bytes())
        os.replace(fresh, path)  # same bytes, another inode
        assert cursor.changed()

    def test_a_replaced_or_shrunk_file_is_read_in_full(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(_log("Nop.r#n0", "Nop.r#n1"))
        cursor = self._cursor(path)
        cursor.read()
        fresh = tmp_path / "wal.log.tmp"
        fresh.write_bytes(b"WALv1 5\n" + encode_record(6, "Nop.r#n0") + b"x" * 40)
        os.replace(fresh, path)  # a rewrite as long as the old log
        found = cursor.read()
        assert found.head == 5 and [f.tag for f in found.frames] == [6]
        path.write_bytes(b"WALv1 9\n")  # same inode, shorter
        found = cursor.read()
        assert found.head == 9 and found.frames == [] and found.seq == 9

    def test_a_tail_that_does_not_continue_is_judged_whole(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(_log("Nop.r#n0"))
        cursor = self._cursor(path)
        cursor.read()
        with open(path, "ab") as handle:
            handle.write(encode_record(3, "Nop.r#n2"))  # 2 is missing
        found = cursor.read()
        assert found.damage.reason == framing.SEQ
        assert found.end == 8 + len(encode_record(1, "Nop.r#n0"))

    def test_a_late_stale_state_costs_a_re_read_not_a_wrong_position(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(_log("Nop.r#n0"))
        cursor = wal_cursor(path)
        cursor.read()
        stale = cursor.state  # what a slower concurrent reader started from
        with open(path, "ab") as handle:
            handle.write(encode_record(2, "Nop.r#n1"))
        assert cursor.read().last_seq == 2
        cursor.state = stale  # its result lands last
        tail = cursor.read()
        assert [r.seq for r in tail.records] == [2] and tail.last_seq == 2

    def test_a_raising_convert_keeps_the_position(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(_log("Nop.r#n0"))
        cursor = framing.TailCursor(path, WAL, lambda found: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            cursor.read()
        assert cursor.state is None
