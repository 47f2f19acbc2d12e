"""The write-ahead log file format: appends, scans, torn tails,
interior corruption, fsync policies."""

import zlib

import pytest

from repro.errors import StoreError, WALCorruptError
from repro.store.wal import (
    WalWriter,
    create_wal,
    encode_record,
    scan_wal,
    truncate_torn_tail,
)


@pytest.fixture
def wal(tmp_path):
    path = tmp_path / "wal.log"
    create_wal(path, base_seq=0)
    return path


def _append_raw(path, *texts, start=1):
    with open(path, "ab") as handle:
        for offset, text in enumerate(texts):
            handle.write(encode_record(start + offset, text))


class TestFormat:
    def test_empty_log_scans_clean(self, wal):
        scan = scan_wal(wal)
        assert scan.base_seq == 0
        assert scan.records == ()
        assert scan.last_seq == 0
        assert scan.torn_at is None

    def test_appended_records_round_trip(self, wal):
        _append_raw(wal, "Nop.r#n0", "Nop.r#n0(Ins.a#n1)")
        scan = scan_wal(wal)
        assert [record.seq for record in scan.records] == [1, 2]
        assert scan.records[1].text == "Nop.r#n0(Ins.a#n1)"
        assert scan.last_seq == 2
        assert scan.torn_at is None

    def test_base_seq_survives(self, tmp_path):
        path = tmp_path / "wal.log"
        create_wal(path, base_seq=41)
        _append_raw(path, "Nop.r#n0", start=42)
        scan = scan_wal(path)
        assert scan.base_seq == 41
        assert scan.last_seq == 42

    def test_missing_header_is_fatal(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"not a wal\n")
        with pytest.raises(WALCorruptError, match="header"):
            scan_wal(path)

    def test_empty_file_is_fatal(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"")
        with pytest.raises(WALCorruptError):
            scan_wal(path)


class TestTornTails:
    """Every prefix a crash mid-append can leave must scan as torn —
    never as corrupt, never as complete."""

    def test_truncate_torn_tail_repairs(self, wal):
        _append_raw(wal, "Nop.r#n0")
        intact = wal.read_bytes()
        wal.write_bytes(intact + b"R 2 50 123\npartial")
        scan = scan_wal(wal)
        assert truncate_torn_tail(wal, scan)
        assert wal.read_bytes() == intact
        clean = scan_wal(wal)
        assert clean.torn_at is None and clean.last_seq == 1

    def test_truncate_is_noop_on_clean_log(self, wal):
        _append_raw(wal, "Nop.r#n0")
        scan = scan_wal(wal)
        assert not truncate_torn_tail(wal, scan)

    def test_corrupt_checksum_on_final_record_is_torn(self, wal):
        _append_raw(wal, "Nop.r#n0", "Nop.r#n0(Ins.a#n1)")
        data = bytearray(wal.read_bytes())
        data[-3] ^= 0xFF  # flip a payload byte of the last record
        wal.write_bytes(bytes(data))
        scan = scan_wal(wal)
        assert scan.torn_at is not None
        assert scan.last_seq == 1


class TestInteriorCorruption:
    def test_malformed_header_with_data_after_is_fatal(self, wal):
        garbage = b"XX not a record\n"
        wal.write_bytes(wal.read_bytes() + garbage + encode_record(1, "Nop.r#n0"))
        with pytest.raises(WALCorruptError, match="malformed record header"):
            scan_wal(wal)

    def test_sequence_gap_is_fatal(self, wal):
        _append_raw(wal, "Nop.r#n0")
        with open(wal, "ab") as handle:
            handle.write(encode_record(3, "Nop.r#n0"))  # 2 went missing
        with pytest.raises(WALCorruptError, match="missing or reordered"):
            scan_wal(wal)


class TestDamagedLength:
    """A length digit damaged to declare a body running past the end of
    the log is interior damage when an intact record follows it."""

    def test_record_4_of_5_is_not_a_torn_tail(self, wal):
        _append_raw(wal, *(f"Nop.r#n{i}" for i in range(5)))
        data = wal.read_bytes()
        at = data.index(b"R 4 ") + len(b"R 4 ")
        wal.write_bytes(data[:at] + b"9" + data[at:])
        damaged = wal.read_bytes()
        with pytest.raises(WALCorruptError, match="record 4 at byte .* intact record follows"):
            scan_wal(wal)
        with pytest.raises(WALCorruptError):
            WalWriter(wal, policy="off")
        assert wal.read_bytes() == damaged  # records 4 and 5 were not cut

    def test_the_same_damage_in_the_final_record_is_torn(self, wal):
        _append_raw(wal, "Nop.r#n0", "Nop.r#n1")
        data = wal.read_bytes()
        at = data.index(b"R 2 ") + len(b"R 2 ")
        wal.write_bytes(data[:at] + b"9" + data[at:])
        scan = scan_wal(wal)
        assert scan.last_seq == 1 and scan.torn_at == at - len(b"R 2 ")


class TestWalWriter:
    def test_append_assigns_sequential_numbers(self, wal):
        writer = WalWriter(wal, policy="off")
        assert writer.append("Nop.r#n0") == 1
        assert writer.append("Nop.r#n0") == 2
        writer.close()
        assert scan_wal(wal).last_seq == 2

    def test_opening_truncates_torn_tail(self, wal):
        _append_raw(wal, "Nop.r#n0")
        wal.write_bytes(wal.read_bytes() + b"R 2 9 1\nhalf")
        writer = WalWriter(wal, policy="off")
        assert writer.last_seq == 1
        assert writer.append("Nop.r#n0(Ins.a#n1)") == 2
        writer.close()
        assert [r.text for r in scan_wal(wal).records] == [
            "Nop.r#n0",
            "Nop.r#n0(Ins.a#n1)",
        ]

    def test_always_policy_syncs_every_append(self, wal):
        writer = WalWriter(wal, policy="always")
        writer.append("Nop.r#n0")
        writer.append("Nop.r#n0")
        assert writer.syncs == 2
        assert writer.pending == 0
        writer.close()

    def test_batch_policy_syncs_every_interval(self, wal):
        writer = WalWriter(wal, policy="batch", batch_interval=3)
        for _ in range(7):
            writer.append("Nop.r#n0")
        assert writer.syncs == 2  # at append 3 and 6
        assert writer.pending == 1
        writer.close()
        assert writer.syncs == 3  # close flushes the remainder

    def test_off_policy_never_syncs(self, wal):
        writer = WalWriter(wal, policy="off")
        for _ in range(5):
            writer.append("Nop.r#n0")
        writer.close()
        assert writer.syncs == 0
        assert scan_wal(wal).last_seq == 5  # still written, just not fsynced

    def test_unknown_policy_refused(self, wal):
        with pytest.raises(StoreError, match="fsync policy"):
            WalWriter(wal, policy="sometimes")

    def test_reopen_follows_a_rewritten_log(self, wal, tmp_path):
        writer = WalWriter(wal, policy="off")
        writer.append("Nop.r#n0")
        create_wal(wal, base_seq=7)  # compaction swaps a trimmed log in
        writer.reopen()
        assert writer.last_seq == 7
        assert writer.append("Nop.r#n0") == 8
        writer.close()
        scan = scan_wal(wal)
        assert scan.base_seq == 7 and scan.last_seq == 8


class TestEncodeRecord:
    def test_record_carries_crc_and_length(self):
        payload = "Nop.r#n0(Del.a#n1)".encode()
        record = encode_record(5, payload.decode())
        header, rest = record.split(b"\n", 1)
        assert header == f"R 5 {len(payload)} {zlib.crc32(payload)}".encode()
        assert rest == payload + b"\n"

    def test_unicode_payloads_round_trip(self, wal):
        text = "Nop.r#n0(Ins.ä#n1)"
        _append_raw(wal, text)
        assert scan_wal(wal).records[0].text == text
