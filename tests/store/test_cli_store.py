"""The ``repro-xml store …`` and ``repro-xml stats`` subcommands: the
full init → put → propagate ×N → kill → recover → verify round trip a
deployment would script."""

import json

import pytest

from repro.cli import main
from repro.errors import WALCorruptError, exit_code
from repro.store import DocumentStore, scan_wal

DTD_TEXT = """
<!ELEMENT r (a,(b|c),d)*>
<!ELEMENT d ((a|b),c)*>
"""

ANNOTATION_TEXT = """
hide r b
hide r c
hide d a
hide d b
"""

DOC_XML = """
<r id="n0">
  <a id="n1"/><b id="n2"/>
  <d id="n3"><a id="n7"/><c id="n8"/></d>
  <a id="n4"/><c id="n5"/>
  <d id="n6"><b id="n9"/><c id="n10"/></d>
</r>
"""

UPDATE_TERM = (
    "Nop.r#n0(Del.a#n1, Del.d#n3(Del.c#n8), Nop.a#n4, "
    "Ins.d#n11(Ins.c#n13, Ins.c#n14), Ins.a#n12, "
    "Nop.d#n6(Nop.c#n10, Ins.c#n15))"
)


@pytest.fixture
def files(tmp_path):
    dtd = tmp_path / "schema.dtd"
    dtd.write_text(DTD_TEXT)
    annotation = tmp_path / "policy.ann"
    annotation.write_text(ANNOTATION_TEXT)
    doc = tmp_path / "doc.xml"
    doc.write_text(DOC_XML)
    update = tmp_path / "update.term"
    update.write_text(UPDATE_TERM)
    return tmp_path, dtd, annotation, doc, update


@pytest.fixture
def populated(files):
    tmp_path, dtd, annotation, doc, update = files
    root = tmp_path / "st"
    assert main(["store", "init", "--root", str(root)]) == 0
    assert (
        main(
            [
                "store", "put", "--root", str(root), "--id", "demo",
                "--dtd", str(dtd), "--annotation", str(annotation),
                "--doc", str(doc),
            ]
        )
        == 0
    )
    return root, update


class TestStoreCli:
    def test_init_put_ls(self, populated, capsys):
        root, _ = populated
        assert main(["store", "ls", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "demo" in out and "last_seq=0" in out

    def test_propagate_logs_and_emits_document(self, populated, capsys):
        root, update = populated
        assert (
            main(
                [
                    "store", "propagate", "--root", str(root), "--id", "demo",
                    "--update", str(update), "--fsync", "batch",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert 'id="n11"' in captured.out
        assert "wal seq 1" in captured.err
        assert scan_wal(root / "docs" / "demo" / "wal.log").last_seq == 1

    def test_full_round_trip_with_kill(self, populated, capsys):
        """init → propagate ×2 → kill (torn tail) → recover → the view is
        byte-identical to what the store served before the crash."""
        root, update = populated
        assert (
            main(
                [
                    "store", "propagate", "--root", str(root), "--id", "demo",
                    "--update", str(update),
                ]
            )
            == 0
        )
        capsys.readouterr()
        served = DocumentStore(root).load("demo")

        # the crash: a half-written record at the log tail
        wal = root / "docs" / "demo" / "wal.log"
        wal.write_bytes(wal.read_bytes() + b"R 2 999 1\nhalf a record")

        out = root / "recovered.xml"
        assert (
            main(
                [
                    "store", "recover", "--root", str(root), "--id", "demo",
                    "--out", str(out),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "torn tail truncated" in err
        from repro.xmltree import tree_from_xml, tree_to_xml

        assert tree_from_xml(out.read_text()) == served
        assert out.read_text().strip() == tree_to_xml(served).strip()

    def test_recover_view(self, populated, capsys):
        root, update = populated
        main(
            [
                "store", "propagate", "--root", str(root), "--id", "demo",
                "--update", str(update),
            ]
        )
        capsys.readouterr()
        assert (
            main(["store", "recover", "--root", str(root), "--id", "demo", "--view"])
            == 0
        )
        out = capsys.readouterr().out
        assert "<b" not in out  # hidden labels never reach the view

    def test_compact_after_flag(self, populated, capsys):
        root, update = populated
        assert (
            main(
                [
                    "store", "propagate", "--root", str(root), "--id", "demo",
                    "--update", str(update), "--compact-after",
                ]
            )
            == 0
        )
        assert "compacted at seq 1" in capsys.readouterr().err
        stats = DocumentStore(root).stats("demo")
        # genesis stays retained (keep_snapshots=2), so the log keeps
        # covering it; recovery starts from the new snapshot regardless
        assert stats["snapshots"] == [0, 1]
        assert DocumentStore(root).recover("demo").replayed == 0

    def test_store_stats_json(self, populated, capsys):
        root, _ = populated
        assert main(["store", "stats", "--root", str(root), "--id", "demo"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["doc_id"] == "demo"
        assert payload["wal_last_seq"] == 0
        assert main(["store", "stats", "--root", str(root)]) == 0
        whole = json.loads(capsys.readouterr().out)
        assert [doc["doc_id"] for doc in whole["documents"]] == ["demo"]

    def test_corrupt_store_reports_error(self, populated, capsys):
        root, _ = populated
        wal = root / "docs" / "demo" / "wal.log"
        wal.write_bytes(b"not a wal at all\n")
        assert main(
            ["store", "recover", "--root", str(root), "--id", "demo"]
        ) == exit_code(WALCorruptError())
        assert "error[wal_corrupt]:" in capsys.readouterr().err


    def test_interior_length_damage_refuses_recovery(self, populated, capsys):
        """A 9 in front of record 1's declared length, with record 2
        intact behind it: recovery exits 3 and cuts nothing."""
        root, _ = populated
        for term in (
            "Nop.r#n0(Nop.a#n1, Nop.d#n3(Nop.c#n8), Nop.a#n4, "
            "Ins.d#u0(Ins.c#u1), Ins.a#u2, Nop.d#n6(Nop.c#n10))",
            "Nop.r#n0(Nop.a#n1, Nop.d#n3(Nop.c#n8), Nop.a#n4, "
            "Nop.d#u0(Nop.c#u1), Del.a#u2, Del.d#n6(Del.c#n10))",
        ):
            update = root / "u.term"
            update.write_text(term)
            assert main(
                [
                    "store", "propagate", "--root", str(root), "--id", "demo",
                    "--update", str(update), "--fsync", "always",
                ]
            ) == 0
        wal = root / "docs" / "demo" / "wal.log"
        data = wal.read_bytes()
        wal.write_bytes(data.replace(b"\nR 1 ", b"\nR 1 9", 1))
        damaged = wal.read_bytes()
        capsys.readouterr()
        assert main(["store", "recover", "--root", str(root), "--id", "demo"]) == 3
        assert "error[wal_corrupt]:" in capsys.readouterr().err
        assert wal.read_bytes() == damaged


class TestStatsCli:
    def test_registry_stats_json(self, files, capsys):
        tmp_path, dtd, annotation, doc, update = files
        # a propagate warms the default registry in this process
        main(
            [
                "propagate", "--dtd", str(dtd), "--annotation", str(annotation),
                "--doc", str(doc), "--update", str(update),
            ]
        )
        capsys.readouterr()
        assert main(["stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "registry" in payload and "engines" in payload
        entry = next(
            engine for engine in payload["engines"] if engine["propagations"]
        )
        assert set(entry) >= {"schema_hash", "factory", "propagations"}

    def test_compact_flag_single_line(self, capsys):
        assert main(["stats", "--compact"]) == 0
        out = capsys.readouterr().out.strip()
        assert "\n" not in out
        json.loads(out)
