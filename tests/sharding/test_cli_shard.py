"""The ``repro-xml shard …`` subcommands: init → status → propagate →
reopen, against the hospital workload on disk."""

import json

import pytest

from repro.cli import main
from repro.dtd import serialize_dtd
from repro.errors import DocumentExistsError, StoreError, exit_code
from repro.editing import UpdateBuilder
from repro.generators.workloads import hospital
from repro.registry import default_registry
from repro.xmltree import parse_term, tree_from_xml, tree_to_xml


@pytest.fixture
def files(tmp_path):
    w = hospital()
    (tmp_path / "schema.dtd").write_text(serialize_dtd(w.dtd))
    (tmp_path / "policy.ann").write_text(w.annotation.serialize())
    (tmp_path / "doc.xml").write_text(tree_to_xml(w.source))
    view = w.annotation.view(w.source)
    edit = UpdateBuilder(view, forbidden_ids=w.source.nodes())
    edit.delete("e5_0")
    edit.insert("p1", parse_term("symptom#u0"), index=2)
    (tmp_path / "update.term").write_text(edit.script().to_term())
    return tmp_path, w


@pytest.fixture
def initialised(files):
    tmp_path, w = files
    root = tmp_path / "sharded"
    code = main(
        [
            "shard",
            "init",
            "--root",
            str(root),
            "--dtd",
            str(tmp_path / "schema.dtd"),
            "--annotation",
            str(tmp_path / "policy.ann"),
            "--doc",
            str(tmp_path / "doc.xml"),
            "--depth",
            "2",
        ]
    )
    assert code == 0
    return tmp_path, root, w


class TestShardCli:
    def test_init_reports_the_cut(self, initialised, capsys):
        # init already ran in the fixture; re-running must fail (the
        # store refuses to initialise over an existing one)
        tmp_path, root, w = initialised
        capsys.readouterr()
        assert (
            main(
                [
                    "shard",
                    "init",
                    "--root",
                    str(root),
                    "--dtd",
                    str(tmp_path / "schema.dtd"),
                    "--annotation",
                    str(tmp_path / "policy.ann"),
                    "--doc",
                    str(tmp_path / "doc.xml"),
                ]
            )
            == exit_code(DocumentExistsError())
        )

    def test_status_emits_per_shard_json(self, initialised, tmp_path):
        _, root, w = initialised
        out = tmp_path / "status.json"
        assert (
            main(["shard", "status", "--root", str(root), "--out", str(out)])
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["durable"] and payload["depth"] == 2
        assert payload["shards"] == len(payload["docs"])
        assert "mode" not in payload

    def test_propagate_script_matches_unsharded(self, initialised, tmp_path):
        tmp_path_, root, w = initialised
        out = tmp_path / "script.term"
        assert (
            main(
                [
                    "shard",
                    "propagate",
                    "--root",
                    str(root),
                    "--update",
                    str(tmp_path_ / "update.term"),
                    "--script",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        from repro.editing import EditScript

        engine = default_registry().get_or_compile(w.dtd, w.annotation)
        update = EditScript.parse((tmp_path_ / "update.term").read_text().strip())
        expected = engine.session(w.source).propagate(update)
        assert out.read_text().strip() == expected.to_term()

    def test_propagate_document_output_survives_reopen(
        self, initialised, tmp_path
    ):
        tmp_path_, root, w = initialised
        out = tmp_path / "new.xml"
        assert (
            main(
                [
                    "shard",
                    "propagate",
                    "--root",
                    str(root),
                    "--update",
                    str(tmp_path_ / "update.term"),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        new_source = tree_from_xml(out.read_text())
        status = tmp_path / "status2.json"
        assert (
            main(
                ["shard", "status", "--root", str(root), "--out", str(status)]
            )
            == 0
        )
        payload = json.loads(status.read_text())
        assert payload["shards"] >= 1
        # the stored shards reassemble to exactly the propagated source
        from repro.sharding import ShardedDocument

        with ShardedDocument.open(root) as doc:
            assert doc.source.to_term() == new_source.to_term()

    def test_missing_layout_is_a_clean_error(self, tmp_path):
        assert (
            main(["shard", "status", "--root", str(tmp_path / "nowhere")])
            == exit_code(StoreError())
        )
