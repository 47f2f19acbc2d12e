"""A store written by the previous build, opened by this one.

``fixtures/upgrade/store`` was written by the build before record text
(the CI store smoke's schema, document and two updates), so its log holds
whole-term records; ``fixtures/upgrade/view.xml`` is the view that
build recovered. This build must recover the same view, append record
text behind the old records (a mixed log), recover that as a fresh store
that took the same updates does, and ship it to a standby byte for byte.
"""

import shutil
from pathlib import Path

from repro.editing import EditScript
from repro.replication import StandbyStore, replicate
from repro.store import DocumentStore, scan_wal
from repro.xmltree import tree_from_xml, tree_to_xml

FIXTURE = Path(__file__).parent / "fixtures" / "upgrade"

UPDATES = [
    "Nop.r#n0(Nop.a#n1, Nop.d#n3(Nop.c#n8), Nop.a#n4, Ins.d#u0(Ins.c#u1), "
    "Ins.a#u2, Nop.d#n6(Nop.c#n10))",
    "Nop.r#n0(Nop.a#n1, Nop.d#n3(Nop.c#n8), Nop.a#n4, Nop.d#u0(Nop.c#u1), "
    "Del.a#u2, Del.d#n6(Del.c#n10))",
    # the update the CI upgrade smoke adds behind the old records
    "Nop.r#n0(Nop.a#n1, Nop.d#n3(Nop.c#n8, Ins.c#u3), Nop.a#n4, "
    "Nop.d#u0(Nop.c#u1), Ins.a#u4, Ins.d#u5(Ins.c#u6))",
]


def _propagate(store: DocumentStore, updates) -> None:
    with store.open_session("demo") as session:
        for text in updates:
            session.propagate(EditScript.parse(text, base=session.view))


def test_the_previous_builds_store_recovers_extends_and_ships(tmp_path):
    shutil.copytree(FIXTURE / "store", tmp_path / "old")
    old = DocumentStore(tmp_path / "old")
    _, annotation = old.schema("demo")
    wal = tmp_path / "old" / "docs" / "demo" / "wal.log"
    assert all("~" not in record.text for record in scan_wal(wal).records)
    view = annotation.view(old.recover("demo").tree)
    assert view == tree_from_xml((FIXTURE / "view.xml").read_text(), require_ids=True)

    _propagate(old, UPDATES[2:])
    genesis = old.recover("demo", repair=False, upto_seq=0).tree
    fresh = DocumentStore.init(tmp_path / "fresh")
    fresh.put("demo", genesis, *old.schema("demo"))
    _propagate(fresh, UPDATES)
    mixed = scan_wal(wal).records
    assert ["~" in record.text for record in mixed] == [False, False, True]
    assert mixed[2] == scan_wal(tmp_path / "fresh" / "docs" / "demo" / "wal.log").records[2]
    assert tree_to_xml(old.recover("demo").tree) == tree_to_xml(fresh.recover("demo").tree)

    standby = StandbyStore.init(tmp_path / "standby")
    assert replicate(old, standby)["positions"] == {"demo": 3}
    assert (tmp_path / "standby" / "docs" / "demo" / "wal.log").read_bytes() == wal.read_bytes()
    replica = standby.replica_session("demo")
    assert replica.view == annotation.view(fresh.recover("demo").tree)
    standby.close()
