"""Whole-term, record-text and mixed write-ahead logs, read five ways.

Earlier builds journalled each propagation as its whole term text
(``EditScript.to_term``); the journal now writes record text
(``EditScript.to_record``: the edited region, each run of untouched
children one skip token ``~k``). Both read through one parser, against
the document each record edits, so a store upgraded part-way through its
history holds a mixed log.

For streams over hospital, book, a renaming schema and the running
example, three logs are written record by record: whole-term, appended
with ``WalWriter.append(script.to_term())`` as earlier builds journalled;
record text, which must equal what a durable session journals; and a
seeded mix of the two. Each store is compacted part-way. At every seq
the five readers must reproduce the reference document and view, byte
for byte:

* ``DocumentStore.recover()``;
* ``recover(upto_seq=k)``, for every earlier ``k``;
* ``open_session``;
* a ``ReplicaSession`` on a standby, refreshed record by record;
* that standby, fed by a ``WalShipper``: recovered, and its WAL
  byte-identical to the primary's.
"""

from __future__ import annotations

import random

import pytest

from repro.dtd import DTD
from repro.editing import EditScript, UpdateBuilder
from repro.generators.updates import random_view_update
from repro.generators.workloads import Workload, hospital, huge_document, running_example
from repro.replication import QueueTransport, StandbyStore, WalShipper
from repro.store import DocumentStore
from repro.store.wal import WalWriter
from repro.views import Annotation
from repro.xmltree import parse_term, tree_to_xml

DOC = "d"
LENGTH = 8
COMPACT_AT = 4


def _discharge_admit(rng, view, builder, step) -> None:
    (ward,) = view.children(view.root)
    patients = view.children(ward)[1:]
    builder.delete(rng.choice(patients))
    builder.insert(
        ward,
        parse_term(f"patient#q{step}(name#q{step}n, admission#q{step}a)"),
        index=rng.randint(1, len(patients)),
    )


def _replace_paragraph(rng, view, builder, step) -> None:
    chapter = rng.choice(view.children(view.root))
    section = rng.choice([
        kid for kid in view.children(chapter)
        if view.label(kid) == "section" and view.children(kid)
    ])
    paragraphs = view.children(section)
    builder.delete(rng.choice(paragraphs))
    builder.insert(
        section, parse_term(f"para#u{step}"), index=rng.randint(0, len(paragraphs) - 1)
    )


def _rename(rng, view, builder, step) -> None:
    items = view.children(view.root)
    renamed = rng.choice(items)
    builder.rename(renamed, "note" if view.label(renamed) == "article" else "article")
    if len(items) > 4:
        builder.delete(rng.choice([item for item in items if item != renamed]))
    builder.insert(
        view.root,
        parse_term(f"article#r{step}(title#r{step}t)"),
        index=rng.randint(0, len(builder.output_children(view.root))),
    )


def _built(edit):
    """The next update of a stream: *edit* applied through a builder."""

    def next_update(rng, workload, session, step):
        builder = UpdateBuilder(session.view, forbidden_ids=session.source.nodes())
        edit(rng, session.view, builder, step)
        return builder.script()

    return next_update


def _random(rng, workload, session, step):
    return random_view_update(
        rng, workload.dtd, workload.annotation, session.source, n_ops=3
    )


def _articles() -> Workload:
    """Articles renamed to notes and back; both keep a hidden audit."""
    dtd = DTD({
        "doc": "(article|note)*",
        "article": "title,audit?",
        "note": "title,audit?",
        "title": "",
        "audit": "",
    })
    annotation = Annotation.hiding(("article", "audit"), ("note", "audit"))
    items = ", ".join(
        f"article#a{i}(title#t{i}, audit#x{i})" if i % 2 else f"note#a{i}(title#t{i})"
        for i in range(8)
    )
    source = parse_term(f"doc#d({items})")
    return Workload("articles", dtd, annotation, source, EditScript.phantom(source))


FAMILIES = {
    "hospital": (lambda: hospital(12), _built(_discharge_admit)),
    "book": (lambda: huge_document(400), _built(_replace_paragraph)),
    "renaming": (_articles, _built(_rename)),
    "running": (lambda: running_example(4), _random),
}


def _reference(root, workload: Workload, next_update, seed: int):
    """The stream served by a durable session under *root*: its scripts,
    the document and view XML after each, and the log it journalled."""
    rng = random.Random(seed)
    journal = DocumentStore.init(root, fsync="off")
    journal.put(DOC, workload.source, workload.dtd, workload.annotation)
    scripts, states = [], [_state(workload, workload.source)]
    with journal.open_session(DOC) as session:
        for step in range(LENGTH):
            scripts.append(session.propagate(next_update(rng, workload, session, step)))
            states.append(_state(workload, session.source))
    return scripts, states, (root / "docs" / DOC / "wal.log").read_bytes()


def _state(workload: Workload, tree) -> "tuple[str, str]":
    return tree_to_xml(tree), tree_to_xml(workload.annotation.view(tree))


def _kinds(kind: str, seed: int) -> "list[str]":
    """Per record, whether it is written whole or as record text."""
    if kind != "mixed":
        return [kind] * LENGTH
    rng = random.Random(seed)
    kinds = [rng.choice(("whole", "record")) for _ in range(LENGTH)]
    kinds[0], kinds[-1] = "whole", "record"  # an upgrade: old records first
    return kinds


@pytest.mark.parametrize("kind", ["whole", "record", "mixed"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_reader_agrees_at_every_seq(tmp_path, family, kind):
    make, next_update = FAMILIES[family]
    workload = make()
    seed = sum(map(ord, family))
    scripts, states, journalled = _reference(tmp_path / "journal", workload, next_update, seed)
    store = DocumentStore.init(tmp_path / "primary", fsync="off")
    store.put(DOC, workload.source, workload.dtd, workload.annotation)
    wal = tmp_path / "primary" / "docs" / DOC / "wal.log"
    standby = StandbyStore.init(tmp_path / "standby", primary_root=store.root)
    transport = QueueTransport()
    shipper = WalShipper(store, transport)
    shipper.ship_all()
    standby.apply_frames(transport.drain())
    replica = standby.replica_session(DOC)

    for seq, (script, which) in enumerate(zip(scripts, _kinds(kind, seed)), 1):
        writer = WalWriter(wal, policy="off")
        writer.append(script.to_term() if which == "whole" else script.to_record())
        writer.close()
        if seq == COMPACT_AT:
            assert store.compact(DOC) == seq
        expected = states[seq]
        assert _state(workload, store.recover(DOC).tree) == expected, seq
        for earlier in range(seq + 1):
            recovered = store.recover(DOC, upto_seq=earlier).tree
            assert _state(workload, recovered) == states[earlier], (seq, earlier)
        with store.open_session(DOC) as session:
            assert session.last_seq == seq
            assert (tree_to_xml(session.source), tree_to_xml(session.view)) == expected
        shipper.ship_all()
        standby.apply_frames(transport.drain())
        assert (tmp_path / "standby" / "docs" / DOC / "wal.log").read_bytes() == wal.read_bytes()
        assert _state(workload, standby.recover(DOC).tree) == expected, seq
        assert replica.refresh() == 1
        assert (tree_to_xml(replica.source), tree_to_xml(replica.view)) == expected, seq

    if kind == "record":
        # what the durable session journalled (compaction trimmed nothing)
        assert wal.read_bytes() == journalled
    standby.close()
    store.close()
