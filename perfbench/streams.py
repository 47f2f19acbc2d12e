"""Seeded, size-stationary view-update streams for the served benchmark.

Every edit removes one subtree and adds one of the same shape, so the
document keeps its size for the whole run: a stream that only deleted
(or deleted more than it added) would end up measuring a much smaller
document than the one it started on. Insertions land at a random
position, never only at the end of a sibling list, so a later prefix or
suffix cache is not flattered.

Streams are built from the workload generators in :mod:`repro.generators`
and a seed; the program under test only ever sees the generated update
terms. Generating an update is cheap (string assembly over per-subtree
cached terms), so the benchmark can draw updates between timed requests
without the cost showing up in any latency.

* :class:`HospitalStream` — ``hospital(n)``: discharge one patient whose
  record holds no hidden field, admit one patient of the same visible
  shape at a random ward position. The wire carries the whole view
  update term; :meth:`HospitalStream.reference` gives the in-process
  reference script of each acknowledged update, in order.
* :class:`BookStream` — ``huge_document(n)``: delete one paragraph and
  insert one into a random section of the same random chapter. Each
  update's reference script is computed at generation time by
  propagating the chapter-local update through the engine and splicing
  it into the all-``Nop`` rest of the book — which is exactly the
  sharded router's byte-identity promise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.editing import EditScript, UpdateBuilder
from repro.generators.workloads import hospital, huge_document
from repro.registry import EngineRegistry
from repro.xmltree import Tree

HOSPITAL_HIDDEN = frozenset({"diagnosis", "bill"})
VERIFY_SAMPLE = 4
"""Updates per stream checked with :meth:`ViewEngine.verify`, drawn
from the first 16; every run acknowledges at least that many."""


@dataclass
class Update:
    """One generated view update, as it goes over the wire."""

    term: str
    """The view update in term notation."""

    dirty: "list[str] | None" = None
    """``shard_propagate`` dirty hints (roots of the edited regions)."""

    expected: "str | None" = None
    """The reference source script, when known at generation time."""

    chapter: "tuple[str, Tree] | None" = None
    """The edited chapter's id and its source once the update applied."""


@dataclass
class _Patient:
    pid: str
    kids: "list[tuple[str, str]]"  # visible (label, id) children
    hidden: bool  # whether the source record holds hidden fields
    nop: str = field(init=False)

    def __post_init__(self) -> None:
        self.nop = _patient_term("Nop", self.pid, self.kids)


def _patient_term(op: str, pid: str, kids: "list[tuple[str, str]]") -> str:
    inner = ", ".join(f"{op}.{label}#{nid}" for label, nid in kids)
    return f"{op}.patient#{pid}({inner})"


class HospitalStream:
    """Discharge/admit edits over ``hospital(n_patients)``."""

    def __init__(self, n_patients: int, seed: int) -> None:
        self.workload = hospital(n_patients)
        self._rng = random.Random(seed)
        self._verify_at = set(random.Random(seed ^ 0x5EED).sample(range(16), VERIFY_SAMPLE))
        self.verified = 0
        self._session = None
        self._referenced = 0
        source = self.workload.source
        self._root = source.root
        (self._ward,) = source.children(self._root)
        kids = source.children(self._ward)
        self._ward_name = kids[0]
        self._patients = []
        for pid in kids[1:]:
            labelled = [(source.label(kid), kid) for kid in source.children(pid)]
            self._patients.append(
                _Patient(
                    pid,
                    [(label, kid) for label, kid in labelled if label not in HOSPITAL_HIDDEN],
                    any(label in HOSPITAL_HIDDEN for label, _ in labelled),
                )
            )
        if not any(not patient.hidden for patient in self._patients):
            raise ValueError("hospital document has no patient without hidden fields")
        self._made = 0

    @property
    def start_nodes(self) -> int:
        return self.workload.source.size

    def next(self) -> Update:
        rng = self._rng
        patients = self._patients
        victim_at = rng.choice([i for i, p in enumerate(patients) if not p.hidden])
        victim = patients[victim_at]
        remaining = patients[:victim_at] + patients[victim_at + 1:]
        position = rng.randint(0, len(remaining))
        new_id = f"q{self._made}"
        self._made += 1
        admitted = _Patient(
            new_id,
            [(label, f"{new_id}_{m}") for m, (label, _) in enumerate(victim.kids)],
            False,
        )
        inserted = _patient_term("Ins", new_id, admitted.kids)
        # the admitted patient sits right after its visible predecessor,
        # ahead of the discharged one when the two are neighbours
        predecessor = remaining[position - 1].pid if position else None
        parts = [inserted] if predecessor is None else []
        for index, patient in enumerate(patients):
            parts.append(
                _patient_term("Del", patient.pid, patient.kids)
                if index == victim_at
                else patient.nop
            )
            if patient.pid == predecessor:
                parts.append(inserted)
        remaining.insert(position, admitted)
        self._patients = remaining
        term = (
            f"Nop.hospital#{self._root}(Nop.ward#{self._ward}("
            f"Nop.name#{self._ward_name}, {', '.join(parts)}))"
        )
        return Update(term)

    def reference(self, term: str) -> str:
        """The in-process reference script for the next acknowledged
        update *term*, propagated through a fresh engine's session.

        Updates are referenced in the order the server acknowledged
        them; a seeded sample of the first ones must pass
        :meth:`ViewEngine.verify` (a failed verification raises).
        """
        if self._session is None:
            w = self.workload
            self._engine = EngineRegistry().get_or_compile(w.dtd, w.annotation)
            self._session = self._engine.session(w.source)
        update = EditScript.parse(term)
        before = self._session.source
        script = self._session.propagate(update)
        if self._referenced in self._verify_at:
            if not self._engine.verify(before, update, script):
                raise AssertionError(f"update {self._referenced} fails ViewEngine.verify")
            self.verified += 1
        self._referenced += 1
        return script.to_term()

    @property
    def reference_source(self) -> Tree:
        """The reference source after every update referenced so far."""
        return self.workload.source if self._session is None else self._session.source


@dataclass
class _Chapter:
    source: Tree
    view: Tree
    source_nop: str
    view_nop: str


def _chapter(source: Tree, view: Tree) -> _Chapter:
    return _Chapter(
        source,
        view,
        EditScript.phantom(source).to_term(),
        EditScript.phantom(view).to_term(),
    )


class BookStream:
    """Paragraph delete/insert edits over ``huge_document(n_nodes)``."""

    def __init__(self, n_nodes: int, seed: int) -> None:
        self.workload = w = huge_document(n_nodes)
        self._rng = random.Random(seed)
        self._verify_at = set(random.Random(seed ^ 0x5EED).sample(range(16), VERIFY_SAMPLE))
        self.verified = 0
        self.engine = EngineRegistry().get_or_compile(w.dtd, w.annotation)
        self._root = w.source.root
        self._chapters = [
            _chapter(sub, w.annotation.view(sub))
            for sub in (w.source.subtree(c) for c in w.source.children(self._root))
        ]
        self._made = 0

    @property
    def start_nodes(self) -> int:
        return self.workload.source.size

    def chapters(self) -> "dict[str, Tree]":
        """Source subtree of every chapter, by chapter id, as of the
        updates generated so far."""
        return {ch.source.root: ch.source for ch in self._chapters}

    def _book(self, pieces: "list[str]") -> str:
        return f"Nop.book#{self._root}({', '.join(pieces)})"

    def next(self) -> Update:
        rng = self._rng
        at = rng.randrange(len(self._chapters))
        chapter = self._chapters[at]
        view = chapter.view
        sections = [s for s in view.children(view.root) if view.label(s) == "section"]
        victim_section = rng.choice([s for s in sections if view.children(s)])
        victim = rng.choice(view.children(victim_section))
        target = rng.choice(sections)
        new_id = f"x{self._made}"
        self._made += 1
        builder = UpdateBuilder(view, forbidden_ids=chapter.source.nodes())
        builder.delete(victim)
        slot = rng.randint(0, len(builder.output_children(target)))
        builder.insert(target, Tree.leaf("para", new_id), index=slot)
        update = builder.script()
        script = self.engine.propagate(chapter.source, update)
        if self._made - 1 in self._verify_at:
            if not self.engine.verify(chapter.source, update, script):
                raise AssertionError(f"update {new_id} fails ViewEngine.verify")
            self.verified += 1
        views = [ch.view_nop for ch in self._chapters]
        sources = [ch.source_nop for ch in self._chapters]
        views[at] = update.to_term()
        sources[at] = script.to_term()
        self._chapters[at] = _chapter(script.output_tree, update.output_tree)
        return Update(
            self._book(views),
            dirty=[victim, new_id],
            expected=self._book(sources),
            chapter=(chapter.source.root, script.output_tree),
        )

