"""Compiled view engines: precompile ``(D, A)`` once, serve many requests.

Every entry point of the library — :func:`~repro.core.propagate.propagate`,
:func:`~repro.inversion.invert.invert`,
:func:`~repro.core.propagate.validate_view_update` — needs the same
schema-level artifacts: the per-symbol content-model automata, the
derived view DTD recognising ``A(L(D))``, the minimal-tree size table
(the per-symbol distance table weighing every (i)-edge of inversion and
propagation graphs), the canonical minimal shapes, and a tree factory
for invisible insertions. None of them depend on the document or the
update, yet the free functions re-derive them on every call — fine for
one-shot scripts, wasteful for a server answering many updates against
one schema.

A :class:`ViewEngine` is compiled once from ``(DTD, Annotation)`` and
owns all of those artifacts; its per-request methods (:meth:`view`,
:meth:`validate`, :meth:`invert`, :meth:`propagate`,
:meth:`propagate_many`) reuse them for every document and update served.
Compilation is lazy and memoized — each artifact is built on first use
and kept forever (engines are immutable), the per-label ones (the
visibility rows, the view DTD's rules, the (i)-move tables) label by
label — so a transient engine costs no more than the old free-function
path, a first request pays only for the labels it reads, and a
long-lived engine amortises compilation across the whole workload.
:meth:`warm_up` forces every artifact eagerly.

Every propagation the library serves runs one pipeline, the engine's
private ``_propagate``: :meth:`propagate`, each :meth:`propagate_many`
entry, a :class:`~repro.session.DocumentSession` update and a sharded
document's boundary edit. It validates the update (:meth:`validate`),
computes the propagation graphs' costs (:meth:`propagation_graphs`) and
walks one preferred optimal path into a script
(:meth:`PropagationGraphs.build_script`), each under its own span
inside one ``engine.propagate`` span, and counts the propagation once
(:class:`EngineStats`). Callers differ only in what they hand in: a
session its view, size table, word indexes and fresh identifiers, a
batch its cached view.

The free functions remain available and behave identically (they build a
transient engine under the hood); results are byte-identical either way::

    engine = ViewEngine(dtd, annotation).warm_up()
    for update in updates:                      # many requests, one schema
        script = engine.propagate(source, update)
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .core.choosers import CheapestPathChooser, PathChooser, PreferenceChooser
from .core.propagate import (
    PropagationGraphs,
    propagation_graphs,
    validate_view_update,
    verify_propagation,
)
from .core.propagation_graph import InsertMoves, compile_insert_moves
from .dtd import (
    DTD,
    InsertletPackage,
    LabelTable,
    MinimalTreeFactory,
    TreeFactory,
    minimal_sizes,
    view_dtd,
)
from .editing import EditScript
from .graphutil import cheapest_path
from .obs import span as _span
from .inversion import InversionGraphs
from .inversion.graph import InversionGraph, InversionPath
from .inversion.memo import InversionMemo
from .views import Annotation
from .xmltree import NodeId, NodeIds, Tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import DocumentSession

__all__ = ["ViewEngine", "EngineStats", "INVERSION_MEMO_CAPACITY"]

INVERSION_MEMO_CAPACITY = 4096
"""Entries an engine's inversion memo keeps (least recently used
first out). An entry is one node shape's cost and a few short paths,
and a workload's distinct shapes are few: the hospital streams insert
six patient shapes."""


_INVERT_PATHS = ("invert",)
"""The inversion memo's path key for :meth:`ViewEngine.invert`'s paths."""


def _cheapest(graph: InversionGraph) -> InversionPath:
    """:meth:`ViewEngine.invert`'s path: Dijkstra, ties to the smaller
    ``(kind, symbol)`` along the path."""
    path = cheapest_path(
        graph.source,
        graph.targets,
        graph.edges_from,
        tie_break=lambda edge: (edge.kind, edge.symbol),
    )
    assert path is not None, "the sizing verified reachability"
    return path


class _LruCache:
    """A small thread-safe LRU mapping (the inversion memo's substrate)."""

    __slots__ = ("_capacity", "_lock", "_entries")

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, default=None):
        with self._lock:
            value = self._entries.get(key, default)
            if value is not default:
                self._entries.move_to_end(key)
            return value

    def __setitem__(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


@dataclass(frozen=True)
class EngineStats:
    """A snapshot of one engine's request counters.

    Counters are best-effort under concurrency (an increment may be lost
    in a race) — they exist for capacity planning and tests, not billing.
    """

    views: int
    """View extractions served (:meth:`ViewEngine.view`)."""

    validations: int
    """View-update validations run (:meth:`ViewEngine.validate`, which
    every validating propagation calls once)."""

    inversions: int
    """Inverses built (:meth:`ViewEngine.invert`)."""

    propagations: int
    """Propagation scripts built: every :meth:`ViewEngine.propagate`
    call, every :meth:`ViewEngine.propagate_many` entry, every
    :meth:`DocumentSession.propagate <repro.session.DocumentSession.propagate>`
    (previews included) and every boundary edit of a sharded document,
    counted once by the one pipeline they share."""

    def as_dict(self) -> "dict[str, int]":
        """A JSON-serializable snapshot (``repro-xml stats`` emits these)."""
        return dataclasses.asdict(self)


class ViewEngine:
    """A ``(DTD, Annotation)`` pair compiled for repeated serving.

    Parameters
    ----------
    dtd:
        The source schema. Its content-model automata are shared, not
        copied; the engine additionally memoizes every artifact derived
        from them.
    annotation:
        The visibility annotation defining the view.
    factory:
        Tree supplier for invisible insertions — an
        :class:`~repro.dtd.InsertletPackage` or any
        :class:`~repro.dtd.TreeFactory`. Defaults to the canonical
        :class:`~repro.dtd.MinimalTreeFactory`, built from the engine's
        own size table.

    All compiled artifacts are exposed read-only (:attr:`view_dtd`,
    :attr:`factory`, :attr:`minimal_sizes`, :attr:`hidden_table`,
    :attr:`visible_table`) and are stable objects: accessing one twice
    returns the identical instance, which is what makes the per-request
    methods cheap. The per-label ones (the visibility tables, the view
    DTD's rules, :meth:`insert_moves`) derive a label's entry the first
    time a request reads it, so a request pays for the labels it
    touches, not for the whole alphabet.
    """

    __slots__ = (
        "_dtd",
        "_annotation",
        "_factory",
        "_minimal_factory",
        "_view_dtd",
        "_sizes",
        "_hidden",
        "_visible",
        "_schema_hash",
        "_counters",
        "_insert_moves",
        "_inversion_memo",
    )

    def __init__(
        self,
        dtd: DTD,
        annotation: Annotation,
        *,
        factory: TreeFactory | None = None,
    ) -> None:
        self._dtd = dtd
        self._annotation = annotation
        self._factory = factory
        self._minimal_factory: MinimalTreeFactory | None = None
        self._sizes: Mapping[str, int] | None = None
        self._visible: LabelTable[frozenset[str]] = LabelTable(
            dtd.alphabet, self._visible_row
        )
        self._hidden: LabelTable[tuple[str, ...]] = LabelTable(
            dtd.alphabet, self._hidden_row
        )
        self._view_dtd: DTD | None = None
        self._schema_hash: str | None = None
        self._counters: dict[str, int] = {
            "views": 0,
            "validations": 0,
            "inversions": 0,
            "propagations": 0,
        }
        self._insert_moves: "dict[str, InsertMoves]" = {}
        self._inversion_memo: "InversionMemo | None" = None

    # ------------------------------------------------------------------
    # Compiled artifacts
    # ------------------------------------------------------------------

    @property
    def dtd(self) -> DTD:
        """The source schema ``D``."""
        return self._dtd

    @property
    def annotation(self) -> Annotation:
        """The annotation ``A``."""
        return self._annotation

    @property
    def schema_hash(self) -> str:
        """The canonical fingerprint of ``(D, A)``, computed once.

        Two engines over equal schemas share this value regardless of how
        the schemas were constructed — it is the key
        :class:`~repro.registry.EngineRegistry` caches engines under, and
        a stable identifier for logs and metrics.
        """
        if self._schema_hash is None:
            from .registry import schema_fingerprint

            self._schema_hash = schema_fingerprint(self._dtd, self._annotation)
        return self._schema_hash

    @property
    def stats(self) -> "EngineStats":
        """Per-engine request counters (see :class:`EngineStats`)."""
        return EngineStats(**self._counters)

    @property
    def minimal_factory(self) -> MinimalTreeFactory:
        """The compiled canonical minimal-tree factory (size/shape caches)."""
        if self._minimal_factory is None:
            self._minimal_factory = MinimalTreeFactory(
                self._dtd, sizes=self.minimal_sizes
            )
        return self._minimal_factory

    @property
    def factory(self) -> TreeFactory:
        """The tree factory used for every invisible insertion."""
        if self._factory is None:
            self._factory = self.minimal_factory
        return self._factory

    def insertlet_package(
        self, insertlets: Mapping[str, Tree], *, strict: bool = True
    ) -> InsertletPackage:
        """An insertlet package over this schema, sharing the engine's
        compiled minimal-tree factory for labels without a fragment.

        Use with a second engine to serve a new package without
        recompiling anything schema-level::

            fast = ViewEngine(dtd, annotation, factory=engine.insertlet_package(w))
        """
        return InsertletPackage(
            self._dtd, insertlets, strict=strict, fallback=self.minimal_factory
        )

    @property
    def view_dtd(self) -> DTD:
        """The derived DTD recognising exactly ``A(L(D))``, its rule for a
        label derived on the label's first lookup."""
        if self._view_dtd is None:
            self._view_dtd = view_dtd(
                self._dtd, self._annotation, visible_table=self._visible
            )
        return self._view_dtd

    @property
    def minimal_sizes(self) -> Mapping[str, int]:
        """Per-symbol minimal-tree sizes — the (i)-edge distance table."""
        if self._sizes is None:
            self._sizes = MappingProxyType(minimal_sizes(self._dtd))
        return self._sizes

    @property
    def hidden_table(self) -> Mapping[str, tuple[str, ...]]:
        """Per parent label, the sorted symbols hidden under it."""
        return self._hidden

    @property
    def visible_table(self) -> Mapping[str, frozenset[str]]:
        """Per parent label, the set of symbols visible under it."""
        return self._visible

    def _visible_row(self, parent: str) -> frozenset[str]:
        visible = self._annotation.visible
        return frozenset(y for y in self._dtd.sorted_alphabet if visible(parent, y))

    def _hidden_row(self, parent: str) -> tuple[str, ...]:
        visible = self._visible[parent]
        return tuple(y for y in self._dtd.sorted_alphabet if y not in visible)

    def insert_weight(self, label: str) -> int:
        """Size of the tree an invisible insertion of *label* will cost."""
        return self.factory.weight(label)

    def insert_moves(self, label: str) -> InsertMoves:
        """The compiled (i)-edge move table of *label* (see
        :func:`~repro.core.propagation_graph.compile_insert_moves`).

        Per automaton state, the hidden symbols insertable under
        *label*, their successor states, and their factory weights — the
        innermost enumeration of both graph builders — together with the
        state-indexed content model the cost sweep and its walk read
        (state order, finals, and each symbol's successors once a
        request first uses it): schema-level, and therefore compiled
        once per label and shared by every request.
        """
        table = self._insert_moves.get(label)
        if table is None:
            table = compile_insert_moves(
                self._dtd.automaton(label), self.hidden_table[label], self.factory
            )
            self._insert_moves[label] = table
        return table

    @property
    def inversion_memo(self) -> InversionMemo:
        """The engine's :class:`~repro.inversion.memo.InversionMemo`:
        per node shape of an inserted view fragment (its label and its
        children's labels and minimal inversion costs), the shape's
        cost and each chooser's path, shared by every request and
        thread and bounded by :data:`INVERSION_MEMO_CAPACITY`."""
        memo = self._inversion_memo
        if memo is None:
            memo = self._inversion_memo = InversionMemo(
                self._dtd,
                self._annotation,
                self.factory,
                hidden_table=self.hidden_table,
                insert_moves=self.insert_moves,
                entries=_LruCache(INVERSION_MEMO_CAPACITY),
            )
        return memo

    def warm_up(self) -> "ViewEngine":
        """Force every lazy artifact now, every label's included; returns
        the engine (chainable)."""
        self.minimal_sizes
        self.factory
        for label in self._dtd.sorted_alphabet:
            self.view_dtd.automaton(label)
            self.insert_moves(label)
        return self

    # ------------------------------------------------------------------
    # Per-request operations
    # ------------------------------------------------------------------

    def view(self, source: Tree) -> Tree:
        """``A(source)`` — what the view's users see."""
        self._counters["views"] += 1
        return self._annotation.view(source)

    def validate(
        self,
        source: Tree,
        update: EditScript,
        *,
        source_view: Tree | None = None,
        view_known_valid: bool = False,
        _indices: "dict | None" = None,
    ) -> int:
        """Raise unless *update* is a valid view update of ``A(source)``;
        return the automaton steps the check took.

        *source_view* lets batch callers reuse an already-extracted view;
        *view_known_valid* asserts that view satisfies the view DTD, so
        only the edited region of ``Out(update)`` is checked against it
        (see :func:`~repro.core.propagate.validate_view_update`, which
        also reads a session's view indices from *_indices*).
        """
        self._counters["validations"] += 1
        return validate_view_update(
            self._dtd,
            self._annotation,
            source,
            update,
            derived_view_dtd=self.view_dtd,
            source_view=source_view,
            view_known_valid=view_known_valid,
            _indices=_indices,
        )

    def inversion_graphs(self, view: Tree) -> InversionGraphs:
        """The collection ``H(D, A, view)`` built from compiled artifacts,
        every graph built anew: the inspection API (:meth:`invert`
        reads the inversion memo instead)."""
        return self.inversion_memo.reference(view)

    def invert(
        self,
        view: Tree,
        *,
        fresh: "Callable[[], NodeId] | None" = None,
        minimal: bool = True,
    ) -> Tree:
        """One inverse of *view* — a source ``t ∈ L(D)`` with ``A(t) = view``.

        Identical to :func:`repro.inversion.invert` (deterministic,
        size-minimal by default), minus the per-call compilation: each
        node's shape is looked up in the :attr:`inversion_memo`, under
        the path key of this method's tie-break, and its graph is built
        only the first time the shape is met.
        """
        self._counters["inversions"] += 1
        memo = self.inversion_memo
        fragment = memo.size_tree(view)
        if fresh is None:
            # as InversionGraphs.build_tree numbers them
            fresh = NodeIds("h", view.max_suffix("h") + 1).fresh
        return memo.build_tree(
            fragment, (_INVERT_PATHS, minimal), _cheapest, fresh, optimal_only=minimal
        )

    def verify_inverse(self, view: Tree, candidate: Tree) -> bool:
        """``candidate ∈ L(D)`` and ``A(candidate) = view``."""
        return self._dtd.validates(candidate) and self.view(candidate) == view

    def propagation_graphs(
        self,
        source: Tree,
        update: EditScript,
        *,
        validate: bool = True,
        subtree_sizes: "Mapping[NodeId, int] | None" = None,
        _indices: "dict | None" = None,
    ) -> PropagationGraphs:
        """The collection ``G(D, A, source, update)`` from compiled artifacts.

        *subtree_sizes* lets a per-document serving layer (a
        :class:`~repro.session.DocumentSession`) hand in its incrementally
        maintained size table instead of re-deriving it from *source*,
        and *_indices* its index per wide children word (see
        :func:`~repro.core.propagate.propagation_graphs`).
        """
        return propagation_graphs(
            self._dtd,
            self._annotation,
            source,
            update,
            self.factory,
            validate=validate,
            derived_view_dtd=self.view_dtd if validate else self._view_dtd,
            hidden_table=self.hidden_table,
            subtree_sizes=subtree_sizes,
            insert_moves=self.insert_moves,
            inversion_memo=self.inversion_memo,
            _indices=_indices,
        )

    def propagate(
        self,
        source: Tree,
        update: EditScript,
        *,
        chooser: PathChooser | None = None,
        fresh: "Callable[[], NodeId] | None" = None,
        optimal: bool = True,
        validate: bool = True,
    ) -> EditScript:
        """One schema-compliant, side-effect-free propagation of *update*.

        Parameters and result are exactly those of
        :func:`repro.core.propagate.propagate`; the engine only changes
        where the schema artifacts come from. Served by the engine's one
        pipeline (module doc): validated under a ``validate`` span and
        counted in :attr:`EngineStats.validations`, then the graphs and
        the script, each under its span.
        """
        return self._propagate(
            source, update, chooser, optimal, validate, fresh=fresh
        )

    def _propagate(
        self,
        source: Tree,
        update: EditScript,
        chooser: PathChooser | None,
        optimal: bool,
        validate: bool,
        *,
        fresh: "Callable[[], NodeId] | None" = None,
        source_view: Tree | None = None,
        view_known_valid: bool = False,
        subtree_sizes: "Mapping[NodeId, int] | None" = None,
        indices: "dict | None" = None,
        view_indices: "dict | None" = None,
    ) -> EditScript:
        """The propagation pipeline every entry point runs (module doc).

        *source_view*, *view_known_valid* and *view_indices* go to
        :meth:`validate`; *subtree_sizes* and *indices* (a session's
        per-word source indexes, which need ``In(S) = A(t)``) to
        :meth:`propagation_graphs`; *fresh* to the script. Each stage
        is called through the class, so a wrapper installed on it sees
        every propagation.
        """
        self._counters["propagations"] += 1
        if chooser is None:
            chooser = PreferenceChooser() if optimal else CheapestPathChooser()
        with _span("engine.propagate"):
            if validate:
                with _span("validate") as sp:
                    steps = self.validate(
                        source,
                        update,
                        source_view=source_view,
                        view_known_valid=view_known_valid,
                        _indices=view_indices,
                    )
                    sp.set(steps=steps)
            with _span("graphs") as sp:
                collection = self.propagation_graphs(
                    source, update, validate=False,
                    subtree_sizes=subtree_sizes, _indices=indices,
                )
                sp.set(
                    cells=collection.cells,
                    runs=collection.runs,
                    inverted=collection.inverted,
                    inversion_misses=collection.inversion_misses,
                )
            with _span("script"):
                return collection.build_script(chooser, fresh, optimal_only=optimal)

    def propagate_many(
        self,
        source: "Tree | Iterable[tuple[Tree, EditScript]]",
        updates: "Sequence[EditScript] | None" = None,
        *,
        chooser: PathChooser | None = None,
        optimal: bool = True,
        validate: bool = True,
    ) -> list[EditScript]:
        """Propagate a batch of updates, reusing everything compiled.

        Two calling conventions::

            engine.propagate_many(source, [s1, s2, ...])      # one document
            engine.propagate_many([(t1, s1), (t2, s2), ...])  # many documents

        Results equal N independent :meth:`propagate` calls (same scripts,
        same determinism, same order, each entry counted and traced as
        one propagation); consecutive updates against the same document
        additionally share one view extraction during validation. The
        batch is served in order on the calling thread: propagation is
        pure Python, so a thread or process fan-out only adds handoff
        and pickling cost. A single hot document is usually better
        served through a :class:`~repro.session.DocumentSession`.
        """
        if updates is None:
            pairs = list(source)  # type: ignore[arg-type]
        else:
            pairs = [(source, update) for update in updates]
        results: list[EditScript] = []
        cached_source: Tree | None = None
        cached_view: Tree | None = None
        for doc, update in pairs:
            if validate and doc is not cached_source:
                cached_source = doc
                cached_view = self._annotation.view(doc)
            results.append(self._propagate(
                doc, update, chooser, optimal, validate, source_view=cached_view
            ))
        return results

    def session(self, source: Tree, **kwargs) -> "DocumentSession":
        """Open a :class:`~repro.session.DocumentSession` pinning *source*.

        The session serves a stream of sequential view updates against
        one document, carrying the cached view, node-identifier map, and
        subtree-size table forward across propagations.
        """
        from .session import DocumentSession

        return DocumentSession(self, source, **kwargs)

    def verify(
        self, source: Tree, update: EditScript, propagation: EditScript
    ) -> bool:
        """The two correctness criteria plus ``In(S′) = t``."""
        return verify_propagation(
            self._dtd, self._annotation, source, update, propagation
        )

    def __repr__(self) -> str:
        compiled = [
            name
            for name, value in (
                ("sizes", self._sizes),
                ("factory", self._factory),
                ("view_dtd", self._view_dtd),
            )
            if value is not None
        ]
        held = len(self._visible.held)
        if held:
            compiled.append(f"visibility {held}/{len(self._dtd.alphabet)}")
        return (
            f"ViewEngine(|Σ|={len(self._dtd.alphabet)}, "
            f"compiled=[{', '.join(compiled) or 'nothing yet'}])"
        )
