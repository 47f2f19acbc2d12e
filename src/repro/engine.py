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
and kept forever (engines are immutable) — so a transient engine costs
no more than the old free-function path, while a long-lived engine
amortises compilation across the whole workload. :meth:`warm_up` forces
every artifact eagerly for latency-sensitive servers.

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
    MinimalTreeFactory,
    TreeFactory,
    minimal_sizes,
    view_dtd,
)
from .editing import EditScript
from .graphutil import cheapest_path
from .obs import span as _span
from .inversion import InversionGraphs, inversion_graphs
from .inversion.graph import InversionGraph, InversionPath
from .views import Annotation
from .xmltree import NodeId, Tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import DocumentSession

__all__ = ["ViewEngine", "EngineStats"]


class _LruCache:
    """A small thread-safe LRU mapping (the engine's memo substrate)."""

    __slots__ = ("_capacity", "_lock", "_entries", "evictions")

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict" = OrderedDict()
        self.evictions = 0

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
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class _MemoEntry:
    """Everything memoized for one exact ``(source, update)`` request.

    ``validated`` records that the pair passed view-update validation
    (validation is deterministic, so re-running it on a repeat request
    proves nothing); ``graphs`` holds the propagation-graph collection;
    ``scripts`` the finished propagation per ``(chooser key, optimal)``
    — a second chooser against a cached collection rebuilds only the
    script, not the graphs.
    """

    __slots__ = ("validated", "graphs", "scripts")

    def __init__(self) -> None:
        self.validated = False
        self.graphs: "PropagationGraphs | None" = None
        self.scripts: "dict[tuple, EditScript]" = {}


@dataclass(frozen=True)
class EngineStats:
    """A snapshot of one engine's request counters.

    Counters are best-effort under concurrency (an increment may be lost
    in a race) — they exist for capacity planning and tests, not billing.
    """

    views: int
    """View extractions served (:meth:`ViewEngine.view`)."""

    validations: int
    """View-update validations actually run (:meth:`ViewEngine.validate`
    plus first-time validations on the memo path — a memo repeat skips
    the deterministic re-validation and is not counted here)."""

    inversions: int
    """Inverses built (:meth:`ViewEngine.invert`)."""

    propagations: int
    """Propagation scripts built (single and batched)."""

    memo_hits: int = 0
    """Propagations served straight from the cross-request memo."""

    memo_misses: int = 0
    """Memo-eligible propagations that had to build their script."""

    memo_evictions: int = 0
    """Memo entries dropped by the LRU policy."""

    memo_bypass: int = 0
    """Propagations not memoizable (caller-supplied ``fresh``, a chooser
    without a canonical key, or memoization disabled)."""

    disk_memo_hits: int = 0
    """Memo misses served from the attached disk tier instead of
    rebuilding graphs (a subset of :attr:`memo_misses` avoided)."""

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
    methods cheap.
    """

    __slots__ = (
        "_dtd",
        "_annotation",
        "_factory",
        "_minimal_factory",
        "_view_dtd",
        "_view_supplier",
        "_sizes",
        "_hidden",
        "_visible",
        "_schema_hash",
        "_counters",
        "_insert_moves",
        "_memo",
        "_inversion_cache",
        "_disk",
        "_disk_token",
        "_artifact_persisted",
        "_artifact_supplier",
    )

    def __init__(
        self,
        dtd: DTD,
        annotation: Annotation,
        *,
        factory: TreeFactory | None = None,
        memo_capacity: int = 64,
        inversion_cache_capacity: int = 256,
    ) -> None:
        self._dtd = dtd
        self._annotation = annotation
        self._factory = factory
        self._minimal_factory: MinimalTreeFactory | None = None
        self._view_dtd: DTD | None = None
        self._view_supplier = None
        self._sizes: Mapping[str, int] | None = None
        self._hidden: Mapping[str, tuple[str, ...]] | None = None
        self._visible: Mapping[str, frozenset[str]] | None = None
        self._schema_hash: str | None = None
        self._counters: dict[str, int] = {
            "views": 0,
            "validations": 0,
            "inversions": 0,
            "propagations": 0,
            "memo_hits": 0,
            "memo_misses": 0,
            "memo_bypass": 0,
            "disk_memo_hits": 0,
        }
        self._disk = None
        self._disk_token: "str | None" = None
        self._artifact_persisted = False
        self._artifact_supplier = None
        self._insert_moves: "dict[str, InsertMoves]" = {}
        self._memo = _LruCache(memo_capacity) if memo_capacity > 0 else None
        self._inversion_cache = (
            _LruCache(inversion_cache_capacity)
            if inversion_cache_capacity > 0
            else None
        )

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
        return EngineStats(
            **self._counters,
            memo_evictions=self._memo.evictions if self._memo else 0,
        )

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
        """The derived DTD recognising exactly ``A(L(D))``."""
        if self._view_dtd is None and self._view_supplier is None:
            self._consume_artifact_supplier()
        if self._view_dtd is None and self._view_supplier is not None:
            supplier, self._view_supplier = self._view_supplier, None
            try:
                self._view_dtd = supplier()
            except Exception:  # damaged hydration thunk: derive instead
                self._view_dtd = None
        if self._view_dtd is None:
            self._view_dtd = view_dtd(
                self._dtd, self._annotation, visible_table=self.visible_table
            )
        return self._view_dtd

    @property
    def minimal_sizes(self) -> Mapping[str, int]:
        """Per-symbol minimal-tree sizes — the (i)-edge distance table."""
        if self._sizes is None:
            self._consume_artifact_supplier()
        if self._sizes is None:
            self._sizes = MappingProxyType(minimal_sizes(self._dtd))
        return self._sizes

    @property
    def hidden_table(self) -> Mapping[str, tuple[str, ...]]:
        """Per parent label, the sorted symbols hidden under it."""
        if self._hidden is None:
            self._consume_artifact_supplier()
        if self._hidden is None:
            self._compile_visibility()
        assert self._hidden is not None
        return self._hidden

    @property
    def visible_table(self) -> Mapping[str, frozenset[str]]:
        """Per parent label, the set of symbols visible under it."""
        if self._visible is None:
            self._consume_artifact_supplier()
        if self._visible is None:
            self._compile_visibility()
        assert self._visible is not None
        return self._visible

    def _compile_visibility(self) -> None:
        hidden: dict[str, tuple[str, ...]] = {}
        visible: dict[str, frozenset[str]] = {}
        alphabet = self._dtd.sorted_alphabet
        for parent in alphabet:
            seen = [y for y in alphabet if self._annotation.visible(parent, y)]
            visible[parent] = frozenset(seen)
            hidden[parent] = tuple(
                y for y in alphabet if y not in visible[parent]
            )
        self._hidden = MappingProxyType(hidden)
        self._visible = MappingProxyType(visible)

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

    def invalidate_memo(self) -> None:
        """Drop every memoized propagation result and inversion collection.

        The memo is keyed by request *content* under this engine's
        compiled artifacts, which are immutable — a schema change means
        a different fingerprint and therefore a different engine, so
        nothing ever invalidates implicitly. This is the explicit knob
        (memory pressure, tests). An attached disk tier drops its memo
        entries for this schema too, so the invalidation survives a
        restart."""
        if self._memo is not None:
            self._memo.clear()
        if self._inversion_cache is not None:
            self._inversion_cache.clear()
        if self._disk is not None and self._disk_token is not None:
            self._disk.drop_memos(self.schema_hash, self._disk_token)

    # ------------------------------------------------------------------
    # Disk cache tier
    # ------------------------------------------------------------------

    def attach_disk_tier(self, cache, factory_token: str) -> "ViewEngine":
        """Attach a :class:`~repro.cache.DiskCache` beneath the memo.

        *factory_token* is the registry's factory key component — the
        disk tier addresses this engine's entries by
        ``(schema fingerprint, factory token)``, mirroring the registry
        key. Memo misses then consult disk before building graphs, and
        newly built scripts (plus the compiled artifacts, once warm) are
        persisted for other processes and future restarts.
        """
        self._disk = cache
        self._disk_token = factory_token
        return self

    @property
    def disk_tier(self):
        """The attached :class:`~repro.cache.DiskCache`, or ``None``."""
        return self._disk

    def _install_artifacts(
        self,
        *,
        sizes: "Mapping[str, int]",
        hidden: "Mapping[str, tuple[str, ...]]",
        visible: "Mapping[str, frozenset[str]]",
        schema_hash: str,
        view_dtd: "DTD | None" = None,
        view_supplier=None,
    ) -> None:
        """Install precompiled artifacts (the disk tier's hydration path;
        see :func:`repro.cache.hydrate_engine`).

        The view DTD may arrive as a thunk instead of a value: a
        validated disk memo hit never consults it, so hydration defers
        the automata rebuild until something actually asks. A supplier
        returning ``None`` (damaged description) falls back to normal
        derivation in :attr:`view_dtd`.
        """
        self._view_dtd = view_dtd
        self._view_supplier = view_supplier
        self._sizes = MappingProxyType(dict(sizes))
        self._hidden = MappingProxyType(dict(hidden))
        self._visible = MappingProxyType(dict(visible))
        self._schema_hash = schema_hash
        self._artifact_persisted = True  # it came *from* the disk tier

    def _consume_artifact_supplier(self) -> None:
        """Fold in the disk tier's artifact, if the registry deferred one.

        The registry does not read the artifact at build time — a fresh
        process whose first request is a validated memo hit never needs
        it. The first access to any compiled table lands here instead:
        a hit installs the whole precompiled bundle, a miss (or damage)
        leaves every table to derive normally. One attempt only.
        """
        if self._artifact_supplier is None:
            return
        supplier, self._artifact_supplier = self._artifact_supplier, None
        try:
            parts = supplier()
        except Exception:
            parts = None  # damaged tier: derive everything normally
        if parts is not None:
            self._install_artifacts(**parts)

    def _persist_artifact(self) -> None:
        """Best-effort artifact put; at most one attempt per engine."""
        self._consume_artifact_supplier()  # a disk-held artifact counts as persisted
        if self._disk is None or self._disk_token is None or self._artifact_persisted:
            return
        self._artifact_persisted = True
        try:
            from .cache import build_artifact_payload

            payload = build_artifact_payload(self, self._disk_token)
            if payload is not None:
                self._disk.put_artifact(self.schema_hash, self._disk_token, payload)
        except Exception:  # the cache tier must never break serving
            pass

    def warm_up(self) -> "ViewEngine":
        """Force every lazy artifact now; returns the engine (chainable)."""
        self.minimal_sizes
        self.factory
        self.visible_table
        self.view_dtd
        for label in self._dtd.sorted_alphabet:
            self.insert_moves(label)
        self._persist_artifact()
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
        """The collection ``H(D, A, view)`` built from compiled artifacts.

        Served through the engine's cross-request inversion cache: an
        identical view (same identifiers) reuses the collection built
        for it last time.
        """
        cache = self._inversion_cache
        key = view.content_key() if cache is not None else None
        if key is not None:
            cached = cache.get(key)
            if cached is not None:
                return cached
        collection = inversion_graphs(
            self._dtd,
            self._annotation,
            view,
            self.factory,
            hidden_table=self.hidden_table,
            insert_moves=self.insert_moves,
        )
        if key is not None:
            cache[key] = collection
        return collection

    def invert(
        self,
        view: Tree,
        *,
        fresh: "Callable[[], NodeId] | None" = None,
        minimal: bool = True,
    ) -> Tree:
        """One inverse of *view* — a source ``t ∈ L(D)`` with ``A(t) = view``.

        Identical to :func:`repro.inversion.invert` (deterministic,
        size-minimal by default), minus the per-call compilation.
        """
        self._counters["inversions"] += 1
        graphs = self.inversion_graphs(view)

        def choose(graph: InversionGraph) -> InversionPath:
            path = cheapest_path(
                graph.source,
                graph.targets,
                graph.edges_from,
                tie_break=lambda edge: (edge.kind, edge.symbol),
            )
            assert path is not None, "collection builder verified reachability"
            return path

        return graphs.build_tree(choose, fresh, optimal_only=minimal)

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
            inversion_cache=self._inversion_cache,
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
        memo: bool = True,
    ) -> EditScript:
        """One schema-compliant, side-effect-free propagation of *update*.

        Parameters and result are exactly those of
        :func:`repro.core.propagate.propagate`; the engine only changes
        where the schema artifacts come from.

        Requests are additionally served through the engine's
        cross-request memo (*memo=False* opts out): the key is the exact
        content of ``(source, update)`` — identifiers included — under
        this engine's compiled ``(D, A, W)``, so a repeated identical
        update returns the previously built script without touching a
        single graph. Results are byte-identical either way (propagation
        is deterministic); requests with a caller-supplied *fresh*
        generator or a chooser without a :meth:`cache_key` bypass the
        memo rather than risk a wrong share.
        """
        self._counters["propagations"] += 1
        if chooser is None:
            chooser = PreferenceChooser() if optimal else CheapestPathChooser()
        chooser_key = self._chooser_key(chooser) if memo and fresh is None else None
        if chooser_key is None or self._memo is None:
            self._counters["memo_bypass"] += 1
            with _span("engine.propagate", memo="bypass"):
                with _span("graphs", validate=validate):
                    collection = self.propagation_graphs(
                        source, update, validate=validate
                    )
                with _span("script"):
                    return collection.build_script(
                        chooser, fresh, optimal_only=optimal
                    )
        return self._memo_propagate(
            source, update, chooser, chooser_key, optimal, validate, None
        )

    @staticmethod
    def _chooser_key(chooser: PathChooser) -> "tuple | None":
        key = getattr(chooser, "cache_key", None)
        return key() if callable(key) else None

    def _memo_propagate(
        self,
        source: Tree,
        update: EditScript,
        chooser: PathChooser,
        chooser_key: tuple,
        optimal: bool,
        validate: bool,
        view_supplier: "Callable[[], Tree] | None",
    ) -> EditScript:
        """Serve one propagation through the cross-request memo.

        *view_supplier* optionally hands in an already-extracted source
        view for validation (the batch path's per-document view cache);
        it is only consulted when this exact pair has not been validated
        before.
        """
        assert self._memo is not None
        key = (source.content_key(), update.content_key())
        entry = self._memo.get(key)
        if entry is None:
            entry = _MemoEntry()
            self._memo[key] = entry
        with _span("engine.propagate") as sp:
            script_key = (chooser_key, optimal)
            script = entry.scripts.get(script_key)
            from_disk = False
            if script is None and self._disk is not None:
                script = self._disk_memo_get(key, chooser_key, optimal, entry)
                from_disk = script is not None
            if validate and not entry.validated:
                self._counters["validations"] += 1
                with _span("validate"):
                    validate_view_update(
                        self._dtd,
                        self._annotation,
                        source,
                        update,
                        derived_view_dtd=self.view_dtd,
                        source_view=(
                            view_supplier() if view_supplier is not None else None
                        ),
                    )
                entry.validated = True
            if script is not None:
                self._counters["memo_hits"] += 1
                if from_disk:
                    self._counters["disk_memo_hits"] += 1
                sp.set(memo="disk" if from_disk else "hit")
                return script
            self._counters["memo_misses"] += 1
            sp.set(memo="miss")
            graphs = entry.graphs
            if graphs is None:
                with _span("graphs"):
                    graphs = entry.graphs = self.propagation_graphs(
                        source, update, validate=False
                    )
            with _span("script"):
                script = graphs.build_script(chooser, None, optimal_only=optimal)
            entry.scripts[script_key] = script
            self._disk_memo_put(key, chooser_key, optimal, script, entry.validated)
            self._persist_artifact()
            return script

    def _disk_memo_get(
        self,
        key: "tuple[str, str]",
        chooser_key: tuple,
        optimal: bool,
        entry: _MemoEntry,
    ) -> "EditScript | None":
        """Consult the disk tier for one memo entry (``None`` on a miss
        or any damage — disk failures never surface to the caller)."""
        assert self._disk is not None and self._disk_token is not None
        try:
            from .cache import memo_script_key

            payload = self._disk.get_memo(
                self.schema_hash,
                self._disk_token,
                key[0],
                key[1],
                memo_script_key(chooser_key, optimal),
            )
            if payload is None:
                return None
            script = EditScript.parse(payload["script"])
            entry.scripts[(chooser_key, optimal)] = script
            if payload.get("validated"):
                entry.validated = True
            return script
        except Exception:
            return None

    def _disk_memo_put(
        self,
        key: "tuple[str, str]",
        chooser_key: tuple,
        optimal: bool,
        script: EditScript,
        validated: bool,
    ) -> None:
        """Best-effort persist of one freshly built script. The term text
        must survive an exact parse round trip (the same contract the
        durable store enforces on its journal, checked the same way) or
        the entry is skipped."""
        if self._disk is None or self._disk_token is None:
            return
        try:
            from .cache import memo_script_key

            term = script.to_term()
            script.check_round_trip()
            self._disk.put_memo(
                self.schema_hash,
                self._disk_token,
                key[0],
                key[1],
                memo_script_key(chooser_key, optimal),
                term,
                validated=validated,
            )
        except Exception:
            pass

    def propagate_many(
        self,
        source: "Tree | Iterable[tuple[Tree, EditScript]]",
        updates: "Sequence[EditScript] | None" = None,
        *,
        chooser: PathChooser | None = None,
        optimal: bool = True,
        validate: bool = True,
        memo: bool = True,
    ) -> list[EditScript]:
        """Propagate a batch of updates, reusing everything compiled.

        Two calling conventions::

            engine.propagate_many(source, [s1, s2, ...])      # one document
            engine.propagate_many([(t1, s1), (t2, s2), ...])  # many documents

        Results equal N independent :meth:`propagate` calls (same scripts,
        same determinism, same order); consecutive updates against the
        same document additionally share one view extraction during
        validation, and repeated identical requests are served from the
        cross-request memo (*memo=False* opts out). The batch is served
        in order on the calling thread: propagation is pure Python, so a
        thread or process fan-out only adds handoff and pickling cost.
        A single hot document is usually better served through a
        :class:`~repro.session.DocumentSession`.
        """
        if updates is None:
            pairs = list(source)  # type: ignore[arg-type]
        else:
            pairs = [(source, update) for update in updates]
        if chooser is None:
            chooser = PreferenceChooser() if optimal else CheapestPathChooser()
        self._counters["propagations"] += len(pairs)
        chooser_key = self._chooser_key(chooser) if memo else None
        use_memo = chooser_key is not None and self._memo is not None
        results: list[EditScript] = []
        cached_source: Tree | None = None
        cached_view: Tree | None = None

        def view_of(doc: Tree) -> Tree:
            nonlocal cached_source, cached_view
            if doc is not cached_source:
                cached_source = doc
                cached_view = self._annotation.view(doc)
            assert cached_view is not None
            return cached_view

        for doc, update in pairs:
            if use_memo:
                results.append(
                    self._memo_propagate(
                        doc,
                        update,
                        chooser,
                        chooser_key,  # type: ignore[arg-type]
                        optimal,
                        validate,
                        (lambda d=doc: view_of(d)) if validate else None,
                    )
                )
                continue
            self._counters["memo_bypass"] += 1
            with _span("engine.propagate", memo="bypass"):
                if validate:
                    with _span("validate"):
                        self.validate(doc, update, source_view=view_of(doc))
                with _span("graphs"):
                    collection = self.propagation_graphs(
                        doc, update, validate=False
                    )
                with _span("script"):
                    results.append(
                        collection.build_script(
                            chooser, None, optimal_only=optimal
                        )
                    )
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
                ("visibility", self._visible),
            )
            if value is not None
        ]
        return (
            f"ViewEngine(|Σ|={len(self._dtd.alphabet)}, "
            f"compiled=[{', '.join(compiled) or 'nothing yet'}])"
        )
