"""Document sessions: serve a stream of view updates against one source.

A hot document — a catalog being edited all day, a patient record behind
a busy ward terminal — receives *sequential* view updates: each one is
built against the view of the document the previous propagation
produced. The free functions (and even a compiled
:class:`~repro.engine.ViewEngine`) treat every request as a stranger:
they re-extract the source view for validation, re-derive the
subtree-size table weighing every delete edge, and re-scan all node
identifiers to find a safe fresh-identifier range — all ``O(|t|)`` work
whose inputs barely changed since the previous request.

A :class:`DocumentSession` pins one source document and carries those
three caches forward across propagations:

* the **source view** — after a propagation of ``S`` the new view *is*
  ``Out(S)`` (that is exactly the side-effect-free criterion), so the
  session never extracts a view again after the first; a pinned or
  replayed source has its view extracted only when it is first read or
  propagated against, so replaying a log extracts one view, not one
  per record;
* the **subtree-size table** — advanced in one pass over the chosen
  propagation script (entries of deleted subtrees dropped, inserted ones
  added, ancestors re-summed) instead of a full postorder re-derivation;
* the **fresh-identifier map** — a running index of the numeric
  ``f``-suffixes in use, so the safe starting point for fresh node
  identifiers is known without re-scanning the document;
* a **word index** per wide children word
  (:class:`~repro.automata.wordindex.WordIndex`): min-plus over the
  source's, Boolean over the view's. Each is built the first time its
  node is affected and advanced at the edited positions, so an edit of
  one child among thousands is swept, walked, assembled and validated
  at its edited positions × log width, not across the whole word.

Results are byte-identical to serving each step with a cold transient
engine — the caches change where the inputs come from, never the
algorithm — which is what the property-based differential suite
(``tests/property/test_serving_equivalence.py``) pins down.

    engine = registry.get_or_compile(dtd, annotation)
    session = engine.session(source)
    for update in incoming:            # a stream, each against the
        script = session.propagate(update)   # current view
    session.source                     # the document after the stream
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from .core.choosers import CheapestPathChooser, PathChooser, PreferenceChooser
from .editing import EditScript, Op
from .editing.script import phantom_text
from .errors import ReproError, StaleSessionError
from .obs import span as _span
from .xmltree import NodeId, NodeIds, Tree
from .xmltree.nodeid import numeric_suffix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .automata.wordindex import WordIndex
    from .engine import ViewEngine

__all__ = ["DocumentSession", "SessionStats"]

_FRESH_PREFIX = "f"


class _FreshSuffixIndex:
    """The numeric ``<prefix><k>`` suffixes present in a changing id set.

    Supports ``add``/``discard`` of arbitrary identifiers (non-matching
    ones are ignored) and an amortised-O(log n) ``max()`` via a lazy
    max-heap, so a session knows the largest ``f``-suffix in its source
    without rescanning every node identifier per request — including
    after deletions, where a simple running counter would drift from
    what a cold rescan reports.
    """

    def __init__(self, prefix: str, ids: Iterable[NodeId] = ()) -> None:
        self._prefix = prefix
        self._counts: dict[int, int] = {}
        self._heap: list[int] = []
        for nid in ids:
            self.add(nid)

    def _suffix(self, nid: NodeId) -> "int | None":
        return numeric_suffix(nid, self._prefix)

    def add(self, nid: NodeId) -> None:
        suffix = self._suffix(nid)
        if suffix is None:
            return
        count = self._counts.get(suffix, 0)
        self._counts[suffix] = count + 1
        if count == 0:
            heapq.heappush(self._heap, -suffix)

    def discard(self, nid: NodeId) -> None:
        suffix = self._suffix(nid)
        if suffix is None or suffix not in self._counts:
            return
        remaining = self._counts[suffix] - 1
        if remaining:
            self._counts[suffix] = remaining
        else:
            del self._counts[suffix]

    def max(self) -> int:
        """Largest live suffix, ``-1`` when none (matches
        :func:`~repro.xmltree.nodeid.max_numeric_suffix`)."""
        while self._heap and -self._heap[0] not in self._counts:
            heapq.heappop(self._heap)
        return -self._heap[0] if self._heap else -1


@dataclass(frozen=True)
class SessionStats:
    """Counters over one session's lifetime."""

    updates_served: int
    """Propagations built (including non-advancing previews)."""

    total_cost: int
    """Summed cost of the served propagation scripts."""

    nodes_inserted: int
    """Source nodes added across all advanced propagations."""

    nodes_deleted: int
    """Source nodes removed across all advanced propagations."""

    size_entries_carried: int
    """Subtree-size entries reused unchanged across advances — work a
    per-request recomputation would have redone."""

    scripts_replayed: int
    """Already-translated source scripts applied via
    :meth:`DocumentSession.apply_source_script` — recovery replay and
    standby refresh traffic, as opposed to propagations served."""


def _insert_sizes(
    sizes: "dict[NodeId, int]",
    children: "dict[NodeId, tuple[NodeId, ...]]",
    root: NodeId,
) -> int:
    """Enter the subtree sizes of the inserted subtree at *root*; return its size."""
    stack: list[tuple[NodeId, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        kids = children.get(node, ())
        if expanded:
            sizes[node] = 1 + sum(sizes[kid] for kid in kids)
        else:
            stack.append((node, True))
            stack.extend((kid, False) for kid in kids)
    return sizes[root]


def _advance_indices(
    indices: "dict[NodeId, WordIndex]",
    script: EditScript,
    leaf: "Callable[[WordIndex, NodeId, str], object]",
) -> None:
    """Advance each index in *indices* along *script*, at its edited
    positions only: deleted children are removed, inserted ones added
    and renamed ones relabelled (``leaf(index, node, label)`` makes the
    new leaves). The index of a renamed or deleted node is dropped."""
    if not indices:
        return
    labels = script._labels
    parents = script._parents
    edited: "dict[NodeId, list[NodeId]]" = {}
    for node, label in labels.items():
        if label.op is Op.NOP:
            continue
        if node in indices:
            del indices[node]
        parent = parents.get(node)
        if parent in indices:
            edited.setdefault(parent, []).append(node)
    for parent, nodes in edited.items():
        index = indices.get(parent)
        if index is None:  # the parent is renamed or deleted itself
            continue
        kids = script._children[parent]
        # the old position of each edit (its script position less the
        # inserts before it), applied right to left
        moves = []
        inserted = 0
        for at in sorted(map(kids.index, nodes)):
            node = kids[at]
            label = labels[node]
            moves.append((at - inserted, label, node))
            if label.op is Op.INS:
                inserted += 1
        for at, label, node in reversed(moves):
            if label.op is Op.DEL:
                index.delete(at)
            elif label.op is Op.INS:
                index.insert(at, leaf(index, node, label.symbol))
            else:
                index.replace(at, leaf(index, node, label.output_symbol))


class DocumentSession:
    """One pinned source document served by a compiled engine.

    Parameters
    ----------
    engine:
        The compiled ``(D, A)`` engine; shared and immutable, so many
        sessions (one per hot document) can hang off one engine.
    source:
        The document to pin. Validated against the engine's DTD unless
        *validate_source* is false.

    A session is **not** thread-safe: it advances mutable per-document
    state. Serve one document stream per session; engines and registries
    are the layers meant for sharing.

    Its word indexes (module doc) reach the engine the way its size
    table does: :meth:`propagate` hands the source's to
    :meth:`ViewEngine.propagation_graphs` and the view's to
    :meth:`ViewEngine.validate`, which build a missing one over a wide
    word they are the first to touch. They advance only with
    :meth:`_advance`, after the journal accepted the record, so a
    preview, a failed verification or a journal that raises leaves them
    matching the unchanged document; :meth:`rebase` and
    :meth:`apply_source_script` drop them.
    """

    __slots__ = (
        "_engine",
        "_source",
        "_view",
        "_sizes",
        "_suffixes",
        "_served",
        "_total_cost",
        "_inserted",
        "_deleted",
        "_carried",
        "_replayed",
        "_journal",
        "_view_valid",
        "_indices",
        "_view_indices",
    )

    def __init__(
        self,
        engine: "ViewEngine",
        source: Tree,
        *,
        validate_source: bool = True,
        journal: "Callable[[EditScript, EditScript], None] | None" = None,
    ) -> None:
        self._engine = engine
        self._served = 0
        self._total_cost = 0
        self._inserted = 0
        self._deleted = 0
        self._carried = 0
        self._replayed = 0
        self._journal = journal
        self._pin(source, validate_source)

    def _pin(self, source: Tree, validate_source: bool) -> None:
        if validate_source:
            self._engine.dtd.assert_valid(source)
        self._source = source
        self._view: "Tree | None" = None  # extracted on first use
        # the view of a valid source satisfies the view DTD, so updates
        # can be validated edit-locally until the view's validity is no
        # longer known (see propagate)
        self._view_valid = validate_source
        self._sizes: dict[NodeId, int] = dict(source.subtree_sizes())
        self._suffixes = _FreshSuffixIndex(_FRESH_PREFIX, source.nodes())
        # per wide children word: built on first affected use, advanced
        # with the document (see _advance_indices)
        self._indices: "dict[NodeId, WordIndex]" = {}
        self._view_indices: "dict[NodeId, WordIndex]" = {}

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def engine(self) -> "ViewEngine":
        return self._engine

    @property
    def source(self) -> Tree:
        """The current source document."""
        return self._source

    @property
    def view(self) -> Tree:
        """``A(source)`` for the current source — cached, never stale:
        every advance replaces it with the update's output (which
        side-effect-freeness guarantees equals a fresh extraction), and
        a pinned or replayed source's view is extracted on first read.
        The same tree object is returned until the session moves."""
        if self._view is None:
            self._view = self._engine.annotation.view(self._source)
        return self._view

    @property
    def journal(self) -> "Callable[[EditScript, EditScript], None] | None":
        """Write-ahead hook: called as ``journal(update, script)`` after a
        propagation is built but *before* any cache advances.

        A durable layer (:class:`repro.store.DurableSession`) appends the
        translated source script to its log here; if the hook raises, the
        session does not advance, so in-memory state never runs ahead of
        what the journal recorded.
        """
        return self._journal

    @journal.setter
    def journal(
        self, hook: "Callable[[EditScript, EditScript], None] | None"
    ) -> None:
        self._journal = hook

    @property
    def fresh_suffix_max(self) -> int:
        """Largest numeric ``f``-suffix among the current source's node
        identifiers (``-1`` when none) — the session's running index, so
        reading it never rescans the document. The sharding router polls
        this per shard to maintain the document-global fresh floor."""
        return self._suffixes.max()

    @property
    def stats(self) -> SessionStats:
        return SessionStats(
            updates_served=self._served,
            total_cost=self._total_cost,
            nodes_inserted=self._inserted,
            nodes_deleted=self._deleted,
            size_entries_carried=self._carried,
            scripts_replayed=self._replayed,
        )

    def rebase(self, source: Tree, *, validate_source: bool = True) -> None:
        """Re-pin the session to *source*, rebuilding every cache.

        The explicit way to follow a document that changed outside the
        session (or to reuse a session object for another document);
        lifetime counters are kept.
        """
        self._pin(source, validate_source)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def propagate(
        self,
        update: EditScript,
        *,
        source: Tree | None = None,
        chooser: PathChooser | None = None,
        optimal: bool = True,
        validate: bool = True,
        advance: bool = True,
        verify: bool = False,
        fresh_floor: "int | None" = None,
    ) -> EditScript:
        """Serve one view update of the current view; advance the session.

        The script equals what a cold
        :meth:`~repro.engine.ViewEngine.propagate` against the current
        source would return, byte for byte — only where the view, size
        table, and fresh-identifier range come from changes.

        Parameters beyond the engine's: *source* asserts the caller and
        the session agree on the document (a mismatch raises
        :class:`~repro.errors.StaleSessionError` instead of serving from
        stale caches); *advance* moves the session to the propagated
        document (pass ``False`` to preview alternatives — e.g. different
        choosers — without committing); *verify* re-checks schema
        compliance and side-effect-freeness before advancing;
        *fresh_floor* raises the starting point of the fresh
        ``f``-numbering (it can never lower it below the collision-safe
        default) — the sharding router passes the document-global floor
        here so a shard-local propagation numbers its fresh nodes in the
        globally reserved range.

        Validation checks ``Out(update)`` against the view DTD only where
        it differs from the current view whenever that view is known to
        be valid: after pinning a validated source, and after every
        advancing propagation that validated. Otherwise (a source pinned
        with ``validate_source=False``, or after an unvalidated advance,
        :meth:`apply_source_script` or :meth:`advance_script`) the next
        update is validated in full.
        """
        if source is not None and source != self._source:
            raise StaleSessionError(
                "the given tree differs from the session's pinned source — "
                "rebase() the session (or open a new one) instead of "
                "serving from stale caches"
            )
        # the source's all-Nop text: the script's text is spliced into it,
        # and the next source inherits it (memoized: built once per pin)
        phantom_text(self._source)
        # drawn before validation reads Out(update), so the view's suffix
        # memo is computed before the next view inherits it
        fresh = self._fresh_ids(update, floor=fresh_floor)
        with _span("engine.propagate", kind="session"):
            if validate:
                with _span("validate") as sp:
                    steps = self._engine.validate(
                        self._source,
                        update,
                        source_view=self.view,
                        view_known_valid=self._view_valid,
                        _indices=self._view_indices,
                    )
                    sp.set(steps=steps)
            with _span("graphs") as sp:
                # the source indices need In(S) = A(t): validated above,
                # or a sparse parse against this view
                collection = self._engine.propagation_graphs(
                    self._source, update, validate=False,
                    subtree_sizes=self._sizes,
                    _indices=(
                        self._indices
                        if validate or (update.base is not None and update.base is self._view)
                        else None
                    ),
                )
                sp.set(cells=collection.cells, runs=collection.runs)
            if chooser is None:
                chooser = PreferenceChooser() if optimal else CheapestPathChooser()
            with _span("script"):
                script = collection.build_script(chooser, fresh, optimal_only=optimal)
            if verify and not self._engine.verify(self._source, update, script):
                raise ReproError(
                    "propagation failed verification; session not advanced"
                )
        if advance and self._journal is not None:
            self._journal(update, script)
        self._served += 1
        self._total_cost += script.cost
        # Sessions bypass the engine memo (incremental caches advance with
        # the document), but the compiled artifact is still worth sharing:
        # persist it so a restarted process skips compilation entirely.
        self._engine._persist_artifact()
        if advance:
            self._advance(update, script)
            self._view_valid = validate
        return script

    def serve(self, updates: Iterable[EditScript]) -> list[EditScript]:
        """Serve a whole stream of sequential updates; returns all scripts."""
        return [self.propagate(update) for update in updates]

    def _fresh_ids(
        self, update: EditScript, floor: "int | None" = None
    ) -> Callable[[], NodeId]:
        """Fresh identifiers, byte-compatible with the cold path.

        A cold :meth:`PropagationGraphs.build_script` continues the
        ``f``-numbering past both the source's and the update's largest
        suffix; the session knows the source side from its suffix index
        and reads the update side from the tree's memo
        (:meth:`Tree.max_suffix`). The first candidate exceeds every live
        suffix, hence no candidate can collide and the emitted sequence is
        identical.

        *floor* (when given) raises the starting point: a sharded
        document numbers fresh nodes from a document-global floor that
        is at least the shard-local safe start, so the produced sequence
        stays consecutive from the floor and collision-free.
        """
        start = 1 + max(self._suffixes.max(), update.max_suffix(_FRESH_PREFIX))
        if floor is not None and floor > start:
            start = floor
        return NodeIds(_FRESH_PREFIX, start).fresh

    # ------------------------------------------------------------------
    # Cache advancement
    # ------------------------------------------------------------------

    def _advance(self, update: EditScript, script: EditScript) -> None:
        """Move every cache to the propagated document.

        Only the script's edits are visited (see :meth:`_walk_caches`).
        The new view is ``Out(update)`` — the side-effect-free criterion
        ``A(Out(S′)) = Out(S)`` makes extraction unnecessary.
        """
        self._walk_caches(script)
        tables = self._engine.insert_moves
        sizes = self._sizes

        def source_leaf(index: "WordIndex", node: NodeId, symbol: str):
            hidden = tables(index.label).hidden
            return index.algebra.leaf(symbol, sizes[node] if symbol in hidden else None)

        _advance_indices(self._indices, script, source_leaf)
        _advance_indices(
            self._view_indices, update,
            lambda index, node, symbol: index.algebra.leaf(symbol),
        )
        self._source = script.output_tree
        self._view = update.output_tree

    def _walk_caches(self, script: EditScript) -> None:
        """Advance the size table and suffix index along a source script.

        Only the edits are visited, found in one pass over the label map
        of the script's region (the whole script's, for one without a
        base). Deleted nodes drop their size entries and identifier
        suffixes, inserted ones add theirs, and the kept ancestors of
        each inserted or deleted subtree add its size change. Every other
        entry is carried unchanged, and so is every kept node whose size
        nets to no change (both counted in
        :attr:`SessionStats.size_entries_carried`). Iterative throughout —
        a hot document deeper than the interpreter's recursion limit
        must not take the session down with it.
        """
        labels = script._labels
        children = script._children
        parents = script._parents
        sizes = self._sizes
        suffixes = self._suffixes
        deltas: dict[NodeId, int] = {}
        inserted = deleted = 0
        for node, label in labels.items():
            op = label.op
            if op is Op.DEL:
                deleted += 1
                suffixes.discard(node)
                delta = -sizes.pop(node)
            elif op is Op.INS:
                inserted += 1
                suffixes.add(node)
            else:
                continue
            parent = parents.get(node)
            if parent is None or labels[parent].op is op:
                continue  # not the top of its inserted or deleted subtree
            if op is Op.INS:
                delta = _insert_sizes(sizes, children, node)
            while parent is not None:
                deltas[parent] = deltas.get(parent, 0) + delta
                parent = parents.get(parent)
        changed = 0
        for node, delta in deltas.items():
            if delta:
                sizes[node] += delta
                changed += 1
        self._inserted += inserted
        self._deleted += deleted
        self._carried += script.size - inserted - deleted - changed

    def apply_source_script(self, script: EditScript) -> None:
        """Advance the session along an already-translated *source* script.

        The replay half of durability: recovery re-pins a session to a
        snapshot (:meth:`rebase`) and then applies the write-ahead log's
        source edit scripts — the outputs of earlier propagations — one
        by one, without re-running propagation. The script must apply to
        the pinned source exactly (``In(S′) = source``), otherwise the
        log and the snapshot disagree and :class:`StaleSessionError` is
        raised before any cache moves.

        Unlike :meth:`propagate`, no view update is available, so the
        view is re-extracted from the new source when it is next needed
        (the journal hook is *not* invoked — replay must never
        re-journal).
        """
        if script.input_tree != self._source:
            raise StaleSessionError(
                "source script does not apply to the session's pinned "
                "source — the log and the document state disagree"
            )
        self._walk_caches(script)
        self._source = script.output_tree
        self._view = None
        self._view_valid = False
        self._indices.clear()
        self._view_indices.clear()
        self._replayed += 1

    def advance_script(self, update: EditScript, script: EditScript) -> None:
        """Advance the session along an externally chosen propagation.

        The commit half of a two-phase serve: a caller previews a
        propagation (``propagate(..., advance=False)``), possibly
        post-processes the script — the sharding router renumbers a
        shard's fresh identifiers into their document-global slots —
        and then commits the final ``(update, script)`` pair here. The
        journal hook fires with the committed script (so a durable
        shard's write-ahead log records what replay must re-apply), the
        caches walk it, and the view becomes ``Out(update)`` exactly as
        a direct :meth:`propagate` would have left it.

        The script must still apply to the pinned source
        (``In(S′) = source``); otherwise :class:`StaleSessionError` is
        raised before any state moves.
        """
        if script.input_tree != self._source:
            raise StaleSessionError(
                "committed script does not apply to the session's pinned "
                "source — preview and commit disagree on the document"
            )
        if self._journal is not None:
            self._journal(update, script)
        self._advance(update, script)
        self._view_valid = False

    def __repr__(self) -> str:
        return (
            f"DocumentSession(|t|={self._source.size}, "
            f"served={self._served}, engine={self._engine!r})"
        )
