"""The propagation algorithm (paper Section 5) and its correctness checks.

The algorithm:

1. build the optimal propagation graphs for the source document and the
   view update (bottom-up over ``N_Δ``);
2. for every subtree inserted by the update, build the corresponding
   optimal inversion graphs;
3. choose exactly one propagation (inversion) path per graph — the
   preference function Φ, a :class:`~repro.core.choosers.PathChooser`;
4. recursively assemble the propagation script from the chosen paths.

With a polynomial Φ and an insertlet package ``W``, the whole run is
polynomial in ``|D| + |t| + |S| + |W|`` (Theorem 6).

Validation and verification helpers live here too:

* :func:`validate_view_update` — the Section 4 preconditions
  (``In(S) = A(t)``, no reuse of hidden identifiers, ``Out(S)`` in the
  view language);
* :func:`is_schema_compliant`, :func:`is_side_effect_free`,
  :func:`verify_propagation` — the two correctness criteria.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, MutableMapping, Sequence

from ..dtd import DTD, MinimalTreeFactory, TreeFactory, view_dtd
from ..editing import EditScript, EditLabel, Op
from ..editing.ops import uniform_label
from ..errors import DuplicateNodeError, InvalidViewUpdateError, NoPropagationError
from ..inversion import InversionGraphs, inversion_graphs
from ..views import Annotation
from ..xmltree import NodeId, NodeIds, Tree
from .choosers import PathChooser, PreferenceChooser
from .optimal import OptimalPropagationGraph
from ..automata.wordindex import MemberLeaves, WordIndex
from .propagation_graph import (
    INF,
    RUN,
    CostSweep,
    EdgeKind,
    InsertMoves,
    PropagationGraph,
    build_propagation_graph,
    classify_positions,
    classify_runs,
    label_moves,
)

__all__ = [
    "PropagationGraphs",
    "propagation_graphs",
    "propagate",
    "validate_view_update",
    "is_schema_compliant",
    "is_side_effect_free",
    "verify_propagation",
]

WIDE = 32
"""The narrowest children word a session indexes (see
:class:`~repro.automata.wordindex.WordIndex`)."""


def _indexed(width: int, states: int) -> bool:
    """Whether a word of *width* children over a content model of
    *states* states is indexed: an index's products cost up to states³
    per tree level and per edit, a cell-by-cell sweep ~states per child.
    Measured on one-edit streams, a 3-state model gains from ~32
    children, and a 5-state one with hidden children and (i)-moves
    breaks even from ~100 and gains from ~250."""
    return width >= WIDE and width >= states ** 3


def validate_view_update(
    dtd: DTD,
    annotation: Annotation,
    source: Tree,
    update: EditScript,
    *,
    derived_view_dtd: DTD | None = None,
    source_view: Tree | None = None,
    view_known_valid: bool = False,
    _indices: "dict[NodeId, WordIndex] | None" = None,
) -> int:
    """Raise :class:`InvalidViewUpdateError` unless *update* is a view update.

    The Section 4 definition: ``In(S) = A(t)`` (identifier-exact), the
    script must not reuse identifiers of nodes hidden by the view, and
    ``Out(S)`` must belong to the view language ``A(L(D))`` (checked via
    the derived view DTD).

    *derived_view_dtd* and *source_view* let callers that already hold
    ``view_dtd(dtd, annotation)`` or ``annotation.view(source)`` (a
    compiled engine, a batch loop) skip recomputing them.

    *view_known_valid* asserts that ``A(t)`` itself satisfies the view
    DTD (a session knows it of the view it validated last). ``Out(S)``
    is then checked only at the nodes whose label or children word
    differs from ``In(S)``: inserted and renamed nodes and the kept
    parents of inserted, deleted and renamed nodes. Every other node of
    ``Out(S)`` has the label and children of a node of ``In(S) = A(t)``,
    so the check raises exactly when the full one would.

    A sparse update over *view* itself (``update.base is view``, as
    :meth:`EditScript.parse` returns it given the view) has
    ``In(S) = A(t)`` by construction, and its only identifiers outside
    the view are its inserted nodes: the first two checks then read the
    region only.

    *_indices* is a session's Boolean
    :class:`~repro.automata.wordindex.WordIndex` per wide children word
    of the view (built here on first use). A changed kept node with one
    is checked by folding the index over the runs of children the
    update leaves untouched, stepping the automaton at its edited
    positions only; the outcome, and the error raised, are those of
    the whole word's check. Returns the automaton steps taken.
    """
    view = source_view if source_view is not None else annotation.view(source)
    if update.base is view:
        source_ids = source._labels
        reused = [
            node for node, label in update._labels.items()
            if label.op is Op.INS and node in source_ids
        ]
    else:
        if update.input_tree != view:
            raise InvalidViewUpdateError(
                "In(S) differs from the view A(t) — the update was not built "
                "against this source's view"
            )
        reused = update.node_set & (source.node_set - view.node_set)
    if reused:
        raise hidden_reuse_error(reused, validate=True)
    vdtd = derived_view_dtd if derived_view_dtd is not None else view_dtd(dtd, annotation)
    edits = _edits(update)
    if update.is_empty or update.op(update.root) is Op.DEL:  # Out(S) is empty
        accepted, steps = False, 0
    elif view_known_valid:
        accepted, steps = _check_changed(
            vdtd, view, update, _changed_nodes(update, edits), edits, _indices
        )
    else:
        output = update.output_tree
        accepted, steps = vdtd.validates(output), output.size - 1
    if not accepted:
        raise InvalidViewUpdateError(
            "Out(S) is not in the view language A(L(D))"
        )
    _validate_renames(dtd, annotation, update, edits)
    return steps


def _check_changed(
    vdtd: DTD,
    view: Tree,
    update: EditScript,
    checked: "set[NodeId]",
    edits: "list[NodeId]",
    indices: "dict[NodeId, WordIndex] | None",
) -> "tuple[bool, int]":
    """Whether the children word of every *checked* node of ``Out(S)``
    is accepted, and the automaton steps that took: by a fold over the
    view's index where the node is kept with a wide word, else by
    running the automaton over the whole word. Both read the update,
    not ``Out(S)``, which is not built here."""
    labels = update._labels
    whole: "list[NodeId]" = []
    steps = 0
    by_parent: "dict[NodeId, list[NodeId]] | None" = None
    for node in checked:
        kids = view._children.get(node) if labels[node].op is Op.NOP else None
        index = None
        if indices is not None and kids is not None:
            index = indices.get(node)
            if index is None:
                label = view._labels[node]
                model = vdtd.automaton(label)
                if _indexed(len(kids), len(model.states)):
                    algebra = MemberLeaves(model)
                    view_labels = view._labels
                    index = indices[node] = WordIndex(
                        [algebra.leaf(view_labels[kid]) for kid in kids], algebra, label
                    )
        if index is None:
            whole.append(node)
            continue
        if by_parent is None:
            by_parent = {}
            parents = update._parents
            for edit in edits:
                by_parent.setdefault(parents.get(edit), []).append(edit)
        accepted, taken = _fold_word(index, update, node, by_parent.get(node, ()))
        steps += taken
        if not accepted:
            return False, steps
    words = _OutputWords(update)
    return vdtd.validates(words, nodes=whole), steps + words.steps


class _OutputWords:
    """The labels and children words of ``Out(S)``'s region nodes, read
    from the update: what :meth:`DTD.validates` asks of a tree, without
    building ``Out(S)``. Counts the symbols it hands out."""

    is_empty = False

    def __init__(self, update: EditScript) -> None:
        self._update = update
        self.steps = 0

    def label(self, node: NodeId) -> str:
        return self._update._labels[node].output_symbol

    def child_labels(self, node: NodeId) -> "tuple[str, ...]":
        update = self._update
        labels = update._labels
        base = update._base
        word = []
        for kid in update.children(node):
            label = labels.get(kid)
            if label is None:  # an implicit Nop of the base
                word.append(base._labels[kid])
            elif label.op is not Op.DEL:
                word.append(label.output_symbol)
        self.steps += len(word)
        return tuple(word)


def _fold_word(
    index: WordIndex, update: EditScript, node: NodeId, edited: "Sequence[NodeId]"
) -> "tuple[bool, int]":
    """Membership of ``Out(S)``'s children word at a kept *node*: the
    view's word (*index*) with the *edited* (non-``Nop``) children
    applied, folded run by run."""
    algebra = index.algebra
    children = update.children(node)
    labels = update._labels
    states = algebra.initial
    at = inserted = steps = 0  # the next untouched view child; inserts so far
    for u in sorted(map(children.index, edited)):
        label = labels[children[u]]
        v = u - inserted
        states = algebra.fold(index.cover(at, v), states)
        if label.op is Op.INS:
            inserted += 1
            at = v
        else:
            at = v + 1
            if label.op is Op.DEL:
                continue
        states = algebra.fold([algebra.leaf(label.output_symbol).value], states)
        steps += 1
    states = algebra.fold(index.cover(at, len(index)), states)
    return bool(states & algebra.finals), steps


def hidden_reuse_error(
    reused: "Iterable[NodeId]", *, validate: bool
) -> "InvalidViewUpdateError | DuplicateNodeError":
    """The error a propagation raises for an update that reuses the
    identifiers *reused* of nodes the view hides: validation names them,
    and without validation the script's fragments collide."""
    if validate:
        return InvalidViewUpdateError(
            f"update reuses identifiers hidden by the view: {sorted(map(repr, reused))[:5]}"
        )
    return DuplicateNodeError(
        "propagation fragments share node identifiers — the update "
        "reuses identifiers it must not (was validation skipped?)"
    )


def _edits(update: EditScript) -> "list[NodeId]":
    """The update's non-``Nop`` nodes: one pass over its region's label
    map, in the map's (not document) order."""
    return [
        node for node, label in update._labels.items() if label.op is not Op.NOP
    ]


def _changed_nodes(update: EditScript, edits: "list[NodeId]") -> "set[NodeId]":
    """The nodes of ``Out(S)`` whose label or children word differs from
    ``In(S)``: non-deleted *edits* and the kept parents of all *edits*."""
    labels = update._labels
    parents = update._parents
    changed: set[NodeId] = set()
    for node in edits:
        if labels[node].op is not Op.DEL:
            changed.add(node)
        parent = parents.get(node)
        if parent is not None and labels[parent].is_kept:
            changed.add(parent)
    return changed


def _validate_renames(
    dtd: DTD, annotation: Annotation, update: EditScript, edits: "list[NodeId]"
) -> None:
    """The renaming extension's precondition (Section 7 extension).

    A rename ``y → y′`` must not change the visibility of any child
    label (``A(y, c) = A(y′, c)`` for all ``c``): otherwise keeping a
    hidden child would silently expose it in the view (or a visible one
    would vanish), and no side-effect-free propagation could exist.

    Only the renamed nodes among *edits* are visited. When several fail,
    the first in document order is reported.
    """
    labels = update._labels
    failures = {}
    for node in edits:
        if labels[node].op is Op.REN:
            error = _rename_error(dtd, annotation, node, labels[node])
            if error is not None:
                failures[node] = error
    if failures:
        # the failures are region nodes, whose ancestors are too: a
        # preorder walk of the region meets them in document order
        children = update._children
        stack = [update.root]
        while stack:
            node = stack.pop()
            if node in failures:
                raise failures[node]
            stack.extend(
                kid for kid in reversed(children.get(node, ())) if kid in labels
            )


def _rename_error(
    dtd: DTD, annotation: Annotation, node: NodeId, label: EditLabel
) -> "InvalidViewUpdateError | None":
    old, new = label.symbol, label.output_symbol
    if new not in dtd.alphabet:
        return InvalidViewUpdateError(
            f"rename target {new!r} of node {node!r} is not in the alphabet"
        )
    mismatch = [
        child
        for child in dtd.sorted_alphabet
        if annotation.visible(old, child) != annotation.visible(new, child)
    ]
    if mismatch:
        return InvalidViewUpdateError(
            f"renaming {old!r} to {new!r} changes the visibility of child "
            f"label(s) {mismatch}: such renames would expose or hide "
            "content and cannot be side-effect free"
        )
    return None


class PropagationGraphs:
    """The collection ``G(D,A,t,S) = (G_n)_{n ∈ N_Δ}`` plus the inversion
    collections of all visibly inserted subtrees.

    ``costs[n]`` is the cheapest propagation-path cost of ``G_n``;
    ``costs[root]`` is the cost of an optimal propagation. Optimal
    subgraphs are cached via :meth:`optimal`.

    **Pristine nodes.** A kept node whose entire update subtree is
    phantom (every operation ``Nop``) is *pristine*: its graph has a
    0-cost path threading exactly the existing source children (the
    source is schema-compliant, so the automaton accepts its child
    word), every Ins/Del edge costs at least 1, and therefore **every**
    0-cost path — and with it the whole optimal subgraph — consumes all
    children in order with Nops. Its cheapest cost is 0 and the script
    it contributes is ``Nop(t|node)`` no matter which path a chooser
    picks. ``costs`` answers 0 for every pristine node, and
    :meth:`build_script` splices pristine source subtrees directly.

    **Affected nodes.** The kept nodes above an edit (found from the
    edits' parent chains without walking the rest of the update) are
    *affected*. For each, bottom-up, the collection classifies the child
    positions once and runs a :class:`~repro.core.propagation_graph.CostSweep`:
    the distance to a target from every vertex of ``G_n``, computed
    without building a vertex or an edge object. Its value at the
    source vertex is the node's cost.

    **Indexed words.** Given a session's min-plus
    :class:`~repro.automata.wordindex.WordIndex` per wide children word
    of the source, an affected node's positions are classified, swept
    and walked at its edited positions only
    (:func:`~repro.core.propagation_graph.classify_runs`), each run of
    untouched children crossed with O(log width) products; :attr:`cells`
    and :attr:`runs` count the cells swept and the runs crossed.

    **Materialized graphs.** ``G_n`` itself is built only on demand, for
    affected and pristine nodes alike, identical to an eager build:
    through :meth:`__getitem__`, :meth:`optimal`, :attr:`total_size`,
    and by :meth:`build_script` for any chooser other than a
    :class:`~repro.core.choosers.PreferenceChooser` walking the optimal
    graphs. Iteration, :attr:`pristine` and :attr:`total_size` cover
    every kept node and walk the whole update on first use; ``len()``
    does not.
    """

    def __init__(
        self,
        dtd: DTD,
        annotation: Annotation,
        source: Tree,
        update: EditScript,
        factory: TreeFactory,
        insertions: Mapping[NodeId, InversionGraphs],
        *,
        affected: "frozenset[NodeId]",
        kept_count: int,
        subtree_sizes: "Mapping[NodeId, int]",
        insert_costs: "Mapping[NodeId, int]",
        hidden_table: "Mapping[str, Sequence[str]] | None" = None,
        insert_moves: "Callable[[str], Mapping] | None" = None,
        indices: "dict[NodeId, WordIndex] | None" = None,
        edited: "Mapping[NodeId, set[NodeId]] | None" = None,
    ) -> None:
        self.dtd = dtd
        self.annotation = annotation
        self.source = source
        self.update = update
        self.factory = factory
        self.insertions = dict(insertions)
        self.costs = _KeptCosts(self)
        self._graphs: dict[NodeId, PropagationGraph] = {}
        self._sweeps: dict[NodeId, CostSweep] = {}
        self._tables: "dict[str, InsertMoves]" = {}
        self._affected = affected
        self._kept_count = kept_count
        self._order: "list[NodeId] | None" = None
        self._pristine: "frozenset[NodeId] | None" = None
        self._subtree_sizes = subtree_sizes
        self._insert_costs = insert_costs
        self._hidden_table = hidden_table
        self._insert_moves = insert_moves
        self._indices = indices
        self._edited = edited
        self._optimal: dict[NodeId, OptimalPropagationGraph] = {}
        self.cells = 0
        self.runs = 0

    def _is_pristine(self, node: NodeId) -> bool:
        """A phantom node outside the affected region (class doc)."""
        if node in self._affected:
            return False
        update = self.update
        label = update._labels.get(node)
        if label is None:  # implicit in a sparse update: Nop
            return update._base is not None and node in update._base._labels
        return label.op is Op.NOP

    @property
    def pristine(self) -> "frozenset[NodeId]":
        """Kept nodes whose update subtree is entirely phantom."""
        if self._pristine is None:
            self._pristine = frozenset(
                node for node in self if node not in self._affected
            )
        return self._pristine

    def _effective_label(self, node: NodeId) -> "str | None":
        label = self.update.edit_label(node)
        return label.output_symbol if label.op is Op.REN else None

    def _table(self, label: str) -> InsertMoves:
        """The compiled move table of *label*: the engine's when it handed
        one in, else compiled here once per label."""
        if self._insert_moves is not None:
            return self._insert_moves(label)
        table = self._tables.get(label)
        if table is None:
            table = self._tables[label] = label_moves(
                self.dtd, self.annotation, label, self.factory, self._hidden_table
            )
        return table

    def _build(self, node: NodeId) -> PropagationGraph:
        """Build ``G_node`` from the costs of its kept children."""
        effective = self._effective_label(node)
        graph = build_propagation_graph(
            self.dtd,
            self.annotation,
            self.source,
            self.update,
            node,
            factory=self.factory,
            subtree_sizes=self._subtree_sizes,
            child_costs=self.costs,
            insert_costs=self._insert_costs,
            effective_label=effective,
            hidden_table=self._hidden_table,
            insert_moves=self._table(
                effective if effective is not None else self.source.label(node)
            ),
        )
        self._graphs[node] = graph
        return graph

    def _sweep_affected(self, postorder: "Sequence[NodeId]") -> None:
        """Sweep the affected nodes bottom-up, recording cheapest costs."""
        costs = self.costs._built
        for node in postorder:
            effective = self._effective_label(node)
            table = self._table(
                effective if effective is not None else self.source.label(node)
            )
            positions = None
            if self._indices is not None and effective is None and node in self._edited:
                index = self._index(node, table)
                if index is not None:
                    positions = classify_runs(
                        self.annotation,
                        self.source,
                        self.update,
                        node,
                        subtree_sizes=self._subtree_sizes,
                        child_costs=self.costs,
                        insert_costs=self._insert_costs,
                        edited=self._edited[node],
                        table=table,
                        index=index,
                    )
            if positions is None:
                positions = classify_positions(
                    self.dtd,
                    self.annotation,
                    self.source,
                    self.update,
                    node,
                    subtree_sizes=self._subtree_sizes,
                    child_costs=self.costs,
                    insert_costs=self._insert_costs,
                    effective_label=effective,
                )
            sweep = CostSweep(positions, table)
            self.cells += sweep.cells
            self.runs += sweep.runs
            if sweep.cost is INF:
                raise NoPropagationError(
                    f"no propagation path in G_{node!r} (label {positions.label!r}); "
                    "Theorem 5 guarantees one for valid view updates — was "
                    "validation skipped on an invalid update?"
                )
            self._sweeps[node] = sweep
            costs[node] = sweep.cost

    def _index(self, node: NodeId, table: InsertMoves) -> "WordIndex | None":
        """The session's index over *node*'s source children, built now
        if the word is wide and has none yet."""
        index = self._indices.get(node)
        if index is None:
            children = self.source.children(node)
            if not _indexed(len(children), len(table.states)):
                return None
            leaves = table.leaves()
            labels = self.source._labels
            sizes = self._subtree_sizes
            hidden = table.hidden
            index = self._indices[node] = WordIndex(
                [
                    leaves.leaf(y, sizes[child] if y in hidden else None)
                    for child, y in zip(children, map(labels.__getitem__, children))
                ],
                leaves,
                self.source._labels[node],
            )
        return index

    def __getitem__(self, node: NodeId) -> PropagationGraph:
        graph = self._graphs.get(node)
        if graph is None:
            # built on demand, for affected and pristine nodes alike
            if node not in self._affected and not self._is_pristine(node):
                raise KeyError(node)
            graph = self._build(node)
        return graph

    def __iter__(self) -> Iterator[NodeId]:
        if self._order is None:
            labels = self.update.tree._labels
            self._order = [
                node for node in self.update.tree.postorder() if labels[node].is_kept
            ]
        return iter(self._order)

    def __len__(self) -> int:
        return self._kept_count

    def optimal(self, node: NodeId) -> OptimalPropagationGraph:
        """``G*_node`` — cached cheapest-path-induced subgraph."""
        if node not in self._optimal:
            self._optimal[node] = OptimalPropagationGraph(self[node])
        return self._optimal[node]

    def min_cost(self) -> int:
        """Cost of an optimal propagation (``Pmin`` cost)."""
        return self.costs[self.update.root]

    @property
    def total_size(self) -> int:
        """Total vertex+edge count over all graphs (for scaling studies;
        materializes every lazily skipped graph so the number matches an
        eager build)."""
        return sum(self[n].n_vertices + self[n].n_edges for n in self)

    # ------------------------------------------------------------------
    # Script construction (steps 3-4 of the algorithm)
    # ------------------------------------------------------------------

    def build_script(
        self,
        chooser: PathChooser,
        fresh: "Callable[[], NodeId] | None" = None,
        *,
        optimal_only: bool = True,
    ) -> EditScript:
        """Assemble a propagation from one chosen path per (used) graph.

        The batched applier: one traversal over the chosen paths
        accumulates the script's edited region directly. The result is a
        sparse script over the source (see :mod:`repro.editing.script`):
        a pristine node, and a hidden child kept by an (iii)-edge, is an
        implicit ``Nop`` subtree referred to by its identifier, never
        copied; deleted subtrees and inserted fragments are spliced in
        without an intermediate script per level. Iterative (an explicit
        stack of open nodes, each resuming its path where a child's
        subtree interrupted it), so graphs are chosen and fresh
        identifiers drawn in the same preorder as a recursive assembly,
        and the script expands to the same tree, every fresh identifier
        included.

        A :class:`~repro.core.choosers.PreferenceChooser` (any operation
        order) on the optimal graphs builds no graph: each affected
        node's path is the walk of its cost sweep
        (:meth:`~repro.core.propagation_graph.CostSweep.walk`), which
        keeps at every vertex exactly the edges of ``G*_n`` and takes the
        one the chooser prefers — the path :func:`~repro.graphutil.greedy_path`
        takes in ``G*_n``. Every other chooser, and ``optimal_only=False``,
        reads the graphs, materialized on demand.
        """
        if fresh is None:
            # byte-compatible with NodeIds.avoiding(source + update, "f"):
            # candidates exceed every live f-suffix, so none can collide —
            # and both maxima are memoized on the (immutable) trees.
            start = 1 + max(self.source.max_suffix("f"), self.update.max_suffix("f"))
            fresh = NodeIds("f", start).fresh

        source_labels = self.source._labels
        source_children = self.source._children
        update = self.update
        labels: "dict[NodeId, EditLabel]" = {}
        children: "dict[NodeId, tuple[NodeId, ...]]" = {}
        parents: "dict[NodeId, NodeId]" = {}
        inserted: "list[NodeId]" = []
        emitted = 0

        def emit_fragment(tree: Tree) -> NodeId:
            """Splice a whole freshly built tree in as inserted."""
            nonlocal emitted
            for nid, symbol in tree._labels.items():
                labels[nid] = uniform_label(Op.INS, symbol)
            children.update(tree._children)
            parents.update(tree._parents)
            inserted.extend(tree._labels)
            emitted += len(tree._labels)
            return tree.root

        def emit_deleted(node: NodeId) -> NodeId:
            """Splice ``t|node`` in as deleted, no intermediate tree."""
            nonlocal emitted
            stack = [node]
            while stack:
                current = stack.pop()
                labels[current] = uniform_label(Op.DEL, source_labels[current])
                emitted += 1
                kids = source_children.get(current)
                if kids:
                    children[current] = kids
                    for kid in kids:
                        parents[kid] = current
                    stack.extend(kids)
            return node

        # the optimal subgraph of a pristine node admits exactly one
        # script — keep everything — so no chooser can emit anything but
        # the phantom source subtree (class doc); a child a (vi)-edge
        # keeps is pristine unless affected, a (vii)-edge's never is
        affected = self._affected
        walk = optimal_only and type(chooser) is PreferenceChooser
        if walk:
            rank = chooser._rank
            nop_first = rank[Op.NOP] < rank[Op.DEL] and rank[Op.NOP] < rank[Op.INS]

        def open_node(node: NodeId) -> list:
            if walk:
                path = self._sweeps[node].walk(chooser.preference, nop_first)
            else:
                graph = self.optimal(node) if optimal_only else self[node]
                path = [
                    (edge.kind, edge.symbol, edge.t_child, edge.s_child)
                    for edge in chooser.choose(graph)
                ]
            # the node, its path, its kids, and those of them in the region
            return [node, iter(path), [], []]

        root = update.root
        if optimal_only and self._is_pristine(root):
            labels[root] = uniform_label(Op.NOP, source_labels[root])
            emitted += 1
            if root in source_children:
                children[root] = source_children[root]
        else:
            frames = [open_node(root)]
            while frames:
                node, path, kids, region = frames[-1]
                for kind, symbol, t_child, s_child in path:
                    if kind is RUN:  # untouched: a slice of the source's kids
                        kids.extend(source_children[node][t_child:s_child])
                    elif kind is EdgeKind.INVISIBLE_INSERT:
                        kid = emit_fragment(self.factory.build(symbol, fresh))
                        kids.append(kid)
                        region.append(kid)
                    elif kind in (EdgeKind.INVISIBLE_DELETE, EdgeKind.VISIBLE_DELETE):
                        kids.append(emit_deleted(t_child))
                        region.append(t_child)
                    elif kind is EdgeKind.INVISIBLE_NOP:
                        kids.append(t_child)  # implicit: the source subtree
                    elif kind is EdgeKind.VISIBLE_INSERT:
                        inversion = self.insertions[s_child]
                        kid = emit_fragment(inversion.build_tree(
                            lambda g: chooser.choose(g),
                            fresh,
                            optimal_only=optimal_only,
                        ))
                        kids.append(kid)
                        region.append(kid)
                    elif optimal_only and t_child not in affected:  # pristine
                        kids.append(t_child)
                    else:  # VISIBLE_NOP / VISIBLE_RENAME: descend
                        frames.append(open_node(t_child))
                        break
                else:
                    frames.pop()
                    # the node's own operation comes from the update (Nop or Ren)
                    labels[node] = update.edit_label(node)
                    emitted += 1
                    if kids:
                        children[node] = tuple(kids)
                        for kid in region:
                            parents[kid] = node
                    if frames:
                        frames[-1][2].append(node)
                        frames[-1][3].append(node)
        # every source node is in the script, so an inserted identifier
        # the source has repeats one, as does any emitted twice
        if len(labels) != emitted or any(nid in source_labels for nid in inserted):
            raise hidden_reuse_error((), validate=False)
        return EditScript._sparse(self.source, root, labels, children, parents)

    def __repr__(self) -> str:
        # deliberately cheap: total_size would materialize every
        # pristine-skipped graph, defeating the fast path for a repr
        return (
            f"PropagationGraphs(|N_Δ|={len(self)}, "
            f"built={len(self._graphs)}, swept={len(self._sweeps)}, "
            f"pristine={len(self) - len(self._affected)}, "
            f"min_cost={self.min_cost()})"
        )


class _KeptCosts(Mapping):
    """A collection's ``costs``: the cheapest cost of every kept node —
    stored for each built graph, 0 for every pristine one."""

    __slots__ = ("_built", "_collection")

    def __init__(self, collection: PropagationGraphs) -> None:
        self._built: dict[NodeId, int] = {}
        self._collection = collection

    def __getitem__(self, node: NodeId) -> int:
        cost = self._built.get(node)
        if cost is None:
            if not self._collection._is_pristine(node):
                raise KeyError(node)
            return 0
        return cost

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._collection)

    def __len__(self) -> int:
        return len(self._collection)


def propagation_graphs(
    dtd: DTD,
    annotation: Annotation,
    source: Tree,
    update: EditScript,
    factory: TreeFactory | None = None,
    *,
    validate: bool = True,
    derived_view_dtd: DTD | None = None,
    hidden_table: "Mapping[str, Sequence[str]] | None" = None,
    subtree_sizes: "Mapping[NodeId, int] | None" = None,
    insert_moves: "Callable[[str], Mapping] | None" = None,
    inversion_cache: "MutableMapping[str, InversionGraphs] | None" = None,
    _indices: "dict[NodeId, WordIndex] | None" = None,
) -> PropagationGraphs:
    """Build ``G(D, A, t, S)`` with the paper's edge weights.

    One bottom-up pass over the affected phantom nodes of ``N_Δ`` (see
    :class:`PropagationGraphs` for why the pristine rest is skipped)
    computes each one's cost with a
    :class:`~repro.core.propagation_graph.CostSweep` over its child
    positions × automaton states; no graph is built until one is asked
    for. Inversion-graph collections are built for every visibly
    inserted subtree on the way (their minimal sizes weigh the
    (iv)-edges). Polynomial in ``|D|``, ``|t|``, ``|S|``; apart from one
    pass over the update's label map, the work is proportional to the
    edited region and the children lists of the nodes above it, or,
    where *_indices* holds an index over a node's children word, to
    its edited positions × log width.

    *_indices* is a session's min-plus
    :class:`~repro.automata.wordindex.WordIndex` per wide children word
    of *source*, keyed by node (missing ones are built on first use).
    The caller guarantees ``In(S) = A(t)``: *update* was validated, or
    parsed against the view.

    *derived_view_dtd*, *hidden_table*, and *insert_moves* accept a
    compiled engine's artifacts (see :class:`repro.engine.ViewEngine`)
    and *subtree_sizes* a per-source table maintained by a serving layer
    (see :class:`repro.session.DocumentSession`) so neither schema-level
    nor document-level work is redone per request; all are derived on
    the fly when absent. *inversion_cache* is a (bounded) mutable
    mapping from fragment content keys to inversion collections — an
    engine hands in its cross-request cache so an identical inserted
    fragment (a repeated update, a common template) reuses the graphs
    built for it last time.
    """
    if factory is None:
        factory = MinimalTreeFactory(dtd)
    if validate:
        validate_view_update(
            dtd, annotation, source, update, derived_view_dtd=derived_view_dtd
        )
    if subtree_sizes is None:
        subtree_sizes = source.subtree_sizes()

    # The affected region: every kept node with an edit below (or at)
    # it. The top of each edited region climbs its parent chain — all
    # kept, since only kept nodes have children of another operation —
    # until it meets a node already marked.
    labels = update._labels
    parents = update._parents
    children = update._children
    affected: set[NodeId] = set()
    not_kept = 0
    # with indices: per kept node with a wide word, the children an edit
    # touches
    edited: "dict[NodeId, set[NodeId]] | None" = {} if _indices is not None else None
    for node in _edits(update):
        label = labels[node]
        if label.op is Op.REN:
            current = node
        else:
            not_kept += 1
            current = parents.get(node)
            if current is None or not labels[current].is_kept:
                continue  # the root, or inside an inserted or deleted subtree
        parent = parents.get(node)
        if edited is not None and len(children.get(parent, ())) >= WIDE:
            edited.setdefault(parent, set()).add(node)
        while current is not None and current not in affected:
            affected.add(current)
            parent = parents.get(current)
            if edited is not None and len(children.get(parent, ())) >= WIDE:
                edited.setdefault(parent, set()).add(current)
            current = parent

    # the affected nodes in preorder (for the inversion collections, in
    # the order a full preorder meets them) and in postorder (children's
    # costs before their parents' graphs)
    preorder: list[NodeId] = []
    postorder: list[NodeId] = []
    stack: list[tuple[NodeId, bool]] = []
    if update._root in affected:
        stack.append((update._root, False))
    while stack:
        node, expanded = stack.pop()
        if expanded:
            postorder.append(node)
            continue
        preorder.append(node)
        stack.append((node, True))
        for kid in reversed(children.get(node, ())):
            if kid in affected:
                stack.append((kid, False))

    # visibly inserted children of kept nodes: inversion collections
    insertions: dict[NodeId, InversionGraphs] = {}
    insert_costs: dict[NodeId, int] = {}
    for node in preorder:
        kids = children.get(node, ())
        if edited is not None and node in edited:  # the edited ones, in order
            kids = sorted(edited[node], key=kids.index)
        for child in kids:
            label = labels.get(child)  # None: an implicit Nop child
            if label is not None and label.op is Op.INS:
                fragment = update.subscript(child).output_tree
                collection = None
                fragment_key: "str | None" = None
                if inversion_cache is not None:
                    fragment_key = fragment.content_key()
                    collection = inversion_cache.get(fragment_key)
                if collection is None:
                    collection = inversion_graphs(
                        dtd,
                        annotation,
                        fragment,
                        factory,
                        hidden_table=hidden_table,
                        insert_moves=insert_moves,
                    )
                    if fragment_key is not None:
                        inversion_cache[fragment_key] = collection
                insertions[child] = collection
                insert_costs[child] = collection.min_inversion_size()

    graphs = PropagationGraphs(
        dtd,
        annotation,
        source,
        update,
        factory,
        insertions,
        affected=frozenset(affected),
        kept_count=update.size - not_kept,
        subtree_sizes=subtree_sizes,
        insert_costs=insert_costs,
        hidden_table=hidden_table,
        insert_moves=insert_moves,
        indices=_indices,
        edited=edited,
    )
    graphs._sweep_affected(postorder)
    return graphs


def propagate(
    dtd: DTD,
    annotation: Annotation,
    source: Tree,
    update: EditScript,
    *,
    factory: TreeFactory | None = None,
    chooser: PathChooser | None = None,
    fresh: "Callable[[], NodeId] | None" = None,
    optimal: bool = True,
    validate: bool = True,
) -> EditScript:
    """Compute one schema-compliant, side-effect-free propagation of *update*.

    Parameters
    ----------
    factory:
        Tree supplier for invisible insertions — an
        :class:`~repro.dtd.InsertletPackage` or the default minimal-tree
        factory.
    chooser:
        The preference function Φ. Defaults to Nop-over-Del-over-Ins on
        the optimal graphs (the paper's Figure 10 choice); pass a
        :class:`~repro.core.choosers.CheapestPathChooser` together with
        ``optimal=False`` to pick paths on the full graphs.
    optimal:
        Restrict path choice to the optimal subgraphs — the result is
        then a member of ``Pmin`` (Theorem 4).
    validate:
        Verify the update is a valid view update first.

    Returns the propagation ``S′`` with ``In(S′) = t``.

    Served by the process-wide default
    :class:`~repro.registry.EngineRegistry`: repeat calls with the same
    ``(dtd, annotation)`` (and a hashable factory) reuse one compiled
    :class:`~repro.engine.ViewEngine` instead of recompiling the schema
    artifacts per call. Compile or register an engine yourself for
    explicit lifecycle control; results are byte-identical either way.
    """
    from ..registry import default_registry

    engine = default_registry().get_or_compile(dtd, annotation, factory=factory)
    return engine.propagate(
        source,
        update,
        chooser=chooser,
        fresh=fresh,
        optimal=optimal,
        validate=validate,
    )


# ---------------------------------------------------------------------------
# Correctness criteria
# ---------------------------------------------------------------------------


def is_schema_compliant(dtd: DTD, propagation: EditScript) -> bool:
    """``Out(S′) ∈ L(D)``."""
    return dtd.validates(propagation.output_tree)


def is_side_effect_free(
    annotation: Annotation, update: EditScript, propagation: EditScript
) -> bool:
    """``A(Out(S′)) = Out(S)`` — identifier-exact."""
    return annotation.view(propagation.output_tree) == update.output_tree


def verify_propagation(
    dtd: DTD,
    annotation: Annotation,
    source: Tree,
    update: EditScript,
    propagation: EditScript,
) -> bool:
    """All three conditions: ``In(S′) = t``, schema compliance, no side effects."""
    return (
        propagation.input_tree == source
        and is_schema_compliant(dtd, propagation)
        and is_side_effect_free(annotation, update, propagation)
    )
