"""Propagation graphs ``G(D, A, t, S)`` (paper Section 4).

For every phantom node ``n ∈ N_Δ`` of the view update ``S`` the
collection holds a graph ``G_n``. Fixing ``n`` with label ``x``, content
model ``D(x) = (Σ,Q,q0,δ,F)``, source children ``m₁…m_k`` (in ``t``) and
script children ``m′₁…m′_ℓ`` (in ``S``):

* the *common nodes* ``N_C`` are ``{c₀} ∪ ({m₁…m_k} ∩ {m′₁…m′_ℓ})`` —
  the visible children (kept or deleted), present in both sequences in
  the same order;
* both sequences split into *segments* between consecutive common
  nodes: the non-common part of a ``t``-segment is hidden by ``A``, the
  non-common part of an ``S``-segment is inserted by ``S``;
* vertices are ``⋃_{m ∈ N_C} seg_t(m) × Q × seg_S(m)`` — the graph
  shuffles each hidden run against the corresponding inserted run;
* the six edge kinds (paper numbering, ``y`` ranges over Σ):

  ========  ==========================  =======================================
  kind      label / movement            condition & weight
  ========  ==========================  =======================================
  (i)       ``Ins(y)``  (·,q,·)→(·,q′,·)    ``A(x,y)=0``, ``q→y q′``; w = tree weight of y
  (ii)      ``Del(y)``  (i-1,q,j)→(i,q,j)   ``A(x,y)=0``, ``λ_t(mᵢ)=y``; w = |t|mᵢ|
  (iii)     ``Nop(y)``  (i-1,q,j)→(i,q′,j)  ``A(x,y)=0``, ``λ_t(mᵢ)=y``, ``q→y q′``; w = 0
  (iv)      ``Ins(y)``  (i,q,j-1)→(i,q′,j)  ``A(x,y)=1``, ``λ_S(m′ⱼ)=Ins(y)``, ``q→y q′``; w = min inversion size of ``Out(S|m′ⱼ)``
  (v)       ``Del(y)``  (i-1,q,j-1)→(i,q,j) ``A(x,y)=1``, ``λ_t(mᵢ)=y``, ``λ_S(m′ⱼ)=Del(y)``; w = |t|mᵢ|
  (vi)      ``Nop(y)``  (i-1,q,j-1)→(i,q′,j) ``A(x,y)=1``, ``λ_t(mᵢ)=y``, ``λ_S(m′ⱼ)=Nop(y)``, ``q→y q′``; w = cheapest path of ``G_{mᵢ}``
  ========  ==========================  =======================================

A *propagation path* runs from ``(c₀,q0,c₀)`` to ``(m_k,q,m′_ℓ)`` with
``q ∈ F``. Positions are 0-based integers here (0 = ``c₀``).

A node's cost and the default chooser's path need no graph:
:func:`classify_positions` classifies the child positions once,
:class:`CostSweep` computes every vertex's distance to a target from
that classification and the label's :class:`InsertMoves` table, and
:meth:`CostSweep.walk` follows the optimal edges.
:func:`build_propagation_graph` builds ``G_n`` from the same
classification when a graph is asked for.

Given a :class:`~repro.automata.wordindex.WordIndex` over the node's
source children (a session keeps one per wide children word),
:func:`classify_runs` classifies only the edited positions: each
maximal run of untouched children between them is one ``RUN`` move,
which the sweep crosses with the index's O(log width) products and the
walk crosses in one step while its ``Nop`` diagonal stays optimal.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ..automata import State
from ..automata.wordindex import CostLeaves, WordIndex
from ..dtd import DTD, TreeFactory
from ..editing import EditScript, Op
from ..errors import ReproError, ScriptError
from ..graphutil import CycleError
from ..views import Annotation
from ..xmltree import NodeId, Tree

__all__ = [
    "EdgeKind",
    "PVertex",
    "PEdge",
    "PropagationGraph",
    "PropagationPath",
    "InsertMoves",
    "compile_insert_moves",
    "label_moves",
    "Positions",
    "classify_positions",
    "classify_runs",
    "CostSweep",
    "RUN",
]

class InsertMoves(dict):
    """Per automaton state, the (i)-edge moves under one parent label:
    ``(hidden symbol, successor state, insertion weight)`` triples in the
    canonical (symbol-major, successor-minor) order the graph builders emit
    edges in.

    The same label's content model, indexed for :class:`CostSweep`, rides
    along: a state's index is its position in :attr:`states` (the sorted
    order); :attr:`finals` holds one flag per index and :attr:`inserts`,
    per state index, the moves above with the successor as an index.
    :meth:`moves` indexes one symbol's transitions on first use, so a
    wide content model costs only the symbols its documents use.
    :attr:`hidden` holds the symbols hidden under the label, and
    :meth:`leaves` the min-plus leaves of its children words.
    """

    __slots__ = (
        "states", "initial", "finals", "inserts", "hidden",
        "_model", "_index", "_moves", "_leaves",
    )

    def moves(self, symbol: str) -> "tuple[tuple[tuple[int, ...], ...], tuple]":
        """``(row, pairs)`` for *symbol*: ``row[q]`` holds the successor
        indices of state index ``q`` (sorted order), ``pairs`` every
        ``(q, successor)`` index pair."""
        found = self._moves.get(symbol)
        if found is None:
            index = self._index
            row = tuple(
                tuple(index[target] for target in self._model.sorted_successors(state, symbol))
                for state in self.states
            )
            pairs = tuple((q, q2) for q, targets in enumerate(row) for q2 in targets)
            found = self._moves[symbol] = (row, pairs)
        return found

    def leaves(self) -> CostLeaves:
        """The label's :class:`~repro.automata.wordindex.CostLeaves`,
        built on first use: one leaf per (child label, hidden size)."""
        if self._leaves is None:
            self._leaves = CostLeaves(
                len(self.states),
                [[(q2, w) for _, q2, w in moves] for moves in self.inserts],
                lambda symbol: self.moves(symbol)[0],
            )
        return self._leaves


def compile_insert_moves(
    model, hidden_symbols: "Sequence[str]", factory: TreeFactory
) -> InsertMoves:
    """Precompute the invisible-insert moves of one content model.

    Both propagation graphs ((i)-edges) and inversion graphs ((i)-edges
    of Section 3) enumerate, at *every* vertex, the hidden symbols a
    parent label admits together with the automaton successors and the
    factory weight. None of that depends on the document or the update —
    only on ``(D, A, W)`` — so a compiled engine builds this table once
    per label and every graph construction just reads it.
    """
    states = model.sorted_states()
    table = InsertMoves(
        (
            state,
            tuple(
                (symbol, successor, factory.weight(symbol))
                for symbol in hidden_symbols
                for successor in model.sorted_successors(state, symbol)
            ),
        )
        for state in states
    )
    index = {state: position for position, state in enumerate(states)}
    table.states = states
    table.initial = index[model.initial]
    table.finals = tuple(state in model.finals for state in states)
    table.inserts = tuple(
        tuple((symbol, index[target], weight) for symbol, target, weight in table[state])
        for state in states
    )
    table.hidden = frozenset(hidden_symbols)
    table._model = model
    table._index = index
    table._moves = {}
    table._leaves = None
    return table


def label_moves(
    dtd: DTD,
    annotation: Annotation,
    label: str,
    factory: TreeFactory,
    hidden_table: "Mapping[str, Sequence[str]] | None" = None,
) -> InsertMoves:
    """:func:`compile_insert_moves` for *label*, its hidden symbols read
    from *hidden_table* (a compiled engine's) or from the annotation."""
    model = dtd.automaton(label)
    if hidden_table is not None:
        hidden = hidden_table[label]
    else:
        hidden = [y for y in dtd.sorted_alphabet if annotation.hides(label, y)]
    return compile_insert_moves(model, hidden, factory)


class EdgeKind(enum.Enum):
    """The six edge kinds of the paper, (i)–(vi), plus (vii): the visible
    rename of the Section 7 extension (a kept node whose label changes)."""

    INVISIBLE_INSERT = "i"
    INVISIBLE_DELETE = "ii"
    INVISIBLE_NOP = "iii"
    VISIBLE_INSERT = "iv"
    VISIBLE_DELETE = "v"
    VISIBLE_NOP = "vi"
    VISIBLE_RENAME = "vii"

    @property
    def op(self) -> Op:
        if self in (EdgeKind.INVISIBLE_INSERT, EdgeKind.VISIBLE_INSERT):
            return Op.INS
        if self in (EdgeKind.INVISIBLE_DELETE, EdgeKind.VISIBLE_DELETE):
            return Op.DEL
        if self is EdgeKind.VISIBLE_RENAME:
            return Op.REN
        return Op.NOP

    @property
    def recurses(self) -> bool:
        """Whether traversal descends into the child's own graph."""
        return self in (EdgeKind.VISIBLE_NOP, EdgeKind.VISIBLE_RENAME)

    @property
    def is_visible(self) -> bool:
        return self in (
            EdgeKind.VISIBLE_INSERT,
            EdgeKind.VISIBLE_DELETE,
            EdgeKind.VISIBLE_NOP,
            EdgeKind.VISIBLE_RENAME,
        )


class PVertex(NamedTuple):
    """A vertex ``(m_i, q, m′_j)`` of a propagation graph (positions 0-based).

    A named tuple rather than a frozen dataclass: graph search hashes
    vertices on every dict and set lookup, and the tuple hash runs in C.
    Both hash the same ``(i, state, j)`` triple, so set orders (and with
    them every chooser's tie-breaks) are those of the dataclass.
    """

    i: int
    state: State
    j: int

    def __repr__(self) -> str:
        left = "c0" if self.i == 0 else f"m{self.i}"
        right = "c0" if self.j == 0 else f"m'{self.j}"
        return f"({left},{self.state},{right})"


@dataclass(frozen=True)
class PEdge:
    """An edge of a propagation graph.

    ``t_child`` is the source child consumed by (ii)/(iii)/(v)/(vi)
    edges; ``s_child`` is the script child consumed by (iv)/(v)/(vi)
    edges (for (v)/(vi) the two coincide).
    """

    source: PVertex
    target: PVertex
    kind: EdgeKind
    symbol: str
    weight: int
    t_child: NodeId | None = None
    s_child: NodeId | None = None

    def display(self) -> str:
        return f"{self.kind.op.value}({self.symbol})"

    def __repr__(self) -> str:
        return f"{self.source!r}-{self.display()}[{self.kind.value}]->{self.target!r}"


PropagationPath = tuple[PEdge, ...]


class PropagationGraph:
    """``G_n`` for one phantom node of the update.

    Not built directly — see
    :func:`repro.core.propagate.propagation_graphs`.
    """

    def __init__(
        self,
        node: NodeId,
        label: str,
        t_children: tuple[NodeId, ...],
        s_children: tuple[NodeId, ...],
        source: PVertex,
        targets: frozenset[PVertex],
        adjacency: dict[PVertex, tuple[PEdge, ...]],
        seg_t: tuple[int, ...],
        seg_s: tuple[int, ...],
    ) -> None:
        self.node = node
        self.label = label
        self.t_children = t_children
        self.s_children = s_children
        self.source = source
        self.targets = targets
        self._adjacency = adjacency
        self.seg_t = seg_t  # segment index per t-position 0..k
        self.seg_s = seg_s  # segment index per S-position 0..ℓ

    # -- structural interface ----------------------------------------------

    def edges_from(self, vertex: PVertex) -> tuple[PEdge, ...]:
        return self._adjacency.get(vertex, ())

    def all_edges(self) -> Iterator[PEdge]:
        for edges in self._adjacency.values():
            yield from edges

    def vertices(self) -> Iterator[PVertex]:
        seen: set[PVertex] = set()
        for vertex, edges in self._adjacency.items():
            if vertex not in seen:
                seen.add(vertex)
                yield vertex
            for edge in edges:
                if edge.target not in seen:
                    seen.add(edge.target)
                    yield edge.target
        for vertex in (self.source, *self.targets):
            if vertex not in seen:
                seen.add(vertex)
                yield vertex

    @property
    def n_vertices(self) -> int:
        return sum(1 for _ in self.vertices())

    @property
    def n_edges(self) -> int:
        return sum(1 for _ in self.all_edges())

    def is_target(self, vertex: PVertex) -> bool:
        return vertex in self.targets

    def to_dot(self) -> str:
        """GraphViz rendering mirroring the paper's Figures 8 and 10."""
        lines = [f'digraph "G_{self.node}" {{', "  rankdir=LR;"]
        order = {v: i for i, v in enumerate(sorted(self.vertices(), key=repr))}
        for vertex, idx in order.items():
            shape = "doublecircle" if vertex in self.targets else "circle"
            extra = ' style="bold"' if vertex == self.source else ""
            lines.append(f'  v{idx} [shape={shape},label="{vertex!r}"{extra}];')
        for edge in sorted(self.all_edges(), key=repr):
            lines.append(
                f'  v{order[edge.source]} -> v{order[edge.target]} '
                f'[label="{edge.display()} /{edge.weight}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"PropagationGraph(node={self.node!r}, label={self.label!r}, "
            f"|V|={self.n_vertices}, |E|={self.n_edges})"
        )


def _segment_indices(
    children: tuple[NodeId, ...], common: frozenset[NodeId]
) -> tuple[int, ...]:
    """``seg[p]`` = segment index of position ``p`` (0 = ``c₀``).

    A common node starts a new segment; position ``p ≥ 1`` refers to the
    ``p``-th child. ``seg[p]`` equals the number of common nodes among
    the first ``p`` children.
    """
    seg = [0]
    count = 0
    for child in children:
        if child in common:
            count += 1
        seg.append(count)
    return tuple(seg)


RUN = "run"
"""The kind of a classified move, and of a walk step, that crosses a run
of untouched children through the node's :class:`WordIndex`."""


class Crossing(NamedTuple):
    """What crossing a run of untouched children reads: the node's
    source-children index, the source's label map, the symbols hidden
    under the node's label, and the subtree sizes (a hidden child
    deleted in place costs its size)."""

    index: WordIndex
    labels: "Mapping[NodeId, str]"
    hidden: "frozenset[str]"
    sizes: "Mapping[NodeId, int]"


class Positions(NamedTuple):
    """The child positions of one kept node, classified once for both
    :func:`build_propagation_graph` and :class:`CostSweep`.

    ``order`` lists the source positions the sweep computes, descending;
    ``cells[i]`` holds, for each, the script positions ``j`` of its
    vertices ``(i, q, j)`` (those with ``seg_t[i] == seg_s[j]``: one
    segment's script positions, a contiguous range). ``consume[i]`` is
    the move over the source child ``m_{i+1}`` (``None`` at ``i = k`` or
    when no edge consumes it): ``(kind, child, symbol, weight, sync_j)``
    with *kind* ``INVISIBLE_NOP`` for a hidden child (the (ii) edge
    deletes it at *weight*, the (iii) edges keep it at 0) and a visible
    kind for a visible one, whose edges leave only script position
    *sync_j*. ``inserts[j]`` is the (iv) move over the inserted script
    child ``m′_{j+1}``, ``(child, symbol, weight)``, where there is one.

    :func:`classify_positions` lists every position: ``order`` is
    ``k … 0``, and ``seg_t``/``seg_s`` hold the segment indices.
    :func:`classify_runs` lists the edited positions and the bounds of
    the runs between them: ``consume[a]`` at a run's first position is
    ``(RUN, b, None, None, sync_j)``, the untouched children
    ``m_{a+1} … m_b`` crossed through ``crossing`` from script position
    *sync_j* to the first of ``cells[b]``; its ``seg_t``/``seg_s`` are
    ``None``.
    """

    label: str
    t_children: "tuple[NodeId, ...]"
    s_children: "tuple[NodeId, ...]"
    seg_t: "tuple[int, ...] | None"
    seg_s: "tuple[int, ...] | None"
    order: "Sequence[int]"
    cells: "Sequence[range] | dict[int, range]"
    consume: "list | dict"
    inserts: dict
    crossing: "Crossing | None" = None


def _visible_move(edit, t_child, y, s_pos, subtree_sizes, child_costs):
    """The move over a visible source child the script holds at *s_pos*
    with label *edit* (``None``: an implicit ``Nop``)."""
    s_op = Op.NOP if edit is None else edit.op
    if s_op is Op.NOP:
        return (EdgeKind.VISIBLE_NOP, t_child, y, child_costs[t_child], s_pos)
    if s_op is Op.DEL:
        return (EdgeKind.VISIBLE_DELETE, t_child, y, subtree_sizes[t_child], s_pos)
    if s_op is Op.REN:
        # the kept child's new label drives the automaton; cost 1 for the
        # rename plus its own graph's cheapest path
        return (
            EdgeKind.VISIBLE_RENAME, t_child, edit.output_symbol,
            1 + child_costs[t_child], s_pos,
        )
    return None


def _insert_move(annotation, label, s_child, edit, insert_costs):
    """The (iv) move over an inserted script child, if it is visible
    (every child of an update node is explicit in its label map or an
    implicit ``Nop`` of its base)."""
    y = edit.symbol
    if annotation.visible(label, y):
        return (s_child, y, insert_costs[s_child])
    return None


def classify_positions(
    dtd: DTD,
    annotation: Annotation,
    source_tree: Tree,
    update: EditScript,
    node: NodeId,
    *,
    subtree_sizes: Mapping[NodeId, int],
    child_costs: Mapping[NodeId, int],
    insert_costs: Mapping[NodeId, int],
    effective_label: str | None = None,
) -> Positions:
    """Classify every child position of a kept node (see
    :class:`Positions` and :func:`build_propagation_graph` for the
    parameters)."""
    label = effective_label if effective_label is not None else source_tree.label(node)
    dtd.automaton(label)  # an unknown label fails here, as the builder always has
    t_children = source_tree.children(node)
    s_children = update.children(node)

    common = frozenset(t_children) & frozenset(s_children)
    t_common = [child for child in t_children if child in common]
    s_common = [child for child in s_children if child in common]
    if t_common != s_common:
        raise ScriptError(
            f"visible children of {node!r} appear in different orders in the "
            "source and the update — not a view update"
        )
    seg_t = _segment_indices(t_children, common)
    seg_s = _segment_indices(s_children, common)

    runs: list[range] = []
    lo = 0
    for j in range(1, len(s_children) + 1):
        if seg_s[j] != seg_s[j - 1]:
            runs.append(range(lo, j))
            lo = j
    runs.append(range(lo, len(s_children) + 1))

    # the (iv) move consuming an inserted child, if it stays inside the
    # segment
    edits = update._labels
    inserts: dict = {}
    for j, s_child in enumerate(s_children):
        edit = edits.get(s_child)
        if edit is not None and edit.op is Op.INS and seg_s[j + 1] == seg_s[j]:
            move = _insert_move(annotation, label, s_child, edit, insert_costs)
            if move is not None:
                inserts[j] = move

    source_labels = source_tree._labels
    hidden_under: "dict[str, bool]" = {}
    s_index = {child: j for j, child in enumerate(s_children)}
    consume: list = []
    for i, t_child in enumerate(t_children):
        move = None
        y = source_labels[t_child]
        hidden = hidden_under.get(y)
        if hidden is None:
            hidden = hidden_under[y] = annotation.hides(label, y)
        if hidden:
            if seg_t[i + 1] == seg_t[i]:
                move = (EdgeKind.INVISIBLE_NOP, t_child, y, subtree_sizes[t_child], -1)
        else:
            # visible t-child: must synchronise with the script child at
            # the same node, within this segment
            s_pos = s_index.get(t_child, -1)
            if s_pos >= 0 and seg_t[i + 1] == seg_s[s_pos + 1]:
                edit = edits.get(t_child)
                if edit is None or edit.op is Op.NOP:
                    move = (EdgeKind.VISIBLE_NOP, t_child, y, child_costs[t_child], s_pos)
                else:
                    move = _visible_move(edit, t_child, y, s_pos, subtree_sizes, child_costs)
        consume.append(move)
    consume.append(None)  # i = k consumes nothing
    return Positions(
        label, t_children, s_children, seg_t, seg_s,
        range(len(t_children), -1, -1), [runs[segment] for segment in seg_t],
        consume, inserts,
    )


def classify_runs(
    annotation: Annotation,
    source_tree: Tree,
    update: EditScript,
    node: NodeId,
    *,
    subtree_sizes: Mapping[NodeId, int],
    child_costs: Mapping[NodeId, int],
    insert_costs: Mapping[NodeId, int],
    edited: "Iterable[NodeId]",
    table: InsertMoves,
    index: WordIndex,
) -> "Positions | None":
    """Classify the edited child positions of a kept node whose source
    children *index* holds, the runs of untouched children between them
    crossed through it (see :class:`Positions`).

    The caller guarantees ``In(S) = A(t)``: the update was validated, or
    parsed against this view. The script's children other than the
    inserted ones are then the node's visible source children, in order.
    *edited* holds the script children an edit touches: the non-``Nop``
    ones and the affected kept ones. Their script positions come from
    ``tuple.index``, and the source positions of the visible children
    that bound them too; every other child is untouched. Returns
    ``None`` for an update that inserts an identifier the source has,
    which only the whole classification reports as the cold path does.
    """
    label = index.label
    t_children = source_tree.children(node)
    s_children = update.children(node)
    k, ell = len(t_children), len(s_children)
    edits = update._labels
    source_labels = source_tree._labels
    hidden = table.hidden
    marks = sorted(map(s_children.index, edited))
    inserted = set()
    for u in marks:
        child = s_children[u]
        if edits[child].op is Op.INS:
            if child in source_labels:
                return None
            inserted.add(u)
    kept = set(marks).difference(inserted)
    anchors = set(kept)
    for u in inserted:
        if u > 0 and u - 1 not in inserted:
            anchors.add(u - 1)
        if u + 1 < ell and u + 1 not in inserted:
            anchors.add(u + 1)
    # the visible children bounding the edits: (script, source) positions
    bounds = [(-1, -1)]
    at = 0
    for u in sorted(anchors):
        at = t_children.index(s_children[u], at)
        bounds.append((u, at))
        at += 1
    bounds.append((ell, k))

    order: "list[int]" = []
    cells: "dict[int, range]" = {}
    consume: dict = {}
    inserts: dict = {}
    start = sync = -1  # the open run of untouched children, if start >= 0

    def close(stop: int) -> None:
        nonlocal start
        consume[start] = (RUN, stop, None, None, sync)
        order.append(start)
        start = -1

    for (u1, t1), (u2, t2) in zip(bounds, bounds[1:]):
        if u2 > u1 + 1 and u1 + 1 in inserted:
            # a segment with inserted children: its hidden children are
            # shuffled against them, cell by cell
            span = range(u1 + 1, u2 + 1)
            if start >= 0:
                close(t1 + 1)
            for i in range(t1 + 1, t2):
                child = t_children[i]
                y = source_labels[child]
                consume[i] = (
                    (EdgeKind.INVISIBLE_NOP, child, y, subtree_sizes[child], -1)
                    if y in hidden else None
                )
                cells[i] = span
                order.append(i)
            for j in range(u1 + 1, u2):
                child = s_children[j]
                move = _insert_move(annotation, label, child, edits[child], insert_costs)
                if move is not None:
                    inserts[j] = move
            cells[t2] = span
        else:
            if t2 > t1 + 1 and start < 0:
                start, sync = t1 + 1, u1 + 1
                cells[start] = range(sync, sync + 1)
            cells[t2] = range(u2, u2 + 1)
        if t2 == k:
            if start >= 0:
                close(k)
            consume[k] = None
            order.append(k)
        elif u2 in kept:
            if start >= 0:
                close(t2)
            child = t_children[t2]
            consume[t2] = _visible_move(
                edits.get(child), child, source_labels[child], u2, subtree_sizes, child_costs
            )
            order.append(t2)
        elif start < 0:
            start, sync = t2, u2
    order.reverse()
    return Positions(
        label, t_children, s_children, None, None, order, cells, consume, inserts,
        Crossing(index, source_labels, hidden, subtree_sizes),
    )


def build_propagation_graph(
    dtd: DTD,
    annotation: Annotation,
    source_tree: Tree,
    update: EditScript,
    node: NodeId,
    *,
    factory: TreeFactory,
    subtree_sizes: Mapping[NodeId, int],
    child_costs: Mapping[NodeId, int],
    insert_costs: Mapping[NodeId, int],
    effective_label: str | None = None,
    hidden_table: "Mapping[str, Sequence[str]] | None" = None,
    insert_moves: "InsertMoves | None" = None,
) -> PropagationGraph:
    """Construct ``G_node`` for a kept (phantom or renamed) update node.

    ``child_costs`` must hold the cheapest propagation cost of every
    kept child (the (vi)/(vii)-edge weights) and ``insert_costs`` the
    minimal inversion size of every visibly inserted child (the
    (iv)-edge weights) — both are produced bottom-up by the collection
    builder in :mod:`repro.core.propagate`.

    ``hidden_table`` optionally supplies the sorted hidden symbols per
    parent label (a compiled engine's table), saving the ``O(|Σ|)``
    annotation scan per node; ``insert_moves`` the label's precompiled
    (i)-edge move table (see :func:`compile_insert_moves`), saving the
    hidden-symbol × successor enumeration at every vertex.

    For a renamed node, *effective_label* is its new label: the content
    model and child visibility are those of the *output* tree (the
    rename precondition guarantees the visibility profile matches the
    input side, so the source children classify identically).

    The graph is always built from the whole classification
    (:func:`classify_positions`), position by position.
    """
    positions = classify_positions(
        dtd,
        annotation,
        source_tree,
        update,
        node,
        subtree_sizes=subtree_sizes,
        child_costs=child_costs,
        insert_costs=insert_costs,
        effective_label=effective_label,
    )
    label, t_children, s_children, seg_t, seg_s = positions[:5]
    cells, consume, inserts = positions.cells, positions.consume, positions.inserts
    model = dtd.automaton(label)
    k, ell = len(t_children), len(s_children)
    states = model.sorted_states()
    if insert_moves is None:
        insert_moves = label_moves(dtd, annotation, label, factory, hidden_table)
    successors = model.sorted_successors

    adjacency: dict[PVertex, list[PEdge]] = {}

    def add(edge: PEdge) -> None:
        adjacency.setdefault(edge.source, []).append(edge)

    # visiting only the run of script positions of each i's segment
    # yields exactly the vertices (and edges, in the same order) of a
    # scan over the whole grid
    for i in range(k + 1):
        move = consume[i]
        if move is not None:
            kind, t_child, y, weight, sync_j = move
        for j in cells[i]:
            inserted = inserts.get(j)
            for state in states:
                vertex = PVertex(i, state, j)

                # (i) invisible insert: invent a hidden subtree, stay put
                for symbol, q2, w in insert_moves[state]:
                    add(PEdge(
                        vertex, PVertex(i, q2, j),
                        EdgeKind.INVISIBLE_INSERT, symbol, w,
                    ))

                # edges consuming the next t-child m_{i+1}
                if move is None:
                    pass
                elif kind is EdgeKind.INVISIBLE_NOP:
                    # (ii) invisible delete: drop the hidden subtree
                    add(PEdge(
                        vertex, PVertex(i + 1, state, j),
                        EdgeKind.INVISIBLE_DELETE, y, weight, t_child=t_child,
                    ))
                    # (iii) invisible nop: keep the hidden subtree
                    for q2 in successors(state, y):
                        add(PEdge(
                            vertex, PVertex(i + 1, q2, j),
                            EdgeKind.INVISIBLE_NOP, y, 0, t_child=t_child,
                        ))
                elif j == sync_j:
                    if kind is EdgeKind.VISIBLE_DELETE:
                        # (v) visible delete
                        add(PEdge(
                            vertex, PVertex(i + 1, state, j + 1),
                            kind, y, weight, t_child=t_child, s_child=t_child,
                        ))
                    else:
                        # (vi) visible nop / (vii) visible rename: recurse
                        for q2 in successors(state, y):
                            add(PEdge(
                                vertex, PVertex(i + 1, q2, j + 1),
                                kind, y, weight, t_child=t_child, s_child=t_child,
                            ))

                # (iv) visible insert: consume an inserted script child
                if inserted is not None:
                    s_child, y2, w = inserted
                    for q2 in successors(state, y2):
                        add(PEdge(
                            vertex, PVertex(i, q2, j + 1),
                            EdgeKind.VISIBLE_INSERT, y2, w, s_child=s_child,
                        ))

    source = PVertex(0, model.initial, 0)
    targets = frozenset(PVertex(k, state, ell) for state in model.finals)
    return PropagationGraph(
        node,
        label,
        t_children,
        s_children,
        source,
        targets,
        {vertex: tuple(edges) for vertex, edges in adjacency.items()},
        seg_t,
        seg_s,
    )


INF = math.inf
"""The distance of a vertex that reaches no target; never added to."""

Step = tuple[EdgeKind, str, "NodeId | None", "NodeId | None"]
"""One edge of a walk: ``(kind, symbol, t_child, s_child)``; a run of
untouched children crossed in one step is ``(RUN, None, a, b)``, the
source children ``m_{a+1} … m_b`` kept as they are."""


class CostSweep:
    """The distance to a target from every vertex of ``G_n``, without
    building the graph.

    Every edge leaving the vertices of a cell ``(i, j)`` stays in the
    cell ((i)-moves) or enters ``(i+1, j)``, ``(i+1, j+1)`` or
    ``(i, j+1)``, so one backward sweep over the cells, relaxing the
    (i)-moves of each cell to a fixpoint, is a min-plus shortest-path
    computation over the whole graph. ``rows[i][j - cells[i].start]``
    holds one distance per state index (:class:`InsertMoves`); a vertex
    that reaches no target holds :data:`INF`. :attr:`cost` is the
    cheapest propagation cost, ``INF`` if there is none.

    Positions from :func:`classify_runs` are swept at their edited
    positions only: a run ``[a, b)`` of untouched children takes
    ``d_a = P[a:b] ⊗ d_b``, the product of the O(log width) index
    subtrees covering it (each leaf already closes over the (i)-moves),
    so the work is the edited positions × log width. :attr:`cells`
    counts the cells computed and :attr:`runs` the runs crossed.
    """

    __slots__ = ("positions", "table", "rows", "cost", "cells", "runs")

    def __init__(self, positions: Positions, table: InsertMoves) -> None:
        self.positions = positions
        self.table = table
        cells, consume, inserts = positions.cells, positions.consume, positions.inserts
        k, ell = len(positions.t_children), len(positions.s_children)
        nq = len(table.states)
        states = range(nq)
        relax = table.inserts if any(table.inserts) else None
        rows: "list | dict" = [None] * (k + 1) if positions.crossing is None else {}
        computed = crossed = 0
        for i in positions.order:
            run = cells[i]
            lo = run.start
            row: list = [None] * len(run)
            computed += len(run)
            move = consume[i]
            if move is not None:
                kind, stop, y, weight, sync_j = move
                if kind is RUN:
                    crossed += 1
                    end = rows[stop][0]
                else:
                    pairs = table.moves(y)[1]
                    below = rows[i + 1]
                    below_lo = cells[i + 1].start
            for j in reversed(run):
                if move is not None and kind is RUN and j == sync_j:
                    # the run's leaves close over the (i)-moves already,
                    # and no insert leaves its first cell
                    row[j - lo] = CostLeaves.apply(
                        positions.crossing.index.cover(i, stop), end
                    )
                    continue
                if i == k and j == ell:
                    vec = [0 if final else INF for final in table.finals]
                else:
                    vec = [INF] * nq
                if move is None or kind is RUN:
                    pass
                elif kind is EdgeKind.INVISIBLE_NOP:
                    # (ii) delete the hidden child, (iii) keep it at 0
                    nxt = below[j - below_lo]
                    for q in states:
                        d = nxt[q]
                        if d is not INF and d + weight < vec[q]:
                            vec[q] = d + weight
                    for q, q2 in pairs:
                        if nxt[q2] < vec[q]:
                            vec[q] = nxt[q2]
                elif j == sync_j:
                    nxt = below[j + 1 - below_lo]
                    if kind is EdgeKind.VISIBLE_DELETE:
                        for q in states:
                            d = nxt[q]
                            if d is not INF and d + weight < vec[q]:
                                vec[q] = d + weight
                    else:
                        for q, q2 in pairs:
                            d = nxt[q2]
                            if d is not INF and d + weight < vec[q]:
                                vec[q] = d + weight
                inserted = inserts.get(j)
                if inserted is not None:
                    _, y2, w = inserted
                    nxt = row[j + 1 - lo]
                    for q, q2 in table.moves(y2)[1]:
                        d = nxt[q2]
                        if d is not INF and d + w < vec[q]:
                            vec[q] = d + w
                if relax is not None:
                    # (i) moves stay in the cell: relax them to a fixpoint
                    changed = True
                    while changed:
                        changed = False
                        for q in states:
                            best = vec[q]
                            for _, q2, w in relax[q]:
                                d = vec[q2]
                                if d is not INF and d + w < best:
                                    best = d + w
                            if best < vec[q]:
                                vec[q] = best
                                changed = True
                row[j - lo] = vec
            rows[i] = row
        self.rows = rows
        self.cells = computed
        self.runs = crossed
        self.cost = rows[0][0][table.initial]

    def walk(self, preference, nop_first: bool = False) -> "list[Step]":
        """The path a greedy walk of ``G*_n`` under *preference* takes.

        At each vertex the candidates are the edges on a cheapest path:
        running cost + weight + the target's distance equals
        :attr:`cost` (on a cheapest walk the running cost is the
        vertex's distance from the source), exactly the vertex's edges
        in the optimal subgraph. One candidate is taken as is; among
        several, the edge objects are built and the minimum under
        *preference* taken, as :func:`repro.graphutil.greedy_path` does.

        A run of untouched children is walked child by child, its
        distances swept from its end vector, unless *nop_first* says
        the preference ranks ``Nop`` above ``Del`` and ``Ins`` and the
        automaton reads every symbol of the run deterministically. Then
        distances along the run's 0-weight ``Nop`` diagonal never
        decrease, so where the diagonal's end has the distance its start
        has, ``Nop`` is optimal, and preferred, at every cell of it: the
        walk takes the whole run as one ``RUN`` step. Elsewhere it
        bisects through the index to the last cell the diagonal stays
        optimal at, and steps on from there child by child.
        """
        positions = self.positions
        cells, consume, inserts = positions.cells, positions.consume, positions.inserts
        table, rows, best = self.table, self.rows, self.cost
        k, ell = len(positions.t_children), len(positions.s_children)
        finals = table.finals
        path: list = []
        i, q, j = 0, table.initial, 0
        running = 0
        cell_seen: "set[int] | None" = None
        run: "_Run | None" = None
        while not (i == k and j == ell and finals[q]):
            if run is not None and i == run.stop:
                run = None
            if run is None:
                lo = cells[i].start
                here = rows[i][j - lo]
                move = consume[i]
                if move is not None and move[0] is RUN and j == move[4]:
                    run = _Run(positions, i, move[1], here, rows, nop_first)
            if run is None:
                inserted = inserts.get(j)
                if move is not None and move[0] is not RUN:
                    below = rows[i + 1]
                    below_lo = cells[i + 1].start
            else:
                if run.vectors is None:
                    stop, q2, shift = run.diagonal(i, q, here)
                    if stop > i:
                        path.append((RUN, None, i, stop))
                        i, q, j = stop, q2, j + shift
                        cell_seen = None
                        if i == run.stop:
                            continue
                        here = run.vector(i)
                move = run.move(i, j)
                inserted = None
                below = (run.vector(i + 1),)
                below_lo = j if move[0] is EdgeKind.INVISIBLE_NOP else j + 1
            found = []
            for symbol, q2, w in table.inserts[q]:
                d = here[q2]
                if d is not INF and running + w + d == best:
                    found.append((EdgeKind.INVISIBLE_INSERT, symbol, w, i, q2, j, None, None))
            if move is not None:
                kind, t_child, y, weight, sync_j = move
                if kind is EdgeKind.INVISIBLE_NOP:
                    nxt = below[j - below_lo]
                    d = nxt[q]
                    if d is not INF and running + weight + d == best:
                        found.append(
                            (EdgeKind.INVISIBLE_DELETE, y, weight, i + 1, q, j, t_child, None)
                        )
                    for q2 in table.moves(y)[0][q]:
                        d = nxt[q2]
                        if d is not INF and running + d == best:
                            found.append((kind, y, 0, i + 1, q2, j, t_child, None))
                elif j == sync_j:  # never a RUN's first cell: crossed above
                    nxt = below[j + 1 - below_lo]
                    targets = (
                        (q,) if kind is EdgeKind.VISIBLE_DELETE
                        else table.moves(y)[0][q]
                    )
                    for q2 in targets:
                        d = nxt[q2]
                        if d is not INF and running + weight + d == best:
                            found.append((kind, y, weight, i + 1, q2, j + 1, t_child, t_child))
            if inserted is not None:
                s_child, y2, w = inserted
                nxt = rows[i][j + 1 - lo]
                for q2 in table.moves(y2)[0][q]:
                    d = nxt[q2]
                    if d is not INF and running + w + d == best:
                        found.append(
                            (EdgeKind.VISIBLE_INSERT, y2, w, i, q2, j + 1, None, s_child)
                        )
            if len(found) == 1:
                step = found[0]
            elif found:
                step = min(found, key=lambda step: preference(self._edge(i, q, j, step)))
            else:
                raise ReproError(
                    f"greedy walk stuck at {PVertex(i, table.states[q], j)!r}: "
                    "not an optimal subgraph?"
                )
            kind, symbol, w, i2, q2, j2, t_child, s_child = step
            if kind is EdgeKind.INVISIBLE_INSERT:
                # the only moves that can return to a vertex stay in its cell
                if cell_seen is None:
                    cell_seen = {q}
                if q2 in cell_seen:
                    raise CycleError(
                        f"greedy walk revisits {PVertex(i2, table.states[q2], j2)!r}"
                    )
                cell_seen.add(q2)
            else:
                cell_seen = None
            path.append((kind, symbol, t_child, s_child))
            running += w
            i, q, j = i2, q2, j2
            if run is not None and i < run.stop:
                here = run.vector(i)
        return path

    def _edge(self, i: int, q: int, j: int, step: tuple) -> PEdge:
        kind, symbol, weight, i2, q2, j2, t_child, s_child = step
        states = self.table.states
        return PEdge(
            PVertex(i, states[q], j), PVertex(i2, states[q2], j2),
            kind, symbol, weight, t_child, s_child,
        )


class _Run:
    """A run of untouched children ``[start, stop)`` the walk crosses:
    its distances at a position come from the index (``vectors is
    None``: the ``Nop`` diagonal may cross it) or from a sweep of its
    cells from the end vector."""

    __slots__ = ("start", "stop", "end", "vectors", "_crossing", "_children", "_first")

    def __init__(self, positions, start, stop, first, rows, nop_first) -> None:
        crossing = positions.crossing
        self.start, self.stop = start, stop
        self.end = rows[stop][0]
        self._crossing = crossing
        self._children = positions.t_children
        self._first = first
        self.vectors = None
        if nop_first and all(
            summary[2] is not None for summary in crossing.index.cover(start, stop)
        ):
            return
        vector = self.end
        vectors = [vector]
        for summary in reversed(crossing.index.leaves(start, stop)):
            vector = CostLeaves.apply([summary], vector)
            vectors.append(vector)
        vectors.reverse()
        self.vectors = vectors

    def vector(self, position: int) -> list:
        """The distances at *position* (``start <= position <= stop``)."""
        if self.vectors is not None:
            return self.vectors[position - self.start]
        if position == self.stop:
            return self.end
        if position == self.start:
            return self._first
        return CostLeaves.apply(self._crossing.index.cover(position, self.stop), self.end)

    def move(self, position: int, j: int) -> tuple:
        """The move over the untouched child at *position*, from script
        position *j*: kept or deleted in place if hidden, kept if visible."""
        crossing = self._crossing
        child = self._children[position]
        y = crossing.labels[child]
        if y in crossing.hidden:
            return (EdgeKind.INVISIBLE_NOP, child, y, crossing.sizes[child], -1)
        return (EdgeKind.VISIBLE_NOP, child, y, 0, j)

    def diagonal(self, position: int, state: int, here: list) -> "tuple[int, int, int]":
        """How far the ``Nop`` diagonal from ``(position, state)`` stays
        optimal: ``(cell, state there, visible children crossed)``."""
        index, stop, end = self._crossing.index, self.stop, self.end
        target = here[state]
        summaries = index.cover(position, stop)
        last = CostLeaves.diagonal(summaries, state)
        if last >= 0 and end[last] == target:
            return stop, last, sum(summary[1] for summary in summaries)
        lo, hi = position, stop  # optimal at lo, not at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            at = CostLeaves.diagonal(index.cover(position, mid), state)
            if at >= 0 and CostLeaves.apply(index.cover(mid, stop), end)[at] == target:
                lo = mid
            else:
                hi = mid
        if lo == position:
            return position, state, 0
        summaries = index.cover(position, lo)
        return (
            lo, CostLeaves.diagonal(summaries, state),
            sum(summary[1] for summary in summaries),
        )
