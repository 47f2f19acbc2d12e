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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

from ..automata import State
from ..dtd import DTD, TreeFactory
from ..editing import EditScript, Op
from ..errors import ScriptError
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
]

InsertMoves = Mapping[State, "tuple[tuple[str, State, int], ...]"]
"""Per automaton state, the (i)-edge moves under one parent label:
``(hidden symbol, successor state, insertion weight)`` triples in the
canonical (symbol-major, successor-minor) order the graph builders emit
edges in."""


def compile_insert_moves(
    model, hidden_symbols: "Sequence[str]", factory: TreeFactory
) -> "dict[State, tuple[tuple[str, State, int], ...]]":
    """Precompute the invisible-insert moves of one content model.

    Both propagation graphs ((i)-edges) and inversion graphs ((i)-edges
    of Section 3) enumerate, at *every* vertex, the hidden symbols a
    parent label admits together with the automaton successors and the
    factory weight. None of that depends on the document or the update —
    only on ``(D, A, W)`` — so a compiled engine builds this table once
    per label and every graph construction just reads it.
    """
    return {
        state: tuple(
            (symbol, successor, factory.weight(symbol))
            for symbol in hidden_symbols
            for successor in model.sorted_successors(state, symbol)
        )
        for state in model.sorted_states()
    }


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
    """
    label = effective_label if effective_label is not None else source_tree.label(node)
    model = dtd.automaton(label)
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

    k, ell = len(t_children), len(s_children)
    if hidden_table is not None:
        hidden_symbols = hidden_table[label]
    else:
        hidden_symbols = [
            y for y in dtd.sorted_alphabet if annotation.hides(label, y)
        ]
    states = model.sorted_states()
    if insert_moves is None:
        insert_moves = compile_insert_moves(model, hidden_symbols, factory)
    successors = model.sorted_successors

    # A vertex (i, q, j) exists iff seg_t[i] == seg_s[j]. seg_s never
    # decreases, so the script positions of one segment form a contiguous
    # run: visiting only that run for each i yields exactly the vertices
    # (and edges, in the same order) of a scan over the whole grid.
    runs: list[range] = []
    lo = 0
    for j in range(1, ell + 1):
        if seg_s[j] != seg_s[j - 1]:
            runs.append(range(lo, j))
            lo = j
    runs.append(range(lo, ell + 1))

    # Per script position j < ℓ: the (iv) move consuming an inserted
    # child, if it stays inside the segment and the child is visible.
    visible_inserts: list[tuple[NodeId, str, int] | None] = []
    for j, s_child in enumerate(s_children):
        move = None
        if update.op(s_child) is Op.INS and seg_s[j + 1] == seg_s[j]:
            y = update.symbol(s_child)
            if annotation.visible(label, y):
                move = (s_child, y, insert_costs[s_child])
        visible_inserts.append(move)
    visible_inserts.append(None)  # j = ℓ consumes nothing

    adjacency: dict[PVertex, list[PEdge]] = {}

    def add(edge: PEdge) -> None:
        adjacency.setdefault(edge.source, []).append(edge)

    s_index = {child: j for j, child in enumerate(s_children)}
    for i in range(k + 1):
        # the t-child m_{i+1} this position may consume, classified once
        hidden_move = visible_move = None
        sync_j = -1
        if i < k:
            t_child = t_children[i]
            y = source_tree.label(t_child)
            if annotation.hides(label, y):
                if seg_t[i + 1] == seg_t[i]:
                    hidden_move = (t_child, y, subtree_sizes[t_child])
            else:
                # visible t-child: must synchronise with the script child
                # at the same node, within this segment
                s_pos = s_index.get(t_child, -1)
                if s_pos >= 0 and seg_t[i + 1] == seg_s[s_pos + 1]:
                    s_op = update.op(t_child)
                    if s_op is Op.DEL:
                        visible_move = (
                            EdgeKind.VISIBLE_DELETE, y, subtree_sizes[t_child]
                        )
                    elif s_op is Op.NOP:
                        visible_move = (EdgeKind.VISIBLE_NOP, y, child_costs[t_child])
                    elif s_op is Op.REN:
                        # the kept child's new label drives the automaton;
                        # cost 1 for the rename plus its own graph's
                        # cheapest path
                        visible_move = (
                            EdgeKind.VISIBLE_RENAME,
                            update.output_symbol(t_child),
                            1 + child_costs[t_child],
                        )
                    if visible_move is not None:
                        sync_j = s_pos
        for j in runs[seg_t[i]]:
            inserted = visible_inserts[j]
            for state in states:
                vertex = PVertex(i, state, j)

                # (i) invisible insert: invent a hidden subtree, stay put
                for symbol, q2, weight in insert_moves[state]:
                    add(PEdge(
                        vertex, PVertex(i, q2, j),
                        EdgeKind.INVISIBLE_INSERT, symbol, weight,
                    ))

                # edges consuming the next t-child m_{i+1}
                if hidden_move is not None:
                    t_child, y, size = hidden_move
                    # (ii) invisible delete: drop the hidden subtree
                    add(PEdge(
                        vertex, PVertex(i + 1, state, j),
                        EdgeKind.INVISIBLE_DELETE, y, size, t_child=t_child,
                    ))
                    # (iii) invisible nop: keep the hidden subtree
                    for q2 in successors(state, y):
                        add(PEdge(
                            vertex, PVertex(i + 1, q2, j),
                            EdgeKind.INVISIBLE_NOP, y, 0, t_child=t_child,
                        ))
                elif j == sync_j:
                    kind, y, weight = visible_move
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
                    s_child, y, weight = inserted
                    for q2 in successors(state, y):
                        add(PEdge(
                            vertex, PVertex(i, q2, j + 1),
                            EdgeKind.VISIBLE_INSERT, y, weight, s_child=s_child,
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
