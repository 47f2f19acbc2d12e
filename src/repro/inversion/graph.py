"""Inversion graphs ``H(D, A, t′)`` (paper Section 3).

Given a DTD ``D``, an annotation ``A``, and a view tree ``t′``, the
collection ``H(D,A,t′)`` holds one directed labelled graph ``H_n`` per
node ``n`` of ``t′``. Fixing ``n`` with label ``x``, content model
``D(x) = (Σ,Q,q0,δ,F)``, and children ``m₁…m_k`` of ``n`` in ``t′``:

* vertices are ``{c₀, m₁, …, m_k} × Q`` (``c₀`` is a fresh position
  preceding all children, also written ``m₀``);
* an **(i)-edge** ``(mᵢ,q) →Ins(y) (mᵢ,q′)`` exists for every transition
  ``q →y q′`` with ``A(x,y) = 0`` — inventing an invisible subtree;
* a **(ii)-edge** ``(mᵢ₋₁,q) →Rec(i) (mᵢ,q′)`` exists for every
  transition ``q →y q′`` with ``A(x,y) = 1`` and ``λ(mᵢ) = y`` —
  recursing into the i-th visible child.

An *inversion path* runs from ``(c₀,q0)`` to ``(m_k,q)`` with ``q ∈ F``
(possibly through cycles of (i)-edges). Every choice of one inversion
path per graph — together with trees for the (i)-edges — yields an
inverse of ``t′``, and every inverse arises this way (Theorem 1).

Positions are stored as integers ``0..k`` (0 = ``c₀``); the child node
identifier of position ``i ≥ 1`` is available via :meth:`child_at`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..automata import State
from ..dtd import DTD, TreeFactory
from ..errors import NoInversionError
from ..views import Annotation
from ..xmltree import NodeId

__all__ = ["IVertex", "IEdge", "InversionGraph", "InversionPath"]


@dataclass(frozen=True)
class IVertex:
    """A vertex ``(m_pos, state)`` of an inversion graph."""

    pos: int
    state: State

    def __repr__(self) -> str:
        return f"({('c0' if self.pos == 0 else f'm{self.pos}')},{self.state})"


@dataclass(frozen=True)
class IEdge:
    """An edge of an inversion graph.

    ``kind`` is ``"ins"`` for (i)-edges (label ``Ins(symbol)``) and
    ``"rec"`` for (ii)-edges (label ``Rec(child_index)``); ``weight``
    follows the paper: the insertion weight of ``symbol`` for (i)-edges,
    the minimal inversion cost of the child for (ii)-edges.
    """

    source: IVertex
    target: IVertex
    kind: str
    symbol: str
    child_index: int | None
    weight: int

    @property
    def is_insert(self) -> bool:
        return self.kind == "ins"

    @property
    def is_recurse(self) -> bool:
        return self.kind == "rec"

    def display(self) -> str:
        if self.is_insert:
            return f"Ins({self.symbol})"
        return f"Rec({self.child_index})"

    def __repr__(self) -> str:
        return f"{self.source!r}-{self.display()}->{self.target!r}"


InversionPath = tuple[IEdge, ...]


class InversionGraph:
    """``H_n`` for one view node, with paper edge weights attached.

    Not built directly — see
    :func:`repro.inversion.invert.inversion_graphs`.
    """

    def __init__(
        self,
        node: NodeId,
        label: str,
        children: tuple[NodeId, ...],
        source: IVertex,
        targets: frozenset[IVertex],
        adjacency: dict[IVertex, tuple[IEdge, ...]],
    ) -> None:
        self.node = node
        self.label = label
        self.children = children
        self.source = source
        self.targets = targets
        self._adjacency = adjacency

    # -- structural interface shared with optimal subgraphs ---------------

    def edges_from(self, vertex: IVertex) -> tuple[IEdge, ...]:
        return self._adjacency.get(vertex, ())

    def all_edges(self) -> Iterator[IEdge]:
        for edges in self._adjacency.values():
            yield from edges

    def vertices(self) -> Iterator[IVertex]:
        seen: set[IVertex] = set()
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

    def child_at(self, index: int) -> NodeId:
        """The view child node at 1-based position *index*."""
        return self.children[index - 1]

    def is_target(self, vertex: IVertex) -> bool:
        return vertex in self.targets

    def to_dot(self) -> str:
        """GraphViz rendering mirroring the paper's Figure 6."""
        lines = [f'digraph "H_{self.node}" {{', "  rankdir=LR;"]
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
            f"InversionGraph(node={self.node!r}, label={self.label!r}, "
            f"|V|={self.n_vertices}, |E|={self.n_edges})"
        )


def build_inversion_graph(
    dtd: DTD,
    annotation: Annotation,
    node: NodeId,
    label: str,
    children: tuple[NodeId, ...],
    child_labels: Sequence[str],
    child_costs: Sequence[int],
    factory: TreeFactory,
    hidden_table: "Mapping[str, Sequence[str]] | None" = None,
    insert_moves: "Mapping | None" = None,
) -> InversionGraph:
    """Construct ``H_node`` from the node's shape: its *label*, its
    *children* with their labels, and their cheapest inversion-path
    costs (the (ii)-edge weights, ``child_costs[i]`` that of
    ``H_{children[i]}``).

    Nothing else enters the graph: identifiers only name it
    (:attr:`InversionGraph.node`, :meth:`InversionGraph.child_at`).
    (i)-edge weights come from ``factory.weight`` (minimal tree sizes by
    default, insertlet sizes under a package). ``hidden_table``
    optionally supplies the sorted hidden symbols per parent label (a
    compiled engine's table), saving the ``O(|Σ|)`` annotation scan per
    node; ``insert_moves`` the label's precompiled (i)-edge move table
    (see :func:`repro.core.propagation_graph.compile_insert_moves`),
    saving the hidden-symbol × successor enumeration at every vertex.

    Raises :class:`NoInversionError` when a child's label is not visible
    under this node's label — such a tree cannot be any view.
    """
    model = dtd.automaton(label)
    if hidden_table is not None:
        hidden = hidden_table[label]
    else:
        hidden = [y for y in dtd.sorted_alphabet if annotation.hides(label, y)]
    if insert_moves is None:
        from ..core.propagation_graph import compile_insert_moves

        insert_moves = compile_insert_moves(model, hidden, factory)

    adjacency: dict[IVertex, list[IEdge]] = {}

    def add(edge: IEdge) -> None:
        adjacency.setdefault(edge.source, []).append(edge)

    for pos in range(len(children) + 1):
        for state in model.states:
            vertex = IVertex(pos, state)
            # (i)-edges: invent an invisible subtree, stay at the position
            for symbol, target_state, weight in insert_moves[state]:
                add(
                    IEdge(
                        vertex,
                        IVertex(pos, target_state),
                        "ins",
                        symbol,
                        None,
                        weight,
                    )
                )
            # (ii)-edges: consume the next visible child
            if pos < len(children):
                child_label = child_labels[pos]
                if annotation.hides(label, child_label):
                    raise NoInversionError(
                        f"view node {children[pos]!r} has label {child_label!r}, which is "
                        f"hidden under {label!r}: not a view of any document"
                    )
                for target_state in model.sorted_successors(state, child_label):
                    add(
                        IEdge(
                            vertex,
                            IVertex(pos + 1, target_state),
                            "rec",
                            child_label,
                            pos + 1,
                            child_costs[pos],
                        )
                    )

    source = IVertex(0, model.initial)
    targets = frozenset(
        IVertex(len(children), state) for state in model.finals
    )
    return InversionGraph(
        node,
        label,
        children,
        source,
        targets,
        {vertex: tuple(edges) for vertex, edges in adjacency.items()},
    )
