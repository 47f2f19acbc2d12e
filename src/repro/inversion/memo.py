"""Inversion memoized by shape (paper Section 3).

``H_n`` depends on three things only: ``n``'s label, its children's
labels, and their cheapest inversion costs (the (ii)-edge weights).
Identifiers never enter it — a vertex is a child position and a state —
so neither do its cheapest cost nor the path a chooser takes in it, as
long as the chooser breaks ties by operation, symbol and
``(position, state)``: both shipped choosers do, and so does
:meth:`~repro.engine.ViewEngine.invert`.

An :class:`InversionMemo` therefore keeps one entry per key
``(label, child labels, child costs)``: the node's cheapest cost and,
per *path key* (a chooser's class and ``cache_key()``, see
:func:`~repro.core.choosers.cache_key_of`, and the ``optimal_only``
flag), the path taken, as :data:`~repro.inversion.invert.Step`\\ s. A
fragment is sized by one bottom-up pass of lookups (:meth:`InversionMemo.size`)
and inverted by replaying the paths in preorder
(:meth:`InversionMemo.build_tree`), which draws fresh identifiers in
the order :meth:`InversionGraphs.build_tree` draws them: the inverse is
the same tree, identifiers included. A miss builds that one node's
graph (and, for a path, its optimal subgraph) as the reference
collection does. Failures are never memoized: a fragment that fails
is handed to :func:`~repro.inversion.invert.inversion_graphs`, which
raises its error with its message.
"""

from __future__ import annotations

from typing import Callable, Mapping, MutableMapping, Sequence

from ..dtd import DTD, TreeFactory
from ..errors import NoInversionError
from ..views import Annotation
from ..xmltree import NodeId, Tree
from .graph import InversionGraph, InversionPath, build_inversion_graph
from .invert import InversionGraphs, Step, assemble, cheapest_cost, inversion_graphs
from .optimal import OptimalInversionGraph

__all__ = ["InversionMemo", "SizedFragment"]


class _Entry:
    """One key's ``H_n``, solved: its cheapest cost, and the path taken
    in it per path key."""

    __slots__ = ("cost", "paths")

    def __init__(self, cost: int) -> None:
        self.cost = cost
        self.paths: "dict[tuple, tuple[Step, ...]]" = {}


class SizedFragment:
    """A view fragment sized against an :class:`InversionMemo`: per node
    its label and memo entry, plus the graphs the sizing had to build
    (kept for the first replay, which would otherwise build them
    again)."""

    __slots__ = ("root", "labels", "children", "entries", "graphs")

    def __init__(
        self,
        root: NodeId,
        labels: "dict[NodeId, str]",
        children: "Mapping[NodeId, tuple[NodeId, ...]]",
        entries: "dict[NodeId, _Entry]",
        graphs: "dict[NodeId, InversionGraph]",
    ) -> None:
        self.root = root
        self.labels = labels
        self.children = children
        self.entries = entries
        self.graphs = graphs

    def min_inversion_size(self) -> int:
        """Size of the smallest inverse: the fragment's nodes plus the
        cheapest cost at its root."""
        return len(self.labels) + self.entries[self.root].cost


class InversionMemo:
    """Per-shape inversion results under one ``(D, A, W)``.

    *entries* is the mapping the memo keeps its entries in: a plain
    dict by default (a memo for one call), a bounded thread-safe LRU in
    a :class:`~repro.engine.ViewEngine`, whose memo every request and
    thread shares. *hidden_table* and *insert_moves* take a compiled
    engine's artifacts, as :func:`~repro.inversion.invert.inversion_graphs`
    does.
    """

    def __init__(
        self,
        dtd: DTD,
        annotation: Annotation,
        factory: TreeFactory,
        *,
        hidden_table: "Mapping[str, Sequence[str]] | None" = None,
        insert_moves: "Callable[[str], Mapping] | None" = None,
        entries: "MutableMapping | None" = None,
    ) -> None:
        self.dtd = dtd
        self.annotation = annotation
        self.factory = factory
        self._hidden_table = hidden_table
        self._insert_moves = insert_moves
        self._entries = {} if entries is None else entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry. Entries are keyed by node shape under an
        engine's immutable compiled artifacts, so correctness never
        needs this: it is for memory pressure and tests."""
        self._entries.clear()

    def reference(self, view: Tree) -> InversionGraphs:
        """``H(D, A, view)``, built graph by graph: the reference path,
        for callers that need the graphs themselves."""
        return inversion_graphs(
            self.dtd,
            self.annotation,
            view,
            self.factory,
            hidden_table=self._hidden_table,
            insert_moves=self._insert_moves,
        )

    def _graph(
        self,
        node: NodeId,
        label: str,
        kids: "tuple[NodeId, ...]",
        kid_labels: "Sequence[str]",
        kid_costs: "Sequence[int]",
    ) -> InversionGraph:
        moves = self._insert_moves
        return build_inversion_graph(
            self.dtd,
            self.annotation,
            node,
            label,
            kids,
            kid_labels,
            kid_costs,
            self.factory,
            self._hidden_table,
            moves(label) if moves is not None else None,
        )

    def size(
        self,
        root: NodeId,
        label_of: "Callable[[NodeId], str]",
        children: "Mapping[NodeId, tuple[NodeId, ...]]",
        tree: "Callable[[], Tree]",
    ) -> SizedFragment:
        """Size the fragment at *root* (labels by *label_of*, children
        lists in *children*): every node looked up bottom-up, its key
        made of its children's labels and costs, and solved on a miss.

        *tree* returns the fragment as a tree; it is called only when
        the fragment fails, to raise the reference collection's error.
        """
        memo = self._entries
        labels: "dict[NodeId, str]" = {}
        entries: "dict[NodeId, _Entry]" = {}
        graphs: "dict[NodeId, InversionGraph]" = {}
        order = [root]
        for node in order:  # breadth first: every node before its descendants
            order.extend(children.get(node, ()))
        try:
            for node in reversed(order):
                label = labels[node] = label_of(node)
                kids = children.get(node, ())
                kid_labels = tuple(map(labels.__getitem__, kids))
                kid_costs = tuple(entries[kid].cost for kid in kids)
                key = (label, kid_labels, kid_costs)
                entry = memo.get(key)
                if entry is None:
                    graph = graphs[node] = self._graph(node, label, kids, kid_labels, kid_costs)
                    cost = cheapest_cost(graph)
                    if cost is None:
                        raise NoInversionError(f"no inversion path in H_{node!r}")
                    entry = memo[key] = _Entry(cost)
                entries[node] = entry
        except Exception:
            self.reference(tree())  # raises the reference's error
            raise
        return SizedFragment(root, labels, children, entries, graphs)

    def size_tree(self, view: Tree) -> SizedFragment:
        """:meth:`size` over a whole view tree."""
        if view.is_empty:
            self.reference(view)  # raises: the empty tree is no view
        return self.size(view.root, view._labels.__getitem__, view._children, lambda: view)

    def build_tree(
        self,
        fragment: SizedFragment,
        path_key: tuple,
        choose: "Callable[[InversionGraph], InversionPath]",
        fresh: "Callable[[], NodeId]",
        *,
        optimal_only: bool,
    ) -> Tree:
        """The inverse of a sized *fragment* along the paths *choose*
        takes (in ``H*_n`` with *optimal_only*), read from the memo
        under *path_key*: equal to the reference collection's
        :meth:`~repro.inversion.invert.InversionGraphs.build_tree`, fresh
        identifiers included. A node whose path is not memoized yet has
        it chosen in its graph and recorded."""
        entries = fragment.entries
        graphs = fragment.graphs

        def path_of(node: NodeId) -> "tuple[Step, ...]":
            entry = entries[node]
            path = entry.paths.get(path_key)
            if path is None:
                graph = graphs.get(node)
                if graph is None:
                    kids = fragment.children.get(node, ())
                    graph = graphs[node] = self._graph(
                        node,
                        fragment.labels[node],
                        kids,
                        [fragment.labels[kid] for kid in kids],
                        [entries[kid].cost for kid in kids],
                    )
                chosen = choose(OptimalInversionGraph(graph) if optimal_only else graph)
                path = entry.paths[path_key] = tuple(
                    (edge.symbol, edge.child_index) for edge in chosen
                )
            return path

        return assemble(
            fragment.root, fragment.labels, fragment.children, path_of, self.factory, fresh
        )
