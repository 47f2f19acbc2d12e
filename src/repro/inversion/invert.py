"""Building inversion-graph collections and constructing inverses.

Entry points:

* :func:`inversion_graphs` — the collection ``H(D,A,t′)`` with paper
  weights (one bottom-up pass; polynomial in ``|D|`` and ``|t′|``);
* :meth:`InversionGraphs.min_inversion_size` — size of the smallest
  inverse (``|t′|`` plus the cheapest-path cost at the root);
* :func:`invert` — one concrete inverse of ``t′`` (cheapest by default),
  the Theorem 1/2 construction: pick an inversion path per graph, emit a
  factory tree per (i)-edge, recurse per (ii)-edge (:func:`assemble`,
  shared with the memoized replay of :mod:`repro.inversion.memo`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..dtd import DTD, MinimalTreeFactory, TreeFactory
from ..errors import DuplicateNodeError, NoInversionError
from ..graphutil import min_distances
from ..views import Annotation
from ..xmltree import NodeId, NodeIds, Tree
from .graph import InversionGraph, InversionPath, build_inversion_graph
from .optimal import OptimalInversionGraph

__all__ = [
    "InversionGraphs",
    "inversion_graphs",
    "invert",
    "verify_inverse",
    "assemble",
    "cheapest_cost",
]


class InversionGraphs:
    """The collection ``H(D,A,t′) = (H_n)_{n ∈ N_t′}``.

    ``costs[n]`` is the cheapest inversion-path cost of ``H_n`` — the
    number of invisible nodes a minimal inverse adds strictly below
    ``n``. Optimal subgraphs ``H*_n`` are built lazily via
    :meth:`optimal`.
    """

    def __init__(
        self,
        dtd: DTD,
        annotation: Annotation,
        view: Tree,
        factory: TreeFactory,
        graphs: Mapping[NodeId, InversionGraph],
        costs: Mapping[NodeId, int],
    ) -> None:
        self.dtd = dtd
        self.annotation = annotation
        self.view = view
        self.factory = factory
        self._graphs = dict(graphs)
        self.costs = dict(costs)
        self._optimal: dict[NodeId, OptimalInversionGraph] = {}

    def __getitem__(self, node: NodeId) -> InversionGraph:
        return self._graphs[node]

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._graphs)

    def __len__(self) -> int:
        return len(self._graphs)

    def optimal(self, node: NodeId) -> OptimalInversionGraph:
        """``H*_node`` — cached cheapest-path-induced subgraph."""
        if node not in self._optimal:
            self._optimal[node] = OptimalInversionGraph(self._graphs[node])
        return self._optimal[node]

    def min_inversion_size(self) -> int:
        """Size of the smallest tree in ``Inv(L(D), A, t′)``."""
        return self.view.size + self.costs[self.view.root]

    @property
    def total_size(self) -> int:
        """Total vertex+edge count over all graphs (for scaling studies)."""
        return sum(
            graph.n_vertices + graph.n_edges for graph in self._graphs.values()
        )

    # ------------------------------------------------------------------
    # Tree construction (the Theorem 1/2 recipe)
    # ------------------------------------------------------------------

    def build_tree(
        self,
        choose: Callable[[InversionGraph], InversionPath],
        fresh: "Callable[[], NodeId] | None" = None,
        *,
        optimal_only: bool = False,
    ) -> Tree:
        """Construct an inverse from one chosen path per (used) graph.

        *choose* receives ``H_n`` (or ``H*_n`` with ``optimal_only``) and
        returns an inversion path in it; (i)-edges materialise
        ``factory`` trees with *fresh* identifiers. Paths are chosen and
        fresh identifiers drawn in preorder (see :func:`assemble`).
        """
        if fresh is None:
            # byte-compatible with NodeIds.avoiding(view.nodes(), "h"):
            # every candidate exceeds the largest live h-suffix, so none
            # can collide — and the maximum is memoized on the tree.
            fresh = NodeIds("h", self.view.max_suffix("h") + 1).fresh

        def path_of(node: NodeId) -> "list[Step]":
            graph = self.optimal(node) if optimal_only else self._graphs[node]
            return [(edge.symbol, edge.child_index) for edge in choose(graph)]

        view = self.view
        return assemble(view.root, view._labels, view._children, path_of, self.factory, fresh)

    def __repr__(self) -> str:
        return (
            f"InversionGraphs(|t'|={self.view.size}, total_size={self.total_size}, "
            f"min_inverse={self.min_inversion_size()})"
        )


Step = tuple[str, int | None]
"""One step of a chosen inversion path, as the tree assembly reads it:
``(symbol, None)`` for an (i)-edge ``Ins(symbol)``, ``(label, i)`` for a
(ii)-edge ``Rec(i)`` into the i-th child (1-based), which has *label*."""


def assemble(
    root: NodeId,
    labels: "Mapping[NodeId, str]",
    children: "Mapping[NodeId, tuple[NodeId, ...]]",
    path_of: "Callable[[NodeId], Iterable[Step]]",
    factory: TreeFactory,
    fresh: "Callable[[], NodeId]",
) -> Tree:
    """The inverse of the view fragment at *root* (its *labels* and
    *children* maps) that follows one chosen path per node: a
    ``factory`` tree with *fresh* identifiers per ``Ins`` step, the
    subtree of the i-th child per ``Rec(i)`` step (the Theorem 1/2
    recipe).

    Iterative (an explicit stack of open nodes, each resuming its path
    where a child's subtree interrupted it), so ``path_of`` is asked and
    fresh identifiers are drawn in preorder, as a recursive assembly
    would, and the tree's maps are built once, in the order such an
    assembly's per-level merges would leave them.
    """
    tree_labels: "dict[NodeId, str]" = {}
    tree_children: "dict[NodeId, tuple[NodeId, ...]]" = {}
    parents: "dict[NodeId, NodeId]" = {}

    def clash(nodes) -> DuplicateNodeError:
        nid = next(nid for nid in nodes if nid in tree_labels)
        return DuplicateNodeError(f"node {nid!r} occurs in more than one subtree")

    def open_node(node: NodeId) -> list:
        if node in tree_labels:
            raise clash((node,))
        tree_labels[node] = labels[node]
        return [node, iter(path_of(node)), []]

    frames = [open_node(root)]
    while frames:
        node, path, kids = frames[-1]
        for symbol, index in path:
            if index is None:
                tree = factory.build(symbol, fresh)
                if not tree_labels.keys().isdisjoint(tree._labels):
                    raise clash(tree._labels)
                tree_labels.update(tree._labels)
                tree_children.update(tree._children)
                parents.update(tree._parents)
                parents[tree.root] = node
                kids.append(tree.root)
            else:
                frames.append(open_node(children[node][index - 1]))
                break
        else:
            frames.pop()
            if kids:
                tree_children[node] = tuple(kids)
            if frames:
                parents[node] = frames[-1][0]
                frames[-1][2].append(node)
    return Tree._from_parts(root, tree_labels, tree_children, parents)


def inversion_graphs(
    dtd: DTD,
    annotation: Annotation,
    view: Tree,
    factory: TreeFactory | None = None,
    *,
    hidden_table: "Mapping[str, Sequence[str]] | None" = None,
    insert_moves: "Callable[[str], Mapping] | None" = None,
) -> InversionGraphs:
    """Build ``H(D, A, view)`` with the paper's edge weights.

    One bottom-up pass: children costs feed the parents' (ii)-edge
    weights. Raises :class:`NoInversionError` if ``view ∉ A(L(D))``.
    *hidden_table* optionally supplies a compiled engine's per-label
    hidden-symbol table and *insert_moves* its per-label (i)-edge move
    tables (see :class:`repro.engine.ViewEngine`).
    """
    if view.is_empty:
        raise NoInversionError("the empty tree is not a view of any document")
    unknown = {view.label(node) for node in view.nodes()} - dtd.alphabet
    if unknown:
        raise NoInversionError(
            f"view uses labels outside the DTD alphabet: {sorted(unknown)}"
        )
    if factory is None:
        factory = MinimalTreeFactory(dtd)
    graphs: dict[NodeId, InversionGraph] = {}
    costs: dict[NodeId, int] = {}
    labels = view._labels
    for node in view.postorder():
        label = labels[node]
        kids = view.children(node)
        graph = build_inversion_graph(
            dtd,
            annotation,
            node,
            label,
            kids,
            [labels[kid] for kid in kids],
            [costs[kid] for kid in kids],
            factory,
            hidden_table,
            insert_moves(label) if insert_moves is not None else None,
        )
        best = cheapest_cost(graph)
        if best is None:
            raise NoInversionError(
                f"no inversion path in H_{node!r} (label {graph.label!r}): "
                "the view is not in A(L(D))"
            )
        graphs[node] = graph
        costs[node] = best
    return InversionGraphs(dtd, annotation, view, factory, graphs, costs)


def cheapest_cost(graph: InversionGraph) -> "int | None":
    """The cheapest inversion-path cost of *graph*, ``None`` if no
    target is reachable."""
    dist = min_distances([graph.source], graph.edges_from)
    return min(
        (dist[target] for target in graph.targets if target in dist),
        default=None,
    )


def invert(
    dtd: DTD,
    annotation: Annotation,
    view: Tree,
    *,
    factory: TreeFactory | None = None,
    fresh: "Callable[[], NodeId] | None" = None,
    minimal: bool = True,
) -> Tree:
    """One inverse of *view*: a source tree ``t ∈ L(D)`` with ``A(t) = view``.

    With ``minimal=True`` (default) the result is a size-minimal inverse
    (Theorem 2); otherwise any cheapest path of the full graph is used —
    currently the same choice, but kept separate so callers can read the
    intent. Deterministic.

    Served by the process-wide default
    :class:`~repro.registry.EngineRegistry`: repeat calls with the same
    schema reuse one compiled :class:`~repro.engine.ViewEngine` instead
    of recompiling per call (byte-identical results either way).
    """
    from ..registry import default_registry

    engine = default_registry().get_or_compile(dtd, annotation, factory=factory)
    return engine.invert(view, fresh=fresh, minimal=minimal)


def verify_inverse(
    dtd: DTD, annotation: Annotation, view: Tree, candidate: Tree
) -> bool:
    """Check the defining property: ``candidate ∈ L(D)`` and ``A(candidate) = view``."""
    return dtd.validates(candidate) and annotation.view(candidate) == view
