"""Preference functions Φ — selecting one path per graph (paper Section 5).

The propagation algorithm is "parametrized by a general procedure
selecting the desired path"; the paper requires only that it run in
polynomial time (Theorem 6) and gives one concrete example: *preference
of Nop-edges over Ins-edges* reproduces the Figure 10 path. This module
ships that family:

* :class:`PreferenceChooser` — walks the optimal subgraph greedily,
  ranking edges by operation kind (then symbol, then target) — total,
  deterministic, linear in the graph;
* :class:`CheapestPathChooser` — plain Dijkstra with deterministic tie
  breaks, usable on *full* (non-optimal) graphs too;
* the shared :class:`PathChooser` protocol, so user-defined Φ plug in.

Choosers handle both propagation graphs and inversion graphs: a chooser
is consulted for every ``G_n``/``G*_n`` and for every inversion graph of
a (iv)-edge insertion.
"""

from __future__ import annotations

from typing import Mapping, Protocol, Sequence

from ..editing import Op
from ..graphutil import cheapest_path, greedy_path
from ..inversion.graph import IEdge
from .propagation_graph import PEdge

__all__ = [
    "PathChooser",
    "PreferenceChooser",
    "CheapestPathChooser",
    "NOP_OVER_DEL_OVER_INS",
    "DEL_OVER_NOP_OVER_INS",
    "INS_OVER_NOP_OVER_DEL",
    "cache_key_of",
]

# Common operation orders (first = most preferred). The paper's Figure 10
# path comes from preferring phantom edges.
NOP_OVER_DEL_OVER_INS: tuple[Op, ...] = (Op.NOP, Op.DEL, Op.INS)
DEL_OVER_NOP_OVER_INS: tuple[Op, ...] = (Op.DEL, Op.NOP, Op.INS)
INS_OVER_NOP_OVER_DEL: tuple[Op, ...] = (Op.INS, Op.NOP, Op.DEL)


def _edge_op(edge) -> Op:
    """The operation an edge will emit (inversion edges: Ins or recurse)."""
    if isinstance(edge, PEdge):
        return edge.kind.op
    if isinstance(edge, IEdge):
        return Op.INS if edge.is_insert else Op.NOP
    raise TypeError(f"not a graph edge: {edge!r}")


def _complete_ranking(op_order: tuple[Op, ...]) -> dict[Op, int]:
    """Rank the given ops in order; unmentioned ops follow, enum order.

    Renames are forced moves (they appear iff the update renames that
    node), so the shipped orders need not mention ``Op.REN``.
    """
    if len(set(op_order)) != len(op_order):
        raise ValueError(f"duplicate operations in {op_order}")
    ranking = {op: index for index, op in enumerate(op_order)}
    for op in Op:
        ranking.setdefault(op, len(ranking))
    return ranking


class PathChooser(Protocol):
    """The pluggable Φ: pick one path in a (usually optimal) graph.

    *graph* exposes ``source``, ``targets`` and ``edges_from``; the
    returned path must lead from the source to a target.
    """

    def choose(self, graph) -> Sequence:
        ...


def cache_key_of(chooser) -> "tuple | None":
    """*chooser*'s class and ``cache_key()``, or ``None`` for a chooser
    without one: results may be shared between choosers only through
    equal keys, so a subclass that overrides the preference but
    inherits the key shares nothing with its base."""
    key = getattr(chooser, "cache_key", None)
    return (type(chooser), key()) if callable(key) else None


class PreferenceChooser:
    """Greedy edge-kind preference over optimal subgraphs.

    At every vertex the outgoing optimal edges are ranked by

    1. the operation kind, per *op_order*;
    2. the symbol (alphabetical);
    3. the target vertex (stable textual order).

    On an optimal subgraph every maximal greedy walk reaches a target (a
    cheapest-path property — see :func:`repro.graphutil.greedy_path`),
    so the result is one cost-optimal path, in time linear in the graph.
    This chooser must not be used on full graphs (walks may dead-end).
    """

    def __init__(self, op_order: tuple[Op, ...] = NOP_OVER_DEL_OVER_INS) -> None:
        self._rank: Mapping[Op, int] = _complete_ranking(op_order)

    def preference(self, edge) -> tuple:
        return (self._rank[_edge_op(edge)], edge.symbol, repr(edge.target))

    def choose(self, graph) -> Sequence:
        return greedy_path(
            graph.source, graph.targets, graph.edges_from, self.preference
        )

    def cache_key(self) -> tuple:
        """A hashable key determining this chooser's behaviour.

        Equal keys mean byte-identical path choices for choosers of one
        class — the inversion memo of :class:`~repro.engine.ViewEngine`
        relies on it (see :func:`cache_key_of`); a chooser without one
        bypasses it.
        """
        order = sorted(self._rank, key=self._rank.get)
        return ("greedy", tuple(op.value for op in order))

    def __repr__(self) -> str:
        order = sorted(self._rank, key=self._rank.get)
        return f"PreferenceChooser({' > '.join(op.value for op in order)})"


class CheapestPathChooser:
    """Dijkstra with deterministic tie-breaking; safe on full graphs.

    Among equal-cost paths, the one whose edge keys
    ``(op rank, symbol, target)`` are lexicographically smallest wins.
    """

    def __init__(self, op_order: tuple[Op, ...] = NOP_OVER_DEL_OVER_INS) -> None:
        self._rank: Mapping[Op, int] = _complete_ranking(op_order)

    def choose(self, graph) -> Sequence:
        path = cheapest_path(
            graph.source,
            graph.targets,
            graph.edges_from,
            tie_break=lambda edge: (
                self._rank[_edge_op(edge)],
                edge.symbol,
                repr(edge.target),
            ),
        )
        if path is None:
            from ..errors import NoPropagationError

            raise NoPropagationError(f"no path in graph of {graph.node!r}")
        return path

    def cache_key(self) -> tuple:
        """See :meth:`PreferenceChooser.cache_key`."""
        order = sorted(self._rank, key=self._rank.get)
        return ("dijkstra", tuple(op.value for op in order))

    def __repr__(self) -> str:
        order = sorted(self._rank, key=self._rank.get)
        return f"CheapestPathChooser({' > '.join(op.value for op in order)})"
