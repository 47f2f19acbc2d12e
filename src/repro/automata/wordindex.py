"""A balanced positional index over one children word (paper Section 5).

A propagation graph ``G_n`` is a shortest-path problem over child
positions × content-model states, and a children word is checked
against a content model one symbol at a time. Across a run of children
an update leaves untouched, both are products of per-child transition
summaries in a semiring: min-plus for costs, Boolean for membership.

A :class:`WordIndex` keeps one word as the leaves of a height-balanced
(AVL) tree. Each leaf is one child's summary and each inner node caches
the product of its two subtrees, so the summary of any run of
consecutive children is the product of the O(log width) subtrees that
cover it (:meth:`WordIndex.cover`), and inserting, deleting or
replacing one child recomputes O(log width) products. Leaves are shared
objects: a child's summary depends on its label (and, for a hidden
child, its subtree size), never on its position.

Two leaf algebras come with it:

* :class:`CostLeaves` — min-plus, for one compiled parent label. The
  leaf of a child is the parent's (i)-move closure ⊗ the child's
  consume move; it also carries the child's visible count (a run's
  script positions) and, for a symbol the automaton reads
  deterministically, the ``Nop``-diagonal state map ``δ*(q, word)``.
* :class:`MemberLeaves` — Boolean, for one content model: the leaf of a
  child is the automaton's transition relation on its label.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = ["WordIndex", "CostLeaves", "MemberLeaves", "INF"]

INF = math.inf
"""The min-plus zero: no path. Never added to (compared by identity)."""


class _Node:
    """A tree node: a leaf (``left is None``, shared between positions
    and indexes) or an inner node owning its two children."""

    __slots__ = ("left", "right", "size", "height", "value")

    def __init__(self, value, left=None, right=None) -> None:
        self.value = value
        self.left = left
        self.right = right
        self.size = 1
        self.height = 0


class WordIndex:
    """One children word, indexed by position, in one semiring.

    *leaves* are the word's leaf nodes in order (from the algebra's
    ``leaf`` methods); *algebra* supplies ``combine(a, b)``, the product
    of two adjacent summaries. *label* names the parent label the leaves
    were made for (an index is only valid for that label).
    """

    __slots__ = ("algebra", "label", "_root", "_combine")

    def __init__(self, leaves: "Sequence[_Node]", algebra, label: str) -> None:
        self.algebra = algebra
        self.label = label
        self._combine = algebra.combine
        self._root = self._build(leaves, 0, len(leaves)) if leaves else None

    def __len__(self) -> int:
        return 0 if self._root is None else self._root.size

    # -- queries ---------------------------------------------------------

    def cover(self, start: int, stop: int) -> list:
        """The summaries of the O(log width) subtrees covering positions
        ``[start, stop)``, left to right; their product is the run's."""
        out: list = []
        if start < stop:
            _cover(self._root, start, stop, out)
        return out

    def leaves(self, start: int, stop: int) -> list:
        """The leaf summaries of positions ``[start, stop)``, in order."""
        out: list = []
        if start < stop:
            _collect(self._root, start, stop, out)
        return out

    # -- edits -----------------------------------------------------------

    def insert(self, pos: int, leaf: _Node) -> None:
        """Insert *leaf* before position *pos* (at the end for ``len``)."""
        root = self._root
        self._root = leaf if root is None else self._insert(root, pos, leaf)

    def delete(self, pos: int) -> None:
        """Remove the leaf at *pos*."""
        self._root = self._delete(self._root, pos)

    def replace(self, pos: int, leaf: _Node) -> None:
        """Put *leaf* at *pos* in place of the leaf there."""
        self._root = self._replace(self._root, pos, leaf)

    # -- the balanced tree -----------------------------------------------

    def _pull(self, node: _Node) -> None:
        left, right = node.left, node.right
        node.size = left.size + right.size
        node.height = 1 + (left.height if left.height > right.height else right.height)
        node.value = self._combine(left.value, right.value)

    def _join(self, left: _Node, right: _Node) -> _Node:
        node = _Node(None, left, right)
        self._pull(node)
        return node

    def _build(self, leaves, lo: int, hi: int) -> _Node:
        if hi - lo == 1:
            return leaves[lo]
        mid = (lo + hi) // 2
        return self._join(self._build(leaves, lo, mid), self._build(leaves, mid, hi))

    def _rotate_right(self, node: _Node) -> _Node:
        top = node.left
        node.left = top.right
        self._pull(node)
        top.right = node
        self._pull(top)
        return top

    def _rotate_left(self, node: _Node) -> _Node:
        top = node.right
        node.right = top.left
        self._pull(node)
        top.left = node
        self._pull(top)
        return top

    def _fix(self, node: _Node) -> _Node:
        """Recompute *node* after one child changed, rotating when the
        heights of its children differ by two."""
        left, right = node.left, node.right
        if left.height > right.height + 1:
            if left.right.height > left.left.height:
                node.left = self._rotate_left(left)
            return self._rotate_right(node)
        if right.height > left.height + 1:
            if right.left.height > right.right.height:
                node.right = self._rotate_right(right)
            return self._rotate_left(node)
        self._pull(node)
        return node

    def _insert(self, node: _Node, pos: int, leaf: _Node) -> _Node:
        if node.left is None:
            return self._join(leaf, node) if pos == 0 else self._join(node, leaf)
        size = node.left.size
        if pos <= size:
            node.left = self._insert(node.left, pos, leaf)
        else:
            node.right = self._insert(node.right, pos - size, leaf)
        return self._fix(node)

    def _delete(self, node: _Node, pos: int) -> "_Node | None":
        if node.left is None:
            return None
        size = node.left.size
        if pos < size:
            left = self._delete(node.left, pos)
            if left is None:
                return node.right
            node.left = left
        else:
            right = self._delete(node.right, pos - size)
            if right is None:
                return node.left
            node.right = right
        return self._fix(node)

    def _replace(self, node: _Node, pos: int, leaf: _Node) -> _Node:
        if node.left is None:
            return leaf
        size = node.left.size
        if pos < size:
            node.left = self._replace(node.left, pos, leaf)
        else:
            node.right = self._replace(node.right, pos - size, leaf)
        self._pull(node)
        return node

    def __repr__(self) -> str:
        height = -1 if self._root is None else self._root.height
        return f"WordIndex({self.label!r}, width={len(self)}, height={height})"


def _cover(node: _Node, start: int, stop: int, out: list) -> None:
    if start == 0 and stop == node.size:
        out.append(node.value)
        return
    size = node.left.size
    if start < size:
        _cover(node.left, start, stop if stop < size else size, out)
    if stop > size:
        _cover(node.right, start - size if start > size else 0, stop - size, out)


def _collect(node: _Node, start: int, stop: int, out: list) -> None:
    if node.left is None:
        out.append(node.value)
        return
    size = node.left.size
    if start < size:
        _collect(node.left, start, stop if stop < size else size, out)
    if stop > size:
        _collect(node.right, start - size if start > size else 0, stop - size, out)


# ---------------------------------------------------------------------------
# Min-plus: the cost of crossing untouched children
# ---------------------------------------------------------------------------


def _product(left: tuple, right: tuple) -> tuple:
    """The min-plus product of two matrices, each a tuple of rows and
    each row a tuple of ``(column, cost)`` pairs."""
    rows = []
    for row in left:
        acc: dict = {}
        for middle, cost in row:
            for column, more in right[middle]:
                total = cost + more
                if total < acc.get(column, INF):
                    acc[column] = total
        rows.append(tuple(acc.items()))
    return tuple(rows)


class CostLeaves:
    """The min-plus leaves of one parent label's children.

    *nq* states (indices), *closure_moves* per state the (i)-moves
    ``(successor, weight)``, and *successors(symbol)* per state the
    successor indices on *symbol*. A summary is ``(matrix, visible,
    diagonal)``: the min-plus matrix of the cheapest way from a state
    before the children to a state after them; the number of visible
    children; and the ``Nop``-diagonal map (state index → state index,
    ``-1`` where the word has no successor), or ``None`` when a symbol
    of the word is read nondeterministically.
    """

    __slots__ = ("closure", "_successors", "_leaves")

    def __init__(
        self,
        nq: int,
        closure_moves: "Sequence[Sequence[tuple[int, int]]]",
        successors: "Callable[[str], Sequence[Sequence[int]]]",
    ) -> None:
        self.closure = _closure(nq, closure_moves)
        self._successors = successors
        self._leaves: dict = {}

    def leaf(self, symbol: str, weight: "int | None") -> _Node:
        """The leaf of one untouched child labelled *symbol*: visible
        (*weight* ``None``: its ``Nop`` successors at 0) or hidden (kept
        at 0, or deleted in place at *weight*)."""
        key = (symbol, weight)
        node = self._leaves.get(key)
        if node is None:
            row = self._successors(symbol)
            consume = []
            for q, targets in enumerate(row):
                moves = {target: 0 for target in targets}
                if weight is not None and q not in moves:
                    moves[q] = weight
                consume.append(tuple(moves.items()))
            if all(len(targets) <= 1 for targets in row):
                diagonal = tuple(targets[0] if targets else -1 for targets in row)
            else:
                diagonal = None
            value = (
                _product(self.closure, tuple(consume)),
                0 if weight is not None else 1,
                diagonal,
            )
            node = self._leaves[key] = _Node(value)
        return node

    @staticmethod
    def combine(left: tuple, right: tuple) -> tuple:
        first, second = left[2], right[2]
        if first is None or second is None:
            diagonal = None
        else:
            diagonal = tuple(second[q] if q >= 0 else -1 for q in first)
        return (_product(left[0], right[0]), left[1] + right[1], diagonal)

    @staticmethod
    def apply(summaries: list, vector: list) -> list:
        """``summaries[0] ⊗ … ⊗ summaries[-1] ⊗ vector``: the distances
        before a run from the distances after it."""
        for summary in reversed(summaries):
            out = []
            for row in summary[0]:
                best = INF
                for column, cost in row:
                    d = vector[column]
                    if d is not INF and cost + d < best:
                        best = cost + d
                out.append(best)
            vector = out
        return vector

    @staticmethod
    def diagonal(summaries: list, state: int) -> int:
        """Where the ``Nop`` diagonal from *state* leaves the run (``-1``:
        nowhere; the caller checked every summary is deterministic)."""
        for summary in summaries:
            if state < 0:
                return -1
            state = summary[2][state]
        return state


def _closure(nq: int, moves: "Sequence[Sequence[tuple[int, int]]]") -> tuple:
    """The reflexive-transitive min-plus closure of the (i)-moves, as
    the relaxation of a sweep cell computes it."""
    dist = [[INF] * nq for _ in range(nq)]
    for q in range(nq):
        dist[q][q] = 0
        for target, weight in moves[q]:
            if weight < dist[q][target]:
                dist[q][target] = weight
    for middle in range(nq):
        through = dist[middle]
        for q in range(nq):
            first = dist[q][middle]
            if first is INF:
                continue
            row = dist[q]
            for target in range(nq):
                second = through[target]
                if second is not INF and first + second < row[target]:
                    row[target] = first + second
    return tuple(
        tuple((target, d) for target, d in enumerate(row) if d is not INF) for row in dist
    )


# ---------------------------------------------------------------------------
# Boolean: membership in a content model
# ---------------------------------------------------------------------------


_NONE = frozenset()


class MemberLeaves:
    """The Boolean leaves of one content model: a summary is, per state
    index, the frozenset of state indices the word leads to."""

    __slots__ = ("model", "states", "initial", "finals", "_index", "_leaves")

    def __init__(self, model) -> None:
        self.model = model
        self.states = model.sorted_states()
        self._index = {state: position for position, state in enumerate(self.states)}
        self.initial = frozenset({self._index[model.initial]})
        self.finals = frozenset(self._index[state] for state in model.finals)
        self._leaves: dict = {}

    def leaf(self, symbol: str) -> _Node:
        node = self._leaves.get(symbol)
        if node is None:
            index = self._index
            node = self._leaves[symbol] = _Node(tuple(
                frozenset(index[target] for target in self.model.successors(state, symbol))
                for state in self.states
            ))
        return node

    @staticmethod
    def combine(left: tuple, right: tuple) -> tuple:
        return tuple(
            _NONE.union(*[right[q] for q in row]) if row else _NONE for row in left
        )

    @staticmethod
    def fold(summaries: list, states: frozenset) -> frozenset:
        """The states after a run, from the states before it."""
        for summary in summaries:
            if not states:
                break
            states = _NONE.union(*[summary[q] for q in states])
        return states
