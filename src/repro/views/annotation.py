"""Annotations and the views they define (paper Section 2).

An annotation is a function ``A : Σ × Σ → {0, 1}``. Given a nonempty
tree, the set of *visible* nodes ``⟦A⟧_t`` is defined recursively:

1. the root is always visible;
2. a node ``n`` with a visible parent ``p`` is visible iff
   ``A(λ(p), λ(n)) = 1``;
3. every other node is hidden.

Visibility is therefore *upward closed*: all descendants of a hidden
node are hidden. The view ``A(t)`` keeps exactly the visible nodes with
their labels, identifiers, and relative order — this module implements
both the visibility computation and the view extraction.

The paper specifies annotations "only on the essential pairs of symbols;
the annotation is assumed to be 1 on the remaining pairs" — mirrored by
:meth:`Annotation.hiding`, the common way to build one.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from ..errors import AnnotationError
from ..xmltree import NodeId, Tree

__all__ = ["Annotation", "VISIBLE", "HIDDEN"]

VISIBLE = 1
HIDDEN = 0


class Annotation:
    """A visibility annotation ``A : Σ × Σ → {0, 1}``.

    Parameters
    ----------
    entries:
        Explicit values for (parent label, child label) pairs.
    default:
        Value of all unspecified pairs (``VISIBLE`` per the paper's
        convention).
    """

    __slots__ = ("_entries", "_default")

    def __init__(
        self,
        entries: Mapping[tuple[str, str], int] | None = None,
        default: int = VISIBLE,
    ) -> None:
        if default not in (VISIBLE, HIDDEN):
            raise AnnotationError(f"default must be 0 or 1, got {default!r}")
        self._default = default
        self._entries: dict[tuple[str, str], int] = {}
        for pair, value in (entries or {}).items():
            if value not in (VISIBLE, HIDDEN):
                raise AnnotationError(f"annotation value must be 0 or 1, got {value!r}")
            parent, child = pair
            self._entries[(parent, child)] = value

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def hiding(cls, *pairs: tuple[str, str]) -> "Annotation":
        """Annotation that hides exactly the given (parent, child) pairs.

        >>> A0 = Annotation.hiding(("r", "b"), ("r", "c"), ("d", "a"), ("d", "b"))
        """
        return cls({pair: HIDDEN for pair in pairs})

    @classmethod
    def identity(cls) -> "Annotation":
        """The annotation that hides nothing (the view is the document)."""
        return cls()

    @classmethod
    def parse(cls, text: str) -> "Annotation":
        """Parse a small textual format, one directive per line::

            default visible        # or: default hidden
            hide r b               # A(r, b) = 0
            show d c               # A(d, c) = 1

        Comments start with ``#``; blank lines are ignored.
        """
        default = VISIBLE
        entries: dict[tuple[str, str], int] = {}
        for raw_line in text.splitlines():
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "default" and len(parts) == 2:
                if parts[1] not in ("visible", "hidden"):
                    raise AnnotationError(f"bad default {parts[1]!r}")
                default = VISIBLE if parts[1] == "visible" else HIDDEN
            elif parts[0] in ("hide", "show") and len(parts) == 3:
                value = HIDDEN if parts[0] == "hide" else VISIBLE
                entries[(parts[1], parts[2])] = value
            else:
                raise AnnotationError(f"cannot parse annotation line {raw_line!r}")
        return cls(entries, default)

    def serialize(self) -> str:
        """Render the directive format accepted back by :meth:`parse`.

        ``Annotation.parse(a.serialize())`` defines the same function as
        ``a``: the default line comes first, then one ``hide``/``show``
        line per explicit entry in sorted order (so equal annotations
        serialize identically — the durable store relies on this).
        """
        lines = [
            "default " + ("visible" if self._default == VISIBLE else "hidden")
        ]
        for (parent, child), value in sorted(self._entries.items()):
            directive = "show" if value == VISIBLE else "hide"
            lines.append(f"{directive} {parent} {child}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # The function A
    # ------------------------------------------------------------------

    def __call__(self, parent_label: str, child_label: str) -> int:
        return self._entries.get((parent_label, child_label), self._default)

    def visible(self, parent_label: str, child_label: str) -> bool:
        """``A(parent_label, child_label) = 1``."""
        return self(parent_label, child_label) == VISIBLE

    def hides(self, parent_label: str, child_label: str) -> bool:
        return not self.visible(parent_label, child_label)

    @property
    def default(self) -> int:
        return self._default

    def entries(self) -> Iterator[tuple[tuple[str, str], int]]:
        """Explicitly specified pairs, sorted."""
        yield from sorted(self._entries.items())

    def hidden_pairs(self) -> frozenset[tuple[str, str]]:
        """All explicitly hidden pairs (useful when the default is visible)."""
        return frozenset(
            pair for pair, value in self._entries.items() if value == HIDDEN
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def visible_nodes(self, tree: Tree) -> frozenset[NodeId]:
        """``⟦A⟧_t`` — the visible nodes of *tree*."""
        if tree.is_empty:
            return frozenset()
        visible: set[NodeId] = set()
        stack = [tree.root]
        while stack:
            node = stack.pop()
            visible.add(node)
            label = tree.label(node)
            for kid in tree.children(node):
                if self.visible(label, tree.label(kid)):
                    stack.append(kid)
        return frozenset(visible)

    def hidden_nodes(self, tree: Tree) -> frozenset[NodeId]:
        return tree.node_set - self.visible_nodes(tree)

    def view(self, tree: Tree) -> Tree:
        """``A(t)`` — the view of *tree*: visible nodes only, ids preserved.

        One iterative preorder pass that fills the view's node maps
        directly and adopts them (no per-level merge of child maps, no
        recursion limit on the document's depth).
        """
        if tree.is_empty:
            return tree
        source_labels = tree._labels
        source_children = tree._children
        visible = self.visible
        labels: "dict[NodeId, str]" = {}
        children: "dict[NodeId, tuple[NodeId, ...]]" = {}
        parents: "dict[NodeId, NodeId]" = {}
        stack = [tree.root]
        while stack:
            node = stack.pop()
            label = labels[node] = source_labels[node]
            kids = source_children.get(node)
            if not kids:
                continue
            kept = tuple(kid for kid in kids if visible(label, source_labels[kid]))
            if kept:
                children[node] = kept
                for kid in kept:
                    parents[kid] = node
                stack.extend(reversed(kept))
        return Tree._from_parts(tree.root, labels, children, parents)

    def is_view_of(self, view: Tree, source: Tree) -> bool:
        """Whether ``A(source) = view`` (identifier-exact, per the paper)."""
        return self.view(source) == view

    def __repr__(self) -> str:
        shown = ", ".join(
            f"A({p},{c})={v}" for (p, c), v in list(self.entries())[:4]
        )
        more = "" if len(self._entries) <= 4 else ", ..."
        return f"Annotation(default={self._default}, {shown}{more})"
