"""Ordered labelled trees with explicit node identifiers.

This module implements the tree model of Section 2 of the paper: a tree
``t = (Σ, N_t, ⊑_t, <_t, λ_t)`` with a finite node set, a descendant
relation, a following-sibling relation, and a labelling function.

Two modelling points from the paper are load-bearing and deliberately
preserved here:

* **Node identifiers matter.** Equality of trees is equality of the
  underlying structures *including the node set* — two isomorphic trees
  with different identifiers are *not* equal (``==`` is identity-aware;
  use :meth:`Tree.isomorphic` for shape equality). The side-effect-free
  criterion of the view update problem relies on this.
* **Identifier sets are arbitrary.** Node identifiers are not assumed to
  be paths in ``ℕ*``; any hashable values work, because updates insert
  and delete nodes while the surviving nodes keep their identifiers.

Trees are immutable, and the editing helpers exploit that: instead of
rebuilding every node map from scratch (a Python-level ``O(n)``
comprehension per edit), :meth:`Tree.replace_subtree`,
:meth:`Tree.delete_subtree`, and :meth:`Tree.insert_subtree` copy the
maps at C speed and patch only the delta, :meth:`Tree.map_labels`
shares the child/parent maps outright (the shape is untouched), and the
memoized per-node subtree-size table and fresh-identifier suffix index
are *carried* through an edit — unaffected entries are kept, only the
edited region and its ancestor path are recomputed. Observable
behaviour (equality, hashing, errors, iteration order) is unchanged;
only where the dictionaries come from differs.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Container, Hashable, Iterable, Iterator, Mapping, Sequence

from ..errors import DuplicateNodeError, NodeNotFoundError, TreeError
from .nodeid import numeric_suffix as _numeric_suffix

__all__ = ["NodeId", "Tree"]

NodeId = Hashable

# marks the end of a node's children on the term renderer's stack
_CLOSE = object()


class Tree:
    """An ordered, labelled, rooted tree (possibly empty).

    Construction normally goes through :meth:`Tree.build`,
    :meth:`Tree.leaf`, :meth:`Tree.empty`, or the term-notation parser in
    :mod:`repro.xmltree.term`. The raw constructor accepts the internal
    representation and validates it.

    Parameters
    ----------
    root:
        The root node identifier, or ``None`` for the empty tree.
    labels:
        Mapping from node identifier to label.
    children:
        Mapping from node identifier to its sequence of children. Nodes
        without an entry are leaves.
    """

    # ``_xml`` holds the served XML rendering once
    # :func:`~repro.xmltree.xmlio.tree_to_xml` has written it, and
    # ``_nop`` the tree's all-``Nop`` script text that sparse edit
    # scripts parse against and splice into (see
    # :mod:`repro.editing.script`); neither is set by a constructor, and
    # an unset slot reads as "not yet"
    __slots__ = (
        "_root", "_labels", "_children", "_parents", "_sizes", "_suffixes",
        "_xml", "_nop",
    )

    def __init__(
        self,
        root: NodeId | None,
        labels: Mapping[NodeId, str],
        children: Mapping[NodeId, Sequence[NodeId]],
        *,
        _validate: bool = True,
    ) -> None:
        self._root = root
        self._labels: dict[NodeId, str] = dict(labels)
        self._children: dict[NodeId, tuple[NodeId, ...]] = {
            node: tuple(kids) for node, kids in children.items() if kids
        }
        self._parents: dict[NodeId, NodeId] = {
            kid: node for node, kids in self._children.items() for kid in kids
        }
        self._sizes: dict[NodeId, int] | None = None
        self._suffixes: dict[str, tuple[int, int]] | None = None
        if _validate:
            self._validate()

    @classmethod
    def _from_parts(
        cls,
        root: NodeId | None,
        labels: "dict[NodeId, str]",
        children: "dict[NodeId, tuple[NodeId, ...]]",
        parents: "dict[NodeId, NodeId]",
        sizes: "dict[NodeId, int] | None" = None,
        suffixes: "dict[str, tuple[int, int]] | None" = None,
    ) -> "Tree":
        """Adopt already-consistent internal maps without copying.

        The structure-sharing constructor behind every editing helper:
        callers hand over dictionaries they will never mutate again
        (*children* must have no empty entries, *parents* must mirror
        it). Skipping the per-node copy and the parent-map rebuild is
        what makes an edit cost ``O(copy + delta)`` instead of a full
        Python-level reconstruction.
        """
        self = cls.__new__(cls)
        self._root = root
        self._labels = labels
        self._children = children
        self._parents = parents
        self._sizes = sizes
        self._suffixes = suffixes
        return self

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "Tree":
        """The empty tree (no nodes). ``In(Ins(t))`` is empty, for instance."""
        return cls(None, {}, {}, _validate=False)

    @classmethod
    def leaf(cls, label: str, node: NodeId) -> "Tree":
        """A single-node tree."""
        return cls(node, {node: label}, {}, _validate=False)

    @classmethod
    def build(cls, label: str, node: NodeId, children: Sequence["Tree"] = ()) -> "Tree":
        """Assemble a tree from a root and already-built child trees.

        Child trees must be nonempty and all node sets must be disjoint.
        """
        labels: dict[NodeId, str] = {node: label}
        child_map: dict[NodeId, tuple[NodeId, ...]] = {}
        parents: dict[NodeId, NodeId] = {}
        roots: list[NodeId] = []
        for child in children:
            if child.is_empty:
                raise TreeError("cannot attach an empty tree as a child")
            expected = len(labels) + len(child._labels)
            labels.update(child._labels)
            if len(labels) != expected:
                # Slow path, only to name the offender in the error.
                seen: set[NodeId] = {node}
                for subtree in children:
                    for nid in subtree._labels:
                        if nid in seen:
                            raise DuplicateNodeError(
                                f"node {nid!r} occurs in more than one subtree"
                            )
                        seen.add(nid)
                raise DuplicateNodeError(
                    "subtrees share node identifiers"
                )  # pragma: no cover - the replay above always raises
            child_map.update(child._children)
            parents.update(child._parents)
            parents[child.root] = node
            roots.append(child.root)
        if roots:
            child_map[node] = tuple(roots)
        return cls._from_parts(node, labels, child_map, parents)

    def _validate(self) -> None:
        if self._root is None:
            if self._labels or self._children:
                raise TreeError("empty tree must have no labels or children")
            return
        if self._root not in self._labels:
            raise TreeError(f"root {self._root!r} has no label")
        if self._root in self._parents:
            raise TreeError(f"root {self._root!r} occurs as a child")
        seen: set[NodeId] = set()
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node in seen:
                raise DuplicateNodeError(f"node {node!r} reachable twice")
            seen.add(node)
            for kid in self._children.get(node, ()):
                if kid not in self._labels:
                    raise TreeError(f"child {kid!r} has no label")
                stack.append(kid)
        if seen != set(self._labels):
            unreachable = set(self._labels) - seen
            raise TreeError(f"unreachable nodes: {sorted(map(repr, unreachable))}")
        for node, kids in self._children.items():
            if len(set(kids)) != len(kids):
                raise DuplicateNodeError(f"node {node!r} repeats a child")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self._root is None

    @property
    def root(self) -> NodeId:
        """The root node identifier. Raises on the empty tree."""
        if self._root is None:
            raise TreeError("the empty tree has no root")
        return self._root

    @property
    def size(self) -> int:
        """Number of nodes, ``|t|`` in the paper."""
        return len(self._labels)

    def subtree_sizes(self) -> Mapping[NodeId, int]:
        """Per node, the size of the subtree rooted there (read-only).

        Propagation-graph construction weighs every delete edge with the
        deleted subtree's size; the table is memoized on the tree (which
        is immutable) so serving layers reuse it across requests instead
        of re-deriving it. :class:`~repro.session.DocumentSession`
        maintains its own incrementally-advanced copy across a stream of
        updates.
        """
        if self._sizes is None:
            sizes: dict[NodeId, int] = {}
            for node in self.postorder():
                sizes[node] = 1 + sum(
                    sizes[kid] for kid in self._children.get(node, ())
                )
            self._sizes = sizes
        return MappingProxyType(self._sizes)

    def max_suffix(self, prefix: str) -> int:
        """Largest ``k`` with ``f"{prefix}{k}"`` a node identifier, ``-1`` if none.

        Matches :func:`~repro.xmltree.nodeid.max_numeric_suffix` over
        :meth:`nodes` exactly, but is memoized on the tree and *carried*
        through the structure-sharing edits (insertions update the
        maximum, deletions invalidate it only when they remove its last
        witness), so fresh-identifier generation for edit scripts does
        not rescan every identifier per request.
        """
        memo = self._suffixes
        if memo is None:
            memo = self._suffixes = {}
        entry = memo.get(prefix)
        if entry is None:
            best, count = -1, 0
            for nid in self._labels:
                suffix = _numeric_suffix(nid, prefix)
                if suffix is None:
                    continue
                if suffix > best:
                    best, count = suffix, 1
                elif suffix == best:
                    count += 1
            entry = memo[prefix] = (best, count)
        return entry[0]

    def _carry_memos(
        self,
        removed: "Sequence[NodeId]",
        inserted: "Tree | None",
        anchor: "NodeId | None",
    ) -> "tuple[dict[NodeId, int] | None, dict[str, tuple[int, int]] | None]":
        """Advance the size table and suffix index across one edit.

        *removed* are the identifiers leaving the tree (a whole former
        subtree, its root first), *inserted* the subtree joining it, and
        *anchor* the surviving parent whose ancestor path re-sums. Both
        memos are carried only when already computed — the point is to
        keep unaffected entries, never to force a computation the caller
        skipped. Returns the new ``(sizes, suffixes)`` for
        :meth:`_from_parts`.
        """
        sizes: "dict[NodeId, int] | None" = None
        if self._sizes is not None:
            sizes = self._sizes.copy()
            delta = 0
            if removed:
                delta -= sizes[removed[0]]
                for gone in removed:
                    del sizes[gone]
            if inserted is not None:
                inserted_sizes = inserted.subtree_sizes()
                sizes.update(inserted_sizes)
                delta += inserted_sizes[inserted.root]
            if delta:
                current = anchor
                while current is not None:
                    sizes[current] += delta
                    current = self._parents.get(current)
        suffixes = carry_suffixes(
            self._suffixes, removed, inserted._labels if inserted is not None else ()
        )
        return sizes, suffixes

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._labels

    @property
    def node_set(self) -> frozenset[NodeId]:
        """The node set ``N_t``."""
        return frozenset(self._labels)

    def label(self, node: NodeId) -> str:
        """``λ_t(node)``."""
        try:
            return self._labels[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        """The node's children, in sibling order."""
        if node not in self._labels:
            raise NodeNotFoundError(node)
        return self._children.get(node, ())

    def child_labels(self, node: NodeId) -> tuple[str, ...]:
        """The word of consecutive labels of the node's children.

        This is the word that must belong to ``L(D(λ(node)))`` for DTD
        satisfaction.
        """
        return tuple(self._labels[kid] for kid in self.children(node))

    def parent(self, node: NodeId) -> NodeId | None:
        """The parent identifier, or ``None`` for the root."""
        if node not in self._labels:
            raise NodeNotFoundError(node)
        return self._parents.get(node)

    def is_leaf(self, node: NodeId) -> bool:
        return not self.children(node)

    def index_in_parent(self, node: NodeId) -> int:
        """Zero-based position of *node* among its siblings. Root raises."""
        parent = self.parent(node)
        if parent is None:
            raise TreeError(f"root {node!r} has no siblings")
        return self._children[parent].index(node)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def nodes(self) -> Iterator[NodeId]:
        """Document-order (preorder) traversal of all node identifiers."""
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._children.get(node, ())))

    def postorder(self) -> Iterator[NodeId]:
        """Postorder traversal (children before parents)."""
        if self._root is None:
            return
        stack: list[tuple[NodeId, bool]] = [(self._root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
                continue
            stack.append((node, True))
            for kid in reversed(self._children.get(node, ())):
                stack.append((kid, False))

    def descendants(self, node: NodeId) -> Iterator[NodeId]:
        """Proper descendants of *node* (``⊑``-below, excluding itself)."""
        stack = list(self.children(node))
        while stack:
            current = stack.pop()
            yield current
            stack.extend(self._children.get(current, ()))

    def descendants_or_self(self, node: NodeId) -> Iterator[NodeId]:
        if node not in self._labels:
            raise NodeNotFoundError(node)
        yield node
        yield from self.descendants(node)

    def is_descendant(self, node: NodeId, ancestor: NodeId) -> bool:
        """Whether ``ancestor ⊑ node`` holds (proper descendant)."""
        if node not in self._labels:
            raise NodeNotFoundError(node)
        if ancestor not in self._labels:
            raise NodeNotFoundError(ancestor)
        current = self._parents.get(node)
        while current is not None:
            if current == ancestor:
                return True
            current = self._parents.get(current)
        return False

    def following_siblings(self, node: NodeId) -> tuple[NodeId, ...]:
        """All siblings after *node* (``<_t``-greater siblings)."""
        parent = self.parent(node)
        if parent is None:
            return ()
        kids = self._children[parent]
        return kids[kids.index(node) + 1:]

    def depth(self, node: NodeId) -> int:
        """Root has depth 0."""
        if node not in self._labels:
            raise NodeNotFoundError(node)
        depth = 0
        current = self._parents.get(node)
        while current is not None:
            depth += 1
            current = self._parents.get(current)
        return depth

    def height(self) -> int:
        """Length of the longest root-to-leaf path (single node: 0)."""
        if self._root is None:
            return -1
        best = 0
        stack: list[tuple[NodeId, int]] = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            for kid in self._children.get(node, ()):
                stack.append((kid, depth + 1))
        return best

    # ------------------------------------------------------------------
    # Derived trees
    # ------------------------------------------------------------------

    def subtree(self, node: NodeId) -> "Tree":
        """``t|node`` — the subtree of ``t`` rooted at *node* (ids preserved)."""
        if node not in self._labels:
            raise NodeNotFoundError(node)
        if node == self._root:
            return self
        labels: dict[NodeId, str] = {}
        child_map: dict[NodeId, tuple[NodeId, ...]] = {}
        parents: dict[NodeId, NodeId] = {}
        own_labels = self._labels
        own_children = self._children
        sizes = self._sizes
        sub_sizes: "dict[NodeId, int] | None" = {} if sizes is not None else None
        for current in self.descendants_or_self(node):
            labels[current] = own_labels[current]
            kids = own_children.get(current)
            if kids:
                child_map[current] = kids
                for kid in kids:
                    parents[kid] = current
            if sub_sizes is not None:
                sub_sizes[current] = sizes[current]  # type: ignore[index]
        return Tree._from_parts(node, labels, child_map, parents, sub_sizes)

    def relabel_nodes(self, mapping: Mapping[NodeId, NodeId]) -> "Tree":
        """Rename node identifiers through *mapping* (identity if missing)."""
        if self._root is None:
            return self

        rename = lambda node: mapping.get(node, node)  # noqa: E731

        labels = {rename(node): label for node, label in self._labels.items()}
        if len(labels) != len(self._labels):
            raise DuplicateNodeError("relabelling collapses distinct nodes")
        children = {
            rename(node): tuple(rename(kid) for kid in kids)
            for node, kids in self._children.items()
        }
        parents = {
            rename(kid): rename(node) for kid, node in self._parents.items()
        }
        sizes = None
        if self._sizes is not None:
            sizes = {rename(node): size for node, size in self._sizes.items()}
        return Tree._from_parts(rename(self._root), labels, children, parents, sizes)

    def with_fresh_ids(self, fresh: "Callable[[], NodeId] | None" = None) -> "Tree":
        """An isomorphic copy whose every node gets a fresh identifier.

        *fresh* is a zero-argument callable producing identifiers (e.g.
        ``NodeIds(...).fresh``); by default a private counter is used.
        """
        if fresh is None:
            counter = iter(range(self.size))
            mapping = {node: f"f{next(counter)}" for node in self.nodes()}
        else:
            mapping = {node: fresh() for node in self.nodes()}
        return self.relabel_nodes(mapping)

    def _strip(
        self, node: NodeId
    ) -> "tuple[list[NodeId], dict[NodeId, str], dict[NodeId, tuple[NodeId, ...]], dict[NodeId, NodeId]]":
        """Copy the node maps with ``t|node`` removed (copy-on-write).

        The maps are C-speed copies of this tree's, patched by deleting
        the removed region — every untouched entry is shared work, not
        re-derived. The parent's child list is *not* adjusted here (the
        callers splice differently).
        """
        removed = list(self.descendants_or_self(node))
        labels = self._labels.copy()
        children = self._children.copy()
        parents = self._parents.copy()
        for gone in removed:
            del labels[gone]
            children.pop(gone, None)
            parents.pop(gone, None)
        return removed, labels, children, parents

    def _check_disjoint(self, incoming: "Tree", labels: "dict[NodeId, str]") -> None:
        for nid in incoming._labels:
            if nid in labels:
                raise DuplicateNodeError(f"node {nid!r} already present")

    def replace_subtree(self, node: NodeId, replacement: "Tree") -> "Tree":
        """Replace ``t|node`` by *replacement* (which must reuse no id of the rest)."""
        if node not in self._labels:
            raise NodeNotFoundError(node)
        if node == self._root:
            return replacement
        if replacement.is_empty:
            return self.delete_subtree(node)
        removed, labels, children, parents = self._strip(node)
        self._check_disjoint(replacement, labels)
        labels.update(replacement._labels)
        children.update(replacement._children)
        parents.update(replacement._parents)
        parent = self._parents[node]
        parents[replacement.root] = parent
        children[parent] = tuple(
            replacement.root if kid == node else kid
            for kid in self._children[parent]
        )
        sizes, suffixes = self._carry_memos(removed, replacement, parent)
        return Tree._from_parts(
            self._root, labels, children, parents, sizes, suffixes
        )

    def delete_subtree(self, node: NodeId) -> "Tree":
        """Remove ``t|node`` entirely. Deleting the root yields the empty tree."""
        if node not in self._labels:
            raise NodeNotFoundError(node)
        if node == self._root:
            return Tree.empty()
        removed, labels, children, parents = self._strip(node)
        parent = self._parents[node]
        remaining = tuple(kid for kid in self._children[parent] if kid != node)
        if remaining:
            children[parent] = remaining
        else:
            children.pop(parent, None)
        sizes, suffixes = self._carry_memos(removed, None, parent)
        return Tree._from_parts(
            self._root, labels, children, parents, sizes, suffixes
        )

    def insert_subtree(self, parent: NodeId, index: int, subtree: "Tree") -> "Tree":
        """Insert *subtree* as the ``index``-th child of *parent*."""
        if parent not in self._labels:
            raise NodeNotFoundError(parent)
        if subtree.is_empty:
            return self
        kids = list(self._children.get(parent, ()))
        if not 0 <= index <= len(kids):
            raise TreeError(
                f"index {index} out of range for {len(kids)} children of {parent!r}"
            )
        labels = self._labels.copy()
        self._check_disjoint(subtree, labels)
        labels.update(subtree._labels)
        children = self._children.copy()
        children.update(subtree._children)
        parents = self._parents.copy()
        parents.update(subtree._parents)
        parents[subtree.root] = parent
        kids.insert(index, subtree.root)
        children[parent] = tuple(kids)
        sizes, suffixes = self._carry_memos((), subtree, parent)
        return Tree._from_parts(
            self._root, labels, children, parents, sizes, suffixes
        )

    def map_labels(self, fn: Callable[[str], str]) -> "Tree":
        """Apply *fn* to every label, keeping identifiers and shape.

        The child/parent maps, size table, and suffix index are shared
        with this tree outright — relabelling touches none of them.
        """
        labels = {node: fn(label) for node, label in self._labels.items()}
        return Tree._from_parts(
            self._root,
            labels,
            self._children,
            self._parents,
            self._sizes,
            self._suffixes,
        )

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Identity-aware equality: same node set, labels, and relations."""
        if not isinstance(other, Tree):
            return NotImplemented
        return self is other or (
            self._root == other._root
            and self._labels == other._labels
            and self._children == other._children
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._root,
                frozenset(self._labels.items()),
                frozenset(self._children.items()),
            )
        )

    def shape(self) -> tuple:
        """A canonical identifier-free representation (label, child shapes)."""
        if self._root is None:
            return ()

        out: dict[NodeId, tuple] = {}
        for node in self.postorder():
            kids = self._children.get(node, ())
            out[node] = (self._labels[node], tuple(out[kid] for kid in kids))
        return out[self._root]

    def isomorphic(self, other: "Tree") -> bool:
        """Shape equality, ignoring node identifiers.

        For ordered labelled trees the isomorphism, when it exists, is
        unique; see :meth:`isomorphism`.
        """
        if self.size != other.size:
            return False
        return self.shape() == other.shape()

    def isomorphism(self, other: "Tree") -> dict[NodeId, NodeId] | None:
        """The unique order-preserving isomorphism onto *other*, if any.

        Returns a mapping from this tree's identifiers to *other*'s, or
        ``None`` when the trees differ in shape.
        """
        if self.is_empty and other.is_empty:
            return {}
        if self.is_empty or other.is_empty:
            return None
        mapping: dict[NodeId, NodeId] = {}
        stack = [(self._root, other._root)]
        while stack:
            mine, theirs = stack.pop()
            if self._labels[mine] != other._labels[theirs]:
                return None
            my_kids = self._children.get(mine, ())
            their_kids = other._children.get(theirs, ())
            if len(my_kids) != len(their_kids):
                return None
            mapping[mine] = theirs
            stack.extend(zip(my_kids, their_kids))
        return mapping

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def to_term(self, with_ids: bool = True) -> str:
        """Term notation, e.g. ``r#n0(a#n1, b#n2)`` (or ``r(a, b)``)."""
        return "".join(self._render(self._labels, with_ids))

    def _render(
        self,
        texts: Mapping[NodeId, str],
        with_ids: bool,
        cut: "Container[NodeId]" = (),
    ) -> "list[str]":
        """Term notation with ``texts[node]`` written for each label.

        The text comes back in pieces split at the subtrees rooted at
        *cut* nodes, which are left out: one more piece than cut nodes in
        the tree, so ``"".join`` of the pieces with each cut subtree's own
        term notation in its gap is the whole tree's term (term notation
        is compositional; the ``", "`` before a cut subtree stays in the
        piece ahead of it). With nothing cut, the single piece is the
        whole term.

        One iterative preorder pass, so the depth of the tree is not
        limited by the interpreter's recursion limit.
        """
        if self._root is None:
            return ["()"]
        pieces: list[str] = []
        out: list[str] = []
        stack: list = [self._root]
        first = True  # no ", " before the root or a first child
        while stack:
            node = stack.pop()
            if node is _CLOSE:
                out.append(")")
                continue
            if node in cut:
                if not first:
                    out.append(", ")
                pieces.append("".join(out))
                out = []
                first = False
                continue
            head = f"{texts[node]}#{node}" if with_ids else texts[node]
            out.append(head if first else ", " + head)
            kids = self._children.get(node)
            first = bool(kids)
            if kids:
                out.append("(")
                stack.append(_CLOSE)
                stack.extend(reversed(kids))
        pieces.append("".join(out))
        return pieces

    def pretty(self, with_ids: bool = True, indent: str = "  ") -> str:
        """A multi-line ASCII rendering, one node per line."""
        if self._root is None:
            return "(empty tree)"
        lines: list[str] = []
        stack: list[tuple[NodeId, int]] = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            label = self._labels[node]
            text = f"{label}#{node}" if with_ids else label
            lines.append(indent * depth + text)
            for kid in reversed(self._children.get(node, ())):
                stack.append((kid, depth + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        if self._root is None:
            return "Tree.empty()"
        term = self.to_term()
        if len(term) > 60:
            term = term[:57] + "..."
        return f"Tree({term})"


def carry_suffixes(
    memo: "dict[str, tuple[int, int]] | None",
    removed: "Iterable[NodeId]",
    inserted: "Iterable[NodeId]",
) -> "dict[str, tuple[int, int]] | None":
    """Advance a :meth:`Tree.max_suffix` memo across one edit.

    *removed* are the identifiers leaving the tree and *inserted* those
    joining it. A prefix whose maximum loses its last witness is dropped,
    to be rescanned lazily.
    """
    if not memo:
        return None
    removed = list(removed)
    inserted = list(inserted)
    suffixes = {}
    for prefix, (best, count) in memo.items():
        for gone in removed:
            if _numeric_suffix(gone, prefix) == best:
                count -= 1
        if count <= 0 and best >= 0:
            continue  # last witness of the maximum left; rescan lazily
        for nid in inserted:
            suffix = _numeric_suffix(nid, prefix)
            if suffix is None:
                continue
            if suffix > best:
                best, count = suffix, 1
            elif suffix == best:
                count += 1
        suffixes[prefix] = (best, count)
    return suffixes or None
