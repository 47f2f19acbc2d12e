"""Composing view updates interactively.

Users of a view do not write editing scripts by hand; they perform a
sequence of subtree deletions and insertions on the view they see. The
:class:`UpdateBuilder` records such a sequence against a starting view
and emits the single combined :class:`EditScript` whose input is the
original view — the shape the propagation machinery consumes.

Semantics of combining operations:

* deleting a previously *inserted* subtree cancels the insertion (the
  nodes never existed, so they vanish from the script);
* deleting an original subtree marks its surviving nodes ``Del`` and
  cancels any insertions inside it;
* inserting inside a previously inserted subtree simply grows it;
* inserting inside a deleted subtree is an error;
* the root cannot be deleted (scripts are trees: the root of a view
  update is necessarily a phantom node).

Insertion positions count *output* children (deleted children are
invisible to the user); :meth:`UpdateBuilder.insert_after` /
:meth:`insert_before` give exact control relative to any sibling,
including deleted ones — the interleaving of inserted and deleted
siblings is part of the script and changes which propagations exist.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import InvalidScriptError, NodeNotFoundError
from ..xmltree import NodeId, Tree
from .ops import EditLabel, Op
from .script import EditScript

__all__ = ["UpdateBuilder"]


class UpdateBuilder:
    """Accumulates subtree insertions/deletions over a view tree.

    Parameters
    ----------
    view:
        The tree the user sees (``A(t)``); node identifiers are kept.
    forbidden_ids:
        Extra identifiers that inserted nodes must avoid. The formal
        definition of a view update requires fresh node identifiers to
        avoid *hidden* source nodes too; the view user cannot know them,
        so the document owner may pass them here (or rely on
        :func:`repro.core.validate_view_update` to reject collisions).
    """

    def __init__(self, view: Tree, forbidden_ids: Iterable[NodeId] = ()) -> None:
        if view.is_empty:
            raise InvalidScriptError("cannot build an update over an empty view")
        self._root: NodeId = view.root
        self._ops: dict[NodeId, Op] = {}
        self._symbols: dict[NodeId, str] = {}
        self._targets: dict[NodeId, str] = {}  # rename targets (Op.REN only)
        self._children: dict[NodeId, list[NodeId]] = {}
        self._parent: dict[NodeId, NodeId] = {}
        for node in view.nodes():
            self._ops[node] = Op.NOP
            self._symbols[node] = view.label(node)
            self._children[node] = list(view.children(node))
            for kid in view.children(node):
                self._parent[kid] = node
        self._forbidden: set[NodeId] = set(view.nodes()) | set(forbidden_ids)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _require(self, node: NodeId) -> None:
        if node not in self._ops:
            raise NodeNotFoundError(node)

    def op(self, node: NodeId) -> Op:
        self._require(node)
        return self._ops[node]

    def alive(self, node: NodeId) -> bool:
        """Whether *node* is part of the current output."""
        self._require(node)
        return self._ops[node] is not Op.DEL

    def symbol(self, node: NodeId) -> str:
        """The Σ-label of a script node (input side for renamed nodes)."""
        self._require(node)
        return self._symbols[node]

    def output_symbol(self, node: NodeId) -> str:
        """The label the node will carry in the output."""
        self._require(node)
        return self._targets.get(node, self._symbols[node])

    def parent(self, node: NodeId) -> NodeId | None:
        """The script parent of *node* (``None`` for the root)."""
        self._require(node)
        return self._parent.get(node)

    def live_nodes(self) -> list[NodeId]:
        """All nodes of the current output, in document order."""
        order: list[NodeId] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            order.append(node)
            for kid in reversed(self.output_children(node)):
                stack.append(kid)
        return order

    def output_children(self, node: NodeId) -> tuple[NodeId, ...]:
        """The node's children as the user currently sees them."""
        self._require(node)
        return tuple(k for k in self._children[node] if self._ops[k] is not Op.DEL)

    def current_output(self) -> Tree:
        """The view as it stands after the operations so far."""
        labels: "dict[NodeId, str]" = {}
        children: "dict[NodeId, tuple[NodeId, ...]]" = {}
        parents: "dict[NodeId, NodeId]" = {}
        stack = [self._root]
        while stack:
            node = stack.pop()
            labels[node] = self.output_symbol(node)
            kids = self.output_children(node)
            if kids:
                children[node] = kids
                for kid in kids:
                    parents[kid] = node
                stack.extend(reversed(kids))
        return Tree._from_parts(self._root, labels, children, parents)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def delete(self, node: NodeId) -> "UpdateBuilder":
        """Delete the subtree rooted at *node* from the view."""
        self._require(node)
        if node == self._root:
            raise InvalidScriptError("the view root cannot be deleted")
        if self._ops[node] is Op.DEL:
            raise InvalidScriptError(f"node {node!r} is already deleted")
        if self._ops[node] is Op.INS:
            self._discard(node)
            return self
        self._mark_deleted(node)
        return self

    def _mark_deleted(self, node: NodeId) -> None:
        stack = [node]
        while stack:
            current = stack.pop()
            self._ops[current] = Op.DEL
            self._targets.pop(current, None)  # a deleted rename is just a deletion
            for kid in list(self._children[current]):
                if self._ops[kid] is Op.INS:
                    self._discard(kid)
                else:
                    stack.append(kid)

    def _discard(self, node: NodeId) -> None:
        """Remove an inserted subtree from the script entirely."""
        parent = self._parent[node]
        self._children[parent].remove(node)
        stack = [node]
        while stack:
            current = stack.pop()
            stack.extend(self._children.pop(current, ()))
            self._ops.pop(current, None)
            self._symbols.pop(current, None)
            self._targets.pop(current, None)
            self._parent.pop(current, None)
            # identifier stays forbidden: it has been seen in this session

    def _check_new_ids(self, tree: Tree) -> None:
        clashes = [nid for nid in tree.nodes() if nid in self._forbidden]
        if clashes:
            raise InvalidScriptError(
                f"inserted tree reuses identifiers {clashes[:5]!r}"
            )

    def _attach(self, parent: NodeId, full_index: int, tree: Tree) -> None:
        self._check_new_ids(tree)
        self._children[parent].insert(full_index, tree.root)
        self._parent[tree.root] = parent
        for node in tree.nodes():
            self._ops[node] = Op.INS
            self._symbols[node] = tree.label(node)
            self._children[node] = list(tree.children(node))
            self._forbidden.add(node)
            for kid in tree.children(node):
                self._parent[kid] = node

    def insert(self, parent: NodeId, tree: Tree, index: int | None = None) -> "UpdateBuilder":
        """Insert *tree* as a child of *parent* at output position *index*.

        *index* counts the children the user currently sees (defaults to
        the end). Relative to invisible deleted siblings the new subtree
        is attached immediately after its visible predecessor.
        """
        self._require(parent)
        if tree.is_empty:
            return self
        if not self.alive(parent):
            raise InvalidScriptError(f"cannot insert under deleted node {parent!r}")
        visible = self.output_children(parent)
        if index is None:
            index = len(visible)
        if not 0 <= index <= len(visible):
            raise InvalidScriptError(
                f"output index {index} out of range (0..{len(visible)})"
            )
        if index == 0:
            full_index = 0
        else:
            predecessor = visible[index - 1]
            full_index = self._children[parent].index(predecessor) + 1
        self._attach(parent, full_index, tree)
        return self

    def insert_after(self, sibling: NodeId, tree: Tree) -> "UpdateBuilder":
        """Insert *tree* immediately after *sibling* in the script order.

        Unlike :meth:`insert`, the anchor may be a deleted node, which
        places the insertion in a different deleted/inserted interleaving
        (a genuinely different view update).
        """
        self._require(sibling)
        parent = self._parent.get(sibling)
        if parent is None:
            raise InvalidScriptError("cannot insert after the root")
        self._attach(parent, self._children[parent].index(sibling) + 1, tree)
        return self

    def insert_before(self, sibling: NodeId, tree: Tree) -> "UpdateBuilder":
        """Insert *tree* immediately before *sibling* in the script order."""
        self._require(sibling)
        parent = self._parent.get(sibling)
        if parent is None:
            raise InvalidScriptError("cannot insert before the root")
        self._attach(parent, self._children[parent].index(sibling), tree)
        return self

    def rename(self, node: NodeId, new_label: str) -> "UpdateBuilder":
        """Rename a node (the Section 7 extension), keeping its subtree.

        Renaming an *inserted* node simply relabels it; renaming an
        original node records a ``Ren`` operation (cost 1). Renaming back
        to the original label cancels the operation.
        """
        self._require(node)
        if not self.alive(node):
            raise InvalidScriptError(f"cannot rename deleted node {node!r}")
        if self._ops[node] is Op.INS:
            self._symbols[node] = new_label
            return self
        if new_label == self._symbols[node]:
            self._ops[node] = Op.NOP
            self._targets.pop(node, None)
            return self
        self._ops[node] = Op.REN
        self._targets[node] = new_label
        return self

    def replace(self, node: NodeId, tree: Tree) -> "UpdateBuilder":
        """Delete *node*'s subtree and insert *tree* in its place."""
        self._require(node)
        anchor_parent = self._parent.get(node)
        if anchor_parent is None:
            raise InvalidScriptError("the view root cannot be replaced")
        was_inserted = self._ops[node] is Op.INS
        index = self._children[anchor_parent].index(node)
        self.delete(node)
        if was_inserted:
            self._attach(anchor_parent, index, tree)
        else:
            self.insert_after(node, tree)
        return self

    # ------------------------------------------------------------------
    # Result
    # ------------------------------------------------------------------

    def script(self) -> EditScript:
        """The combined editing script (input = the original view).

        One iterative pass over the recorded nodes, filling the script's
        node maps directly: no recursion limit on the view's depth.
        """
        labels: "dict[NodeId, EditLabel]" = {}
        children: "dict[NodeId, tuple[NodeId, ...]]" = {}
        parents: "dict[NodeId, NodeId]" = {}
        stack = [self._root]
        while stack:
            node = stack.pop()
            labels[node] = EditLabel(
                self._ops[node], self._symbols[node], self._targets.get(node)
            )
            kids = self._children[node]
            if kids:
                children[node] = tuple(kids)
                for kid in kids:
                    parents[kid] = node
                stack.extend(reversed(kids))
        return EditScript(Tree._from_parts(self._root, labels, children, parents))

    def __repr__(self) -> str:
        dels = sum(1 for op in self._ops.values() if op is Op.DEL)
        inss = sum(1 for op in self._ops.values() if op is Op.INS)
        return f"UpdateBuilder(root={self._root!r}, +{inss}/-{dels})"
