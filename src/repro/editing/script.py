"""Editing scripts (paper Section 2).

An editing script ``S`` is a tree over ``E(Σ)`` subject to
well-formedness: all descendants of an inserting node are inserting, and
all descendants of a deleting node are deleting (only whole subtrees are
inserted/deleted). A script simultaneously encodes:

* the input tree ``In(S)`` — nodes not labelled ``Ins``;
* the output tree ``Out(S)`` — nodes not labelled ``Del``;
* the correspondence between their nodes (shared identifiers);
* the cost — the number of non-phantom nodes.

The script's node identifiers are those of the trees it edits, which is
what lets the view update problem demand *identifier-exact*
side-effect-freeness.
"""

from __future__ import annotations

from typing import Container, Iterator, Sequence

from ..errors import InvalidScriptError
from ..xmltree import NodeId, Tree, parse_term
from ..xmltree.term import WORD
from .ops import EditLabel, Op, dele, ins, nop, parse_edit_label, ren

__all__ = ["EditScript"]


class EditScript:
    """An editing script: a well-formed tree over ``E(Σ)``.

    Normally built through :class:`~repro.editing.builder.UpdateBuilder`,
    the constructors :meth:`insertion` / :meth:`deletion` /
    :meth:`phantom`, :meth:`assemble`, or :meth:`parse`.
    """

    __slots__ = ("_tree", "_input", "_output", "_cost", "_term")

    def __init__(self, tree: Tree) -> None:
        """Wrap a tree whose labels are :class:`EditLabel`; validates."""
        self._tree = tree
        self._input: Tree | None = None
        self._output: Tree | None = None
        self._cost: int | None = None
        self._term: str | None = None
        self._validate()

    @classmethod
    def _trusted(cls, tree: Tree) -> "EditScript":
        """Adopt a tree already known to be well-formed, skipping the
        ``O(|S|)`` validation walk.

        Internal constructors whose output is well-formed by
        construction (:meth:`_uniform`, :meth:`assemble` after its root
        check, :meth:`subscript`) use this; the public constructor and
        :meth:`parse` keep validating.
        """
        self = cls.__new__(cls)
        self._tree = tree
        self._input = None
        self._output = None
        self._cost = None
        self._term = None
        return self

    def _validate(self) -> None:
        labels = self._tree._labels
        children = self._tree._children
        for node in self._tree.nodes():
            label = labels[node]
            if not isinstance(label, EditLabel):
                raise InvalidScriptError(
                    f"script node {node!r} has non-edit label {label!r}"
                )
            op = label.op
            if op is Op.NOP:
                continue
            for kid in children.get(node, ()):
                kid_op = labels[kid].op
                if op is Op.INS and kid_op is not Op.INS:
                    raise InvalidScriptError(
                        f"descendant {kid!r} of inserting node {node!r} is {kid_op}"
                    )
                if op is Op.DEL and kid_op is not Op.DEL:
                    raise InvalidScriptError(
                        f"descendant {kid!r} of deleting node {node!r} is {kid_op}"
                    )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _uniform(cls, tree: Tree, op: Op) -> "EditScript":
        # uniform scripts are well-formed by construction
        return cls._trusted(tree.map_labels(lambda symbol: EditLabel(op, symbol)))

    @classmethod
    def insertion(cls, tree: Tree) -> "EditScript":
        """``Ins(t)`` — inserts *tree* wholesale: ``In`` empty, ``Out = t``."""
        return cls._uniform(tree, Op.INS)

    @classmethod
    def deletion(cls, tree: Tree) -> "EditScript":
        """``Del(t)`` — deletes *tree* wholesale: ``In = t``, ``Out`` empty."""
        return cls._uniform(tree, Op.DEL)

    @classmethod
    def phantom(cls, tree: Tree) -> "EditScript":
        """``Nop(t)`` — touches nothing: ``In = Out = t``."""
        return cls._uniform(tree, Op.NOP)

    @classmethod
    def assemble(
        cls,
        label: EditLabel,
        node: NodeId,
        children: Sequence["EditScript"] = (),
    ) -> "EditScript":
        """Build a script from a root operation and child scripts.

        The children are already-validated scripts, so well-formedness
        only needs the root/child-root operation check here — the old
        full revalidation walk made every level of a bottom-up assembly
        re-scan the entire subtree.
        """
        op = label.op
        if op is not Op.NOP and op is not Op.REN:
            for child in children:
                kid_op = child._tree.label(child._tree.root).op
                if kid_op is not op:
                    raise InvalidScriptError(
                        f"descendant {child._tree.root!r} of "
                        f"{'inserting' if op is Op.INS else 'deleting'} "
                        f"node {node!r} is {kid_op}"
                    )
        tree = Tree.build(label, node, [child._tree for child in children])
        return cls._trusted(tree)

    @classmethod
    def parse(cls, text: str, id_prefix: str = "n") -> "EditScript":
        """Parse compact term notation, e.g. ``Nop.r#n0(Del.a#n1, Ins.d#n11)``.

        The operation prefix (``Ins.``/``Del.``/``Nop.``) is split off
        each label — once per distinct label, in document order; everything
        else follows :func:`repro.xmltree.parse_term`.
        """
        raw = parse_term(text, id_prefix=id_prefix)
        words = raw._labels
        decoded = {word: parse_edit_label(word) for word in dict.fromkeys(words.values())}
        labels = dict(zip(words, map(decoded.__getitem__, words.values())))
        return cls(Tree._from_parts(raw._root, labels, raw._children, raw._parents))

    # ------------------------------------------------------------------
    # Structure access
    # ------------------------------------------------------------------

    @property
    def tree(self) -> Tree:
        """The underlying tree over ``E(Σ)``."""
        return self._tree

    @property
    def is_empty(self) -> bool:
        return self._tree.is_empty

    @property
    def root(self) -> NodeId:
        return self._tree.root

    @property
    def size(self) -> int:
        """``|S|`` — total number of script nodes."""
        return self._tree.size

    @property
    def node_set(self) -> frozenset[NodeId]:
        """``N_S``."""
        return self._tree.node_set

    def nodes(self) -> Iterator[NodeId]:
        return self._tree.nodes()

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        return self._tree.children(node)

    def edit_label(self, node: NodeId) -> EditLabel:
        """``λ_S(node) ∈ E(Σ)``."""
        return self._tree.label(node)

    def op(self, node: NodeId) -> Op:
        return self.edit_label(node).op

    def symbol(self, node: NodeId) -> str:
        """The Σ-symbol the operation applies to (the ``In``-side label)."""
        return self.edit_label(node).symbol

    def output_symbol(self, node: NodeId) -> str:
        """The label the node carries in ``Out(S)`` (differs for renames)."""
        return self.edit_label(node).output_symbol

    def is_kept(self, node: NodeId) -> bool:
        """Whether the node is in both ``In(S)`` and ``Out(S)`` (Nop or Ren)."""
        return self.edit_label(node).is_kept

    def subscript(self, node: NodeId) -> "EditScript":
        """``S|node`` — the script fragment rooted at *node*."""
        # a subtree of a well-formed script is well-formed
        return EditScript._trusted(self._tree.subtree(node))

    def nop_nodes(self) -> Iterator[NodeId]:
        """``N_Δ`` — nodes with phantom operations (document order)."""
        for node in self._tree.nodes():
            if self.op(node) is Op.NOP:
                yield node

    def kept_nodes(self) -> Iterator[NodeId]:
        """``N_Δ`` of the renaming extension: phantom *and* renamed nodes."""
        for node in self._tree.nodes():
            if self.is_kept(node):
                yield node

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def _project(self, drop: Op) -> Tree:
        """The tree of nodes whose operation is not *drop*.

        Labels come from the ``In`` side when insertions are dropped and
        from the ``Out`` side when deletions are (renamed nodes change
        label between the two).

        This is the batched applier: one iterative pass accumulating the
        node maps of the projected tree directly, instead of assembling
        a fresh tree (and merging every descendant's maps again) at each
        level of a recursion.
        """
        tree = self._tree
        if tree.is_empty:
            return Tree.empty()
        root = tree.root
        script_labels: "dict[NodeId, EditLabel]" = tree._labels
        script_children = tree._children
        if script_labels[root].op is drop:
            # well-formedness: the whole script is then uniformly `drop`
            return Tree.empty()
        output_side = drop is Op.DEL

        labels: "dict[NodeId, str]" = {}
        children: "dict[NodeId, tuple[NodeId, ...]]" = {}
        parents: "dict[NodeId, NodeId]" = {}
        stack = [root]
        while stack:
            node = stack.pop()
            label = script_labels[node]
            labels[node] = label.output_symbol if output_side else label.symbol
            kids = script_children.get(node)
            if kids:
                kept = tuple(
                    kid for kid in kids if script_labels[kid].op is not drop
                )
                if kept:
                    children[node] = kept
                    for kid in kept:
                        parents[kid] = node
                    stack.extend(kept)
        return Tree._from_parts(root, labels, children, parents)

    @property
    def input_tree(self) -> Tree:
        """``In(S)`` — the tree the script applies to."""
        if self._input is None:
            self._input = self._project(Op.INS)
        return self._input

    @property
    def output_tree(self) -> Tree:
        """``Out(S)`` — the tree the script produces."""
        if self._output is None:
            self._output = self._project(Op.DEL)
        return self._output

    @property
    def cost(self) -> int:
        """Number of non-phantom nodes (the paper's script cost)."""
        if self._cost is None:
            self._cost = sum(
                1
                for label in self._tree._labels.values()
                if label.op is not Op.NOP
            )
        return self._cost

    def content_key(self) -> str:
        """A canonical content digest of the script (see
        :meth:`repro.xmltree.Tree.content_key`); equal scripts share it."""
        return self._tree.content_key()

    def apply_to(self, tree: Tree) -> Tree:
        """``S(tree)``: require ``In(S) = tree`` and return ``Out(S)``."""
        if self.input_tree != tree:
            raise InvalidScriptError(
                "script input tree does not match the given tree"
            )
        return self.output_tree

    def is_identity(self) -> bool:
        """All operations phantom."""
        return self.cost == 0

    # ------------------------------------------------------------------
    # Comparison / rendering
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EditScript):
            return NotImplemented
        return self._tree == other._tree

    def __hash__(self) -> int:
        return hash(self._tree)

    def shape(self) -> tuple:
        """Identifier-free canonical form (for isomorphism comparisons)."""
        return self._tree.map_labels(str).shape()

    def to_term(self, with_ids: bool = True) -> str:
        """Compact term notation accepted back by :meth:`parse`.

        Each distinct label is encoded once. The text with identifiers is
        memoized (scripts are immutable), so the journal and the wire
        response of one propagation share a single render.
        """
        if with_ids and self._term is not None:
            return self._term
        labels = self._tree._labels
        encoded = {key: label.encode() for key, label in _distinct(labels).items()}
        term = "".join(self._tree._render(
            {node: encoded[id(label)] for node, label in labels.items()}, with_ids
        ))
        if with_ids:
            self._term = term
        return term

    @staticmethod
    def phantom_pieces(tree: Tree, cut: "Container[NodeId]" = ()) -> "list[str]":
        """``EditScript.phantom(tree).to_term()`` without building the
        script, split at the subtrees rooted at *cut* nodes, which are
        left out (see :meth:`repro.xmltree.Tree._render`).

        The sharding router caches these texts for the shards and the
        spine of a sharded document.
        """
        encoded = {symbol: nop(symbol).encode() for symbol in set(tree._labels.values())}
        return tree._render(
            {node: encoded[symbol] for node, symbol in tree._labels.items()}, True, cut
        )

    def check_round_trip(self) -> None:
        """Raise :class:`InvalidScriptError` unless :meth:`parse` reads
        :meth:`to_term` back as exactly this script, without parsing it.

        That holds exactly when every node identifier is a ``str`` word
        of term notation (:data:`repro.xmltree.term.WORD`) and every
        distinct label encodes to a word that decodes back to it. A label
        :meth:`EditLabel.encode` refuses raises from there, as in
        :meth:`to_term`.
        """
        tree = self._tree
        if tree.is_empty:
            raise InvalidScriptError("the empty script has no term notation")
        encoded = [(label, label.encode()) for label in _distinct(tree._labels).values()]
        for label, text in encoded:
            if WORD.fullmatch(text) is None or parse_edit_label(text) != label:
                raise InvalidScriptError(
                    f"label {label} does not encode to a term-notation word "
                    f"that decodes back to it ({text!r})"
                )
        ids = tree._labels.keys()
        try:
            joined = "".join(ids)
        except TypeError:
            joined = None
        if joined is None or not all(ids) or WORD.fullmatch(joined) is None:
            for node in tree.nodes():
                if not isinstance(node, str) or WORD.fullmatch(node) is None:
                    raise InvalidScriptError(
                        f"node identifier {node!r} is not a term-notation word"
                    )

    def pretty(self, with_ids: bool = True) -> str:
        """Multi-line rendering with ``Ins(a)``-style labels."""
        return self._tree.map_labels(str).pretty(with_ids)

    def __repr__(self) -> str:
        if self._tree.is_empty:
            return "EditScript(empty)"
        term = self.to_term()
        if len(term) > 60:
            term = term[:57] + "..."
        return f"EditScript({term})"


def _distinct(labels: "dict[NodeId, EditLabel]") -> "dict[int, EditLabel]":
    """The distinct label objects of a script by ``id()``, in first-use
    order: a handful, since engine-built and parsed scripts share label
    objects, found without hashing every label."""
    return {id(label): label for label in labels.values()}


# re-exported for convenience when assembling scripts manually
EditScript.ins = staticmethod(ins)  # type: ignore[attr-defined]
EditScript.dele = staticmethod(dele)  # type: ignore[attr-defined]
EditScript.nop = staticmethod(nop)  # type: ignore[attr-defined]
EditScript.ren = staticmethod(ren)  # type: ignore[attr-defined]
