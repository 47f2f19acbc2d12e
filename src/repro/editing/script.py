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

**Sparse scripts.** A ``Nop`` subtree carries nothing but its
identifiers, so a script may hold only its *edited region* over a
*base* tree, the tree it applies to (``In(S) = base``): the root, every
non-``Nop`` node and every ancestor of one, each region node with its
full children list. Every other node is an implicit ``Nop`` over the
base subtree with its identifier. A script without a base is all region,
so there is one representation; :attr:`EditScript.tree` expands a sparse
script on demand, equal to the whole tree. ``In(S)`` is the base itself,
``Out(S)`` a copy-on-write patch of it, and :meth:`EditScript.to_term`
splices the region's text into the base's cached all-``Nop`` text
(:func:`phantom_text`), so a sparse script costs its region plus the
children lists it touches, not the document.

**Record text.** The write-ahead log holds :meth:`EditScript.to_record`:
the term text with each maximal run of *untouched* children (all-``Nop``
subtrees) written as one skip token ``~k``, e.g.
``Nop.r#n0(~85, Del.a#n86, ~3)``. A record costs what its script costs,
and reads back only against the tree it edits
(``EditScript.parse(text, base=tree, skips=True)``).
"""

from __future__ import annotations

import re
from itertools import accumulate, filterfalse, islice, repeat
from operator import add
from typing import Container, Iterator, Sequence

from ..errors import InvalidScriptError, NodeNotFoundError
from ..xmltree import NodeId, Tree, parse_term
from ..xmltree.nodeid import numeric_suffix
from ..xmltree.term import WORD, _error
from ..xmltree.tree import carry_suffixes
from .ops import EditLabel, Op, dele, ins, nop, parse_edit_label, ren, uniform_label

__all__ = ["EditScript", "check_record_syntax", "phantom_text"]

# one node head of canonical term text (what to_term writes): the label
# word, ``#id`` and whether children follow
_HEAD = re.compile(r"([\w.\-]+)#([\w.\-]+)(\()?")

# a skip token of record text: a run of k >= 1 untouched children
_SKIP = re.compile(r"~([1-9][0-9]*)")

# one node head or skip token of record text, and the punctuation after it
_TOKEN = re.compile(r"(?:~[1-9][0-9]*|([\w.\-]+)#[\w.\-]+(\()?)(\)*)(, )?")

# markers on the splice renderer's stack
_CLOSE = object()

_KEPT = (Op.NOP, Op.REN)


class EditScript:
    """An editing script: a well-formed tree over ``E(Σ)``.

    Normally built through :class:`~repro.editing.builder.UpdateBuilder`,
    the constructors :meth:`insertion` / :meth:`deletion` /
    :meth:`phantom`, :meth:`assemble`, or :meth:`parse`.
    """

    # ``_labels``/``_children``/``_parents`` are the region's node maps
    # (the whole tree's when ``_base`` is None); ``_tree`` is the whole
    # tree, expanded on first use for a sparse script
    __slots__ = (
        "_base", "_root", "_labels", "_children", "_parents", "_tree",
        "_input", "_output", "_cost", "_term",
    )

    def __init__(self, tree: Tree) -> None:
        """Wrap a tree whose labels are :class:`EditLabel`; validates."""
        self._adopt(tree)
        self._validate()

    def _adopt(self, tree: Tree) -> None:
        self._base: Tree | None = None
        self._tree: Tree | None = tree
        self._root = tree._root
        self._labels: "dict[NodeId, EditLabel]" = tree._labels
        self._children: "dict[NodeId, tuple[NodeId, ...]]" = tree._children
        self._parents: "dict[NodeId, NodeId]" = tree._parents
        self._input: Tree | None = None
        self._output: Tree | None = None
        self._cost: int | None = None
        self._term: str | None = None

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
        self._adopt(tree)
        return self

    @classmethod
    def _sparse(
        cls,
        base: Tree,
        root: NodeId,
        labels: "dict[NodeId, EditLabel]",
        children: "dict[NodeId, tuple[NodeId, ...]]",
        parents: "dict[NodeId, NodeId]",
    ) -> "EditScript":
        """Adopt a well-formed edited region over *base* (module doc).

        The caller guarantees ``In(S) = base``: every base node is either
        in the region at its base position (as ``Nop``, ``Ren`` or
        ``Del``) or under an implicit ``Nop`` child of a region node, and
        every ``Ins`` node is new to the base.
        """
        self = cls.__new__(cls)
        self._base = base
        self._tree = None
        self._root = root
        self._labels = labels
        self._children = children
        self._parents = parents
        self._input = base
        self._output = None
        self._cost = None
        self._term = None
        return self

    def _validate(self) -> None:
        labels = self._labels
        children = self._children
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
                kid_op = child.edit_label(child.root).op
                if kid_op is not op:
                    raise InvalidScriptError(
                        f"descendant {child.root!r} of "
                        f"{'inserting' if op is Op.INS else 'deleting'} "
                        f"node {node!r} is {kid_op}"
                    )
        tree = Tree.build(label, node, [child.tree for child in children])
        return cls._trusted(tree)

    @classmethod
    def parse(
        cls,
        text: str,
        id_prefix: str = "n",
        *,
        base: "Tree | None" = None,
        skips: bool = False,
    ) -> "EditScript":
        """Parse compact term notation, e.g. ``Nop.r#n0(Del.a#n1, Ins.d#n11)``.

        The operation prefix (``Ins.``/``Del.``/``Nop.``) is split off
        each label — once per distinct label, in document order; everything
        else follows :func:`repro.xmltree.parse_term`.

        Given the *base* tree the text edits (a view, for a view update),
        the result is a sparse script over it whenever the text can be
        proven to be one: every untouched subtree written exactly as the
        base's all-``Nop`` text (:func:`phantom_text`), which is matched,
        not parsed; every other node in canonical form with an explicit
        identifier; and ``In(S) = base``. Anything else — other spacing,
        identifier-less nodes, repeated identifiers, a stale base, syntax
        errors — is parsed whole, exactly as without *base*, so the
        script (or the error) is the same either way.

        *skips* reads record text (:meth:`to_record`) against its *base*,
        for the write-ahead log's readers: a skip token ``~k`` is the
        next *k* children of the base, untouched. Whole term text, as
        earlier builds journalled it, reads as above. Either way the
        script must apply to *base*: text that does not raises
        :class:`InvalidScriptError` (or :class:`TermSyntaxError`, when
        it is not record text at all).
        """
        if base is not None:
            script = _parse_region(text, base, skips)
            if script is not None:
                return script
        if skips and "~" in text:  # never in whole term text
            check_record_syntax(text)
            raise InvalidScriptError(
                "the record does not fit the tree it edits: a skip run, "
                "an identifier or a label differs from that tree's"
            )
        raw = parse_term(text, id_prefix=id_prefix)
        words = raw._labels
        decoded = {word: parse_edit_label(word) for word in dict.fromkeys(words.values())}
        labels = dict(zip(words, map(decoded.__getitem__, words.values())))
        script = cls(Tree._from_parts(raw._root, labels, raw._children, raw._parents))
        if skips and script.input_tree != base:
            raise InvalidScriptError("script input tree does not match the given tree")
        return script

    # ------------------------------------------------------------------
    # Structure access
    # ------------------------------------------------------------------

    @property
    def tree(self) -> Tree:
        """The underlying tree over ``E(Σ)`` (a sparse script's is
        expanded on first use and kept)."""
        if self._tree is None:
            self._tree = self._expand(self._root)
        return self._tree

    @property
    def base(self) -> "Tree | None":
        """The tree a sparse script's implicit ``Nop`` subtrees come from
        (its ``In(S)``), or ``None`` when every node is held explicitly."""
        return self._base

    def _expand(self, top: NodeId) -> Tree:
        """The whole subtree at region node *top*, implicit ``Nop``
        subtrees copied from the base."""
        base = self._base
        region = self._labels
        region_children = self._children
        base_labels = base._labels
        base_children = base._children
        labels: "dict[NodeId, EditLabel]" = {}
        children: "dict[NodeId, tuple[NodeId, ...]]" = {}
        parents: "dict[NodeId, NodeId]" = {}
        stack = [top]
        while stack:
            node = stack.pop()
            label = region.get(node)
            if label is None:
                labels[node] = uniform_label(Op.NOP, base_labels[node])
                kids = base_children.get(node)
            else:
                labels[node] = label
                kids = region_children.get(node)
            if kids:
                children[node] = kids
                for kid in kids:
                    parents[kid] = node
                stack.extend(kids)
        return Tree._from_parts(top, labels, children, parents)

    def _label(self, node: NodeId) -> "EditLabel | None":
        """``λ_S(node)``, or ``None`` when *node* is not in the script."""
        label = self._labels.get(node)
        if label is None and self._base is not None:
            symbols = self._base._labels
            if node in symbols:
                return uniform_label(Op.NOP, symbols[node])
        return label

    @property
    def is_empty(self) -> bool:
        return self._root is None

    @property
    def root(self) -> NodeId:
        if self._root is None:
            return self.tree.root  # raises: the empty tree has no root
        return self._root

    @property
    def size(self) -> int:
        """``|S|`` — total number of script nodes."""
        if self._base is None:
            return len(self._labels)
        return len(self._base._labels) + sum(
            1 for label in self._labels.values() if label.op is Op.INS
        )

    @property
    def node_set(self) -> frozenset[NodeId]:
        """``N_S``."""
        if self._base is None:
            return frozenset(self._labels)
        return frozenset(self._base._labels).union(self._labels)

    def nodes(self) -> Iterator[NodeId]:
        return self.tree.nodes()

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        if node in self._labels:
            return self._children.get(node, ())
        if self._base is not None and node in self._base._labels:
            return self._base._children.get(node, ())
        raise NodeNotFoundError(node)

    def edit_label(self, node: NodeId) -> EditLabel:
        """``λ_S(node) ∈ E(Σ)``."""
        label = self._label(node)
        if label is None:
            raise NodeNotFoundError(node)
        return label

    def max_suffix(self, prefix: str) -> int:
        """Largest ``k`` with ``f"{prefix}{k}"`` a node identifier of the
        script, ``-1`` if none (:meth:`Tree.max_suffix` of :attr:`tree`)."""
        if self._base is None:
            return self._tree.max_suffix(prefix)
        best = self._base.max_suffix(prefix)
        for node in self._labels:
            suffix = numeric_suffix(node, prefix)
            if suffix is not None and suffix > best:
                best = suffix
        return best

    def op(self, node: NodeId) -> Op:
        label = self._labels.get(node)
        if label is not None:
            return label.op
        if self._base is not None and node in self._base._labels:
            return Op.NOP
        raise NodeNotFoundError(node)

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
        if self._base is None:
            return EditScript._trusted(self._tree.subtree(node))
        if node in self._labels:
            return EditScript._trusted(self._expand(node))
        return EditScript.phantom(self._base.subtree(node))

    def nop_nodes(self) -> Iterator[NodeId]:
        """``N_Δ`` — nodes with phantom operations (document order)."""
        for node in self.tree.nodes():
            if self.op(node) is Op.NOP:
                yield node

    def kept_nodes(self) -> Iterator[NodeId]:
        """``N_Δ`` of the renaming extension: phantom *and* renamed nodes."""
        for node in self.tree.nodes():
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
        level of a recursion. A sparse script's input is its base, and
        its output the base patched at the region (:meth:`_patch`).
        """
        if self._base is not None:
            return self._base if drop is Op.INS else self._patch()
        if self._root is None:
            return Tree.empty()
        root = self._root
        script_labels = self._labels
        script_children = self._children
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

    def _patch(self) -> Tree:
        """``Out(S)`` of a sparse script: the base's node maps copied at C
        speed and patched at the region only. The base's suffix memo and
        all-``Nop`` text are carried along, so the next version starts
        warm."""
        base = self._base
        region = self._labels
        region_children = self._children
        labels = base._labels.copy()
        children = base._children.copy()
        parents = base._parents.copy()
        removed: "list[NodeId]" = []
        inserted: "list[NodeId]" = []
        for node, label in region.items():
            op = label.op
            if op is Op.DEL:
                removed.append(node)
                del labels[node]
                children.pop(node, None)
                parents.pop(node, None)
                continue
            kids = region_children.get(node)
            if op is Op.INS:
                inserted.append(node)
                labels[node] = label.symbol
                parents[node] = self._parents[node]
                if kids:
                    children[node] = kids
                continue
            if op is Op.REN:
                labels[node] = label.target
            if kids:
                deleted = {
                    kid for kid in filter(region.__contains__, kids)
                    if region[kid].op is Op.DEL
                }
                out = tuple(filterfalse(deleted.__contains__, kids)) if deleted else kids
                if out:
                    children[node] = out
                else:
                    children.pop(node, None)
        output = Tree._from_parts(
            self._root, labels, children, parents,
            suffixes=carry_suffixes(base._suffixes, removed, inserted),
        )
        cache = getattr(base, "_nop", None)
        if cache is not None:
            output._nop = self._carry_phantom(cache)
        return output

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
                for label in self._labels.values()
                if label.op is not Op.NOP
            )
        return self._cost

    def content_key(self) -> str:
        """A canonical content digest of the script (see
        :meth:`repro.xmltree.Tree.content_key`); equal scripts share it."""
        return self.tree.content_key()

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
        return self.tree == other.tree

    def __hash__(self) -> int:
        return hash(self.tree)

    def shape(self) -> tuple:
        """Identifier-free canonical form (for isomorphism comparisons)."""
        return self.tree.map_labels(str).shape()

    def to_term(self, with_ids: bool = True) -> str:
        """Compact term notation accepted back by :meth:`parse`.

        Each distinct label is encoded once. The text with identifiers is
        memoized (scripts are immutable), so the journal and the wire
        response of one propagation share a single render.
        """
        if with_ids and self._term is not None:
            return self._term
        cache = _phantom_cache(self._base) if with_ids and self._base is not None else None
        if cache is not None:
            term = "".join(self._splice(cache, out=False)[0])
        else:
            tree = self.tree
            labels = tree._labels
            encoded = {key: label.encode() for key, label in _distinct(labels).items()}
            term = "".join(tree._render(
                {node: encoded[id(label)] for node, label in labels.items()}, with_ids
            ))
        if with_ids:
            self._term = term
        return term

    def to_record(self) -> str:
        """The script's write-ahead log text: :meth:`to_term`'s, with each
        maximal run of untouched children written as one skip token
        ``~k``. :meth:`parse` reads it back against the tree the script
        applies to (``base=`` that tree, ``skips=True``).

        An untouched child is an all-``Nop`` subtree, found from the
        script's non-``Nop`` nodes, so the text depends only on the
        script: a script without a base writes what an equal sparse one
        writes. It costs the region and the children lists of its kept
        nodes.
        """
        if self._root is None:
            raise InvalidScriptError("the empty script has no term notation")
        parents = self._parents
        touched = {self._root}
        for node, label in self._labels.items():
            if label.op is not Op.NOP:
                while node not in touched:
                    touched.add(node)
                    node = parents[node]
        return "".join(self._splice(None, touched=touched)[0])

    def _splice(
        self,
        cache: "_PhantomText | None",
        *,
        out: bool = False,
        touched: "set[NodeId] | None" = None,
    ) -> "tuple[list[str], dict[NodeId, int] | None]":
        """The sparse script's term text in pieces: the region rendered,
        each implicit subtree a slice of the base's all-``Nop`` *cache*.

        With *out*, the pieces are ``Out(S)``'s all-``Nop`` text instead
        (deleted nodes left out, every kept and inserted node written
        ``Nop`` with its output label), returned with ``Out(S)``'s text
        length table: the base's, patched at the region.

        With *touched* (:meth:`to_record`, any script), only those nodes
        are written, each maximal run of other children as one skip
        token, and no *cache* is read.

        A base child's text offset is its previous sibling's plus that
        sibling's length and the ``", "`` after it, so the walk costs the
        region and the children lists of its kept nodes. Iterative: the
        depth of the tree is not limited by the recursion limit.
        """
        if touched is None:
            text, lengths = cache.text, cache.lengths
            base_labels = self._base._labels
        region = self._labels
        region_children = self._children
        new_lengths = lengths.copy() if out else None
        heads: "dict[object, str]" = {}
        pieces: "list[str]" = []
        written = 0
        stack: list = [(self._root, 0)]
        while stack:
            entry = stack.pop()
            if entry.__class__ is str:
                pieces.append(entry)
                written += len(entry)
                continue
            if entry[0] is _CLOSE:
                pieces.append(")")
                written += 1
                new_lengths[entry[1]] = written - entry[2]
                continue
            node, at = entry
            label = region.get(node)
            if label is None:  # an implicit Nop subtree: the base's text
                size = lengths[node]
                pieces.append(text[at:at + size])
                written += size
                continue
            if out:
                key = label.output_symbol
                prefix = heads.get(key)
                if prefix is None:
                    prefix = heads[key] = f"Nop.{key}"
            else:
                key = id(label)
                prefix = heads.get(key)
                if prefix is None:
                    prefix = heads[key] = label.encode()
            head = f"{prefix}#{node}"
            start = written
            pieces.append(head)
            written += len(head)
            kids = region_children.get(node)
            # the node's children in order: region children, and each run
            # of implicit ones as one slice of the base text
            entries: list = []
            if kids and touched is not None:
                done = 0
                for kid in filter(touched.__contains__, kids):
                    index = kids.index(kid, done)
                    if index > done:
                        entries.append(f"~{index - done}")
                    entries.append((kid, 0))
                    done = index + 1
                if done < len(kids):
                    entries.append(f"~{len(kids) - done}")
            elif kids:
                # the base text of a base node's children starts after
                # "Nop.<label>#<id>(" (an inserted node has none)
                if label.op is not Op.INS:
                    at += 6 + len(base_labels[node]) + len(node)
                done = 0
                for kid in filter(region.__contains__, kids):
                    index = kids.index(kid, done)
                    if index > done:
                        run = kids[done:index]
                        size = sum(map(lengths.__getitem__, run)) + 2 * len(run) - 2
                        entries.append(text[at:at + size])
                        at += size + 2
                    done = index + 1
                    op = region[kid].op
                    if op is Op.INS:
                        entries.append((kid, -1))
                        continue
                    if not (out and op is Op.DEL):
                        entries.append((kid, at))
                    at += lengths[kid] + 2
                if done < len(kids):
                    run = kids[done:]
                    size = sum(map(lengths.__getitem__, run)) + 2 * len(run) - 2
                    entries.append(text[at:at + size])
            if not entries:
                if out:
                    new_lengths[node] = written - start
                continue
            pieces.append("(")
            written += 1
            stack.append((_CLOSE, node, start) if out else ")")
            for index in range(len(entries) - 1, 0, -1):
                stack.append(entries[index])
                stack.append(", ")
            stack.append(entries[0])
        if out:
            for node, label in region.items():
                if label.op is Op.DEL:
                    del new_lengths[node]
        return pieces, new_lengths

    def _carry_phantom(self, cache: "_PhantomText") -> "_PhantomText | None":
        """``Out(S)``'s all-``Nop`` text from the base's *cache*, or
        ``None`` when a node or label the region adds is not a
        term-notation word (the output then has no such text)."""
        for node, label in self._labels.items():
            op = label.op
            if op is Op.INS:
                words = (node, label.symbol)
            elif op is Op.REN:
                words = (label.target,)
            else:
                continue
            for word in words:
                if not isinstance(word, str) or WORD.fullmatch(word) is None:
                    return None
        pieces, lengths = self._splice(cache, out=True)
        return _PhantomText("".join(pieces), lengths)

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
        if self._base is not None and self._region_round_trips():
            return
        tree = self.tree
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

    def _region_round_trips(self) -> bool:
        """The round trip of a sparse script, checked where its words can
        go wrong: the base's nodes once, by its all-``Nop`` text
        (:func:`phantom_text`, which exists only for a base whose every
        identifier and label is a word), and the region's labels and
        identifiers here. ``False`` leaves the reason to the whole check.
        """
        if _phantom_cache(self._base) is None:
            return False
        for label in _distinct(self._labels).values():
            try:
                text = label.encode()
            except InvalidScriptError:
                return False
            if WORD.fullmatch(text) is None or parse_edit_label(text) != label:
                return False
        for node in self._labels:
            if not isinstance(node, str) or WORD.fullmatch(node) is None:
                return False
        return True

    def pretty(self, with_ids: bool = True) -> str:
        """Multi-line rendering with ``Ins(a)``-style labels."""
        return self.tree.map_labels(str).pretty(with_ids)

    def __repr__(self) -> str:
        if self._root is None:
            return "EditScript(empty)"
        term = self.to_term()
        if len(term) > 60:
            term = term[:57] + "..."
        return f"EditScript({term})"


class _PhantomText:
    """A tree's all-``Nop`` script text and, per node, the length of its
    subtree's part of it: one text and one integer per node, carried from
    version to version as the size table is."""

    __slots__ = ("text", "lengths")

    def __init__(self, text: str, lengths: "dict[NodeId, int]") -> None:
        self.text = text
        self.lengths = lengths


def _phantom_cache(tree: Tree) -> "_PhantomText | None":
    """*tree*'s :class:`_PhantomText`, built once and memoized on the
    (immutable) tree; ``None`` when an identifier or label of the tree is
    not a term-notation word, so the text would not parse back."""
    try:
        return tree._nop
    except AttributeError:
        pass
    cache = None
    labels = tree._labels
    ids = labels.keys()
    try:
        words = "".join(ids) + "".join(set(labels.values()))
        safe = all(ids) and all(labels.values())
    except TypeError:
        safe = False
    if tree._root is not None and safe and WORD.fullmatch(words) is not None:
        children = tree._children
        text = "".join(tree._render({node: "Nop." + label for node, label in labels.items()}, True))
        lengths: "dict[NodeId, int]" = {}
        for node in tree.postorder():
            # "Nop.<label>#<id>", then "(", the kids joined by ", ", ")"
            size = 5 + len(labels[node]) + len(node)
            kids = children.get(node)
            if kids:
                size += 2 * len(kids) + sum(map(lengths.__getitem__, kids))
            lengths[node] = size
        cache = _PhantomText(text, lengths)
    tree._nop = cache
    return cache


def phantom_text(tree: Tree) -> "str | None":
    """``EditScript.phantom(tree).to_term()``, memoized on the tree, or
    ``None`` when the tree's identifiers or labels fall outside term
    notation.

    This is the text a sparse script over *tree* is matched against and
    spliced into. Computing it checks the tree's words once; the output
    of a sparse script over *tree* inherits both, patched at its region.
    """
    cache = _phantom_cache(tree)
    return cache.text if cache is not None else None


def _parse_region(text: str, base: Tree, skips: bool = False) -> "EditScript | None":
    """Parse *text* as a sparse script over *base*, or return ``None``
    when that cannot be proven equal to the whole-text parse (see
    :meth:`EditScript.parse`).

    One pass over the text. Each child position of a kept region node
    first tries, with *skips*, a skip token ``~k``: the next *k* base
    children, untouched and implicit. Then the base's all-``Nop`` text
    of the base children due there (:func:`_match_due`): every child of
    the longest run whose text matches exactly (followed by ``", "`` or
    ``")"``) is untouched and implicit. Anything else is read as a
    canonical node head. A non-inserted node must be the base
    child due at its position, with the base's label, and every base
    child must be consumed, so ``In(S) = base`` and no identifier can
    repeat; an inserted node must be new to the base and to the region.
    """
    cache = _phantom_cache(base)
    if cache is None:
        return None
    phantom, lengths = cache.text, cache.lengths
    base_labels = base._labels
    base_children = base._children
    labels: "dict[NodeId, EditLabel]" = {}
    children: "dict[NodeId, tuple[NodeId, ...]]" = {}
    parents: "dict[NodeId, NodeId]" = {}
    decoded: "dict[str, EditLabel]" = {}
    head = _HEAD.match
    # the open node: [id, op, kids so far, its base kids, next base kid, its text offset]
    frame: "list | None" = None
    stack: "list[list]" = []
    pos = 0
    while True:
        skipped = False
        if frame is not None and frame[1] in _KEPT and frame[4] < len(frame[3]):
            at = frame[5]
            if skips and text.startswith("~", pos):
                match = _SKIP.match(text, pos)
                if match is None:
                    return None
                kids = frame[3]
                done = frame[4] + int(match.group(1))
                if done > len(kids):
                    return None
                run = kids[frame[4]:done]
                frame[2].extend(run)
                frame[4] = done
                frame[5] = at + sum(map(lengths.__getitem__, run)) + 2 * len(run)
                pos = match.end()
                skipped = True
            else:
                count, size = _match_due(text, pos, phantom, at, lengths, frame[3], frame[4])
                if count:
                    frame[2].extend(frame[3][frame[4]:frame[4] + count])
                    frame[4] += count
                    frame[5] = at + size + 2
                    pos += size
                    skipped = True
        if not skipped:
            match = head(text, pos)
            if match is None:
                return None
            word, node, opened = match.groups()
            label = decoded.get(word)
            if label is None:
                try:
                    label = decoded[word] = parse_edit_label(word)
                except InvalidScriptError:
                    return None
            op = label.op
            if node in labels:
                return None
            at = 0
            if frame is None:
                if node != base._root or not label.is_kept:
                    return None
            else:
                parent_op = frame[1]
                if parent_op is not op and parent_op in (Op.INS, Op.DEL):
                    return None
                if op is not Op.INS:
                    kids = frame[3]
                    if kids is None or frame[4] >= len(kids) or kids[frame[4]] != node:
                        return None
                    at = frame[5]
                    frame[4] += 1
                    frame[5] = at + lengths[node] + 2
                parents[node] = frame[0]
                frame[2].append(node)
            if op is Op.INS:
                if node in base_labels:
                    return None
            elif base_labels[node] != label.symbol:
                return None
            labels[node] = label
            pos = match.end()
            if opened:
                if frame is not None:
                    stack.append(frame)
                base_kids = base_children.get(node, ()) if op is not Op.INS else None
                frame = [node, op, [], base_kids, 0, at + 6 + len(label.symbol) + len(node)]
                continue
            if op is not Op.INS and node in base_children:
                return None  # the base node has children the text leaves out
        if frame is None:
            break  # the root was a leaf
        frame, pos = _close(text, pos, frame, stack, children)
        if pos < 0:
            return None
        if frame is None:
            break
    if pos != len(text):
        return None
    return EditScript._sparse(base, base._root, labels, children, parents)


_STEPPED = 8
"""Due children compared one at a time before the run gallops: a short
run costs no more than one comparison per child."""


def _match_due(text, pos, phantom, at, lengths, kids, first) -> "tuple[int, int]":
    """The longest run of the base children ``kids[first:]`` that *text*
    writes untouched at *pos*, each exactly as the base's all-``Nop``
    text at *at* writes it: ``(count, length of their text)``.

    Each child's text is balanced and the run joins them with ``", "``,
    so a run matches exactly when every child in it does. The first
    children are compared one at a time; past :data:`_STEPPED`, the run
    is found by galloping, then bisecting, over its length, each probe
    comparing only text no earlier probe matched (:func:`_matches`).
    """
    total = len(kids) - first
    starts = [0]  # starts[c]: the offset of due child c's text
    done = 0
    while done < total:
        if done == _STEPPED:
            break
        end = starts[done] + lengths[kids[first + done]]
        if not _matches(text, pos, phantom, at, starts[done] - 2 if done else 0, end):
            return done, starts[done] - 2 if done else 0
        starts.append(end + 2)
        done += 1
    else:
        return done, starts[done] - 2
    bad = block = done
    while done < total:
        bad = min(done + block, total)
        starts.extend(islice(accumulate(
            map(add, map(lengths.__getitem__, kids[first + done:first + bad]), repeat(2)),
            initial=starts[-1],
        ), 1, None))
        if not _matches(text, pos, phantom, at, starts[done] - 2, starts[bad] - 2):
            break
        done = bad
        block *= 2
    else:
        return done, starts[done] - 2
    while bad - done > 1:
        mid = (done + bad) // 2
        if _matches(text, pos, phantom, at, starts[done] - 2, starts[mid] - 2):
            done = mid
        else:
            bad = mid
    return done, starts[done] - 2


def _matches(text: str, pos: int, phantom: str, at: int, lo: int, hi: int) -> bool:
    """Whether *text* at ``pos + lo`` writes ``phantom[at + lo:at + hi]``,
    followed by ``", "`` or ``")"``: one phantom-text comparison."""
    return (
        text.startswith(phantom[at + lo:at + hi], pos + lo)
        and text[pos + hi:pos + hi + 1] in (",", ")")
    )


def _close(text, pos, frame, stack, children):
    """After a child of *frame*: step over ``", "``, or close the nodes
    whose ``")"`` follow, popping *stack*. Returns the open node and the
    new position: ``-1`` on anything but canonical punctuation or a node
    closed before all its base children were read, ``None`` for the
    node once the root is closed."""
    while True:
        if text.startswith(", ", pos):
            return frame, pos + 2
        if not text.startswith(")", pos):
            return frame, -1
        kids = frame[3]
        if kids is not None and frame[4] != len(kids):
            return frame, -1
        children[frame[0]] = tuple(frame[2])
        pos += 1
        if not stack:
            return None, pos
        frame = stack.pop()


def check_record_syntax(text: str) -> None:
    """Raise unless *text* reads as a write-ahead log record: term text
    as :meth:`EditScript.to_term` or :meth:`EditScript.to_record` write
    it (canonical spacing, an identifier on every node, skip tokens only
    in children lists), every label an edit label.

    A syntax check, not a parse: one regular-expression match per node
    or skip token, nothing built. Raises :class:`TermSyntaxError`, or
    :class:`InvalidScriptError` for a label that is not an edit label.
    """
    depth = pos = 0
    words: "set[str]" = set()
    while True:
        match = _TOKEN.match(text, pos)
        if match is None:
            raise _error(text, "expected a node or a skip run", pos)
        word, opened, closers, comma = match.groups()
        if word is None and not depth:
            raise _error(text, "a skip run outside a children list", pos)
        if word is not None and word not in words:
            parse_edit_label(word)
            words.add(word)
        pos = match.end()
        if opened:
            if closers or comma:
                raise _error(text, "expected a child", match.start(3))
            depth += 1
            continue
        depth -= len(closers)
        if depth < 0:
            raise _error(text, "trailing input", match.start(3))
        if not comma:
            break
        if not depth:
            raise _error(text, "trailing input", match.start(4))
    if depth:
        raise _error(text, "expected ')'", pos)
    if pos != len(text):
        raise _error(text, "trailing input", pos)


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
