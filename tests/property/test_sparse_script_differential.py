"""Sparse edit scripts against the full-tree path, byte for byte.

The served path parses each view update against the session's view
(``EditScript.parse(text, base=view)``), validates and propagates it at
its edited region, journals the spliced script text and advances every
cache from the region. The reference is the full-tree path this file
keeps: the whole-text parse, the whole-document validation, the
projections and the script assembly that copy every untouched node
(:func:`_full_project`, :func:`_full_build`), run side by side on a
second store.

Three input sets drive both: the sharding suite's workload ``FAMILIES``
streams, the edit-local suite's workloads and broken updates, and text
mutations a client can send (other spacing, identifier-less nodes,
repeated identifiers, an inserted identifier equal to one inside an
untouched subtree, hidden-identifier reuse, a stale base, a deleted or
copied untouched subtree, syntax errors). Scripts, responses, WAL
bytes, session state and errors (class and message) must be identical.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.choosers import PreferenceChooser
from repro.core.propagation_graph import EdgeKind
from repro.editing import EditLabel, EditScript, Op
from repro.editing.script import phantom_text
from repro.engine import ViewEngine
from repro.generators.updates import random_view_update
from repro.store import DocumentStore
from repro.xmltree import NodeIds, Tree

from ..sharding.test_differential import FAMILIES
from .test_edit_local_differential import _mutants, _Reference, _update, _workload

# ---------------------------------------------------------------------------
# The full-tree reference
# ---------------------------------------------------------------------------


def _full_project(tree: Tree, drop: Op) -> Tree:
    """``In``/``Out`` of a whole script tree: every kept node copied."""
    if tree.is_empty or tree.label(tree.root).op is drop:
        return Tree.empty()
    labels, children, parents = {}, {}, {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        label = tree.label(node)
        labels[node] = label.output_symbol if drop is Op.DEL else label.symbol
        kept = tuple(k for k in tree.children(node) if tree.label(k).op is not drop)
        if kept:
            children[node] = kept
            for kid in kept:
                parents[kid] = node
            stack.extend(kept)
    return Tree._from_parts(tree.root, labels, children, parents)


def _full_build(collection, chooser, fresh) -> Tree:
    """The script assembly that copies every untouched source subtree as
    ``Nop`` (recursive; the reference inputs are shallow)."""
    source = collection.source
    labels, children = {}, {}

    def copy(node, op):
        for current in source.descendants_or_self(node):
            labels[current] = EditLabel(op, source.label(current))
            if source.children(current):
                children[current] = source.children(current)
        return node

    def fragment(tree):
        for nid in tree.nodes():
            labels[nid] = EditLabel(Op.INS, tree.label(nid))
            if tree.children(nid):
                children[nid] = tree.children(nid)
        return tree.root

    def build(node):
        if collection._is_pristine(node):
            return copy(node, Op.NOP)
        kids = []
        for edge in chooser.choose(collection.optimal(node)):
            kind = edge.kind
            if kind is EdgeKind.INVISIBLE_INSERT:
                kids.append(fragment(collection.factory.build(edge.symbol, fresh)))
            elif kind in (EdgeKind.INVISIBLE_DELETE, EdgeKind.VISIBLE_DELETE):
                kids.append(copy(edge.t_child, Op.DEL))
            elif kind is EdgeKind.INVISIBLE_NOP:
                kids.append(copy(edge.t_child, Op.NOP))
            elif kind is EdgeKind.VISIBLE_INSERT:
                inverse = collection.insertions[edge.s_child].build_tree(
                    chooser.choose, fresh, optimal_only=True
                )
                kids.append(fragment(inverse))
            else:
                kids.append(build(edge.t_child))
        labels[node] = collection.update.edit_label(node)
        if kids:
            children[node] = tuple(kids)
        return node

    return Tree(build(collection.update.root), labels, children)


# ---------------------------------------------------------------------------
# Two stores, one served sparse and one through the full-tree path
# ---------------------------------------------------------------------------


def _outcome(run):
    try:
        return run()
    except Exception as error:  # the class and message must both agree
        return type(error), str(error)


class _Pair:
    """The same document in two stores: ``sparse`` parses each term
    against its session's view, ``full`` parses it whole."""

    def __init__(self, tmp_path, workload) -> None:
        self.sessions = {}
        self.wals = {}
        for side in ("sparse", "full"):
            store = DocumentStore.init(tmp_path / side)
            store.put("d", workload.source, workload.dtd, workload.annotation)
            self.sessions[side] = store.open_session("d")
            self.wals[side] = store.root / "docs" / "d" / "wal.log"
        self.engine = self.sessions["full"].engine
        self.annotation = workload.annotation
        # the caches and counters, advanced by walking every script node
        self.reference = _Reference(workload.source)

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()

    @property
    def view(self) -> Tree:
        return self.sessions["full"].view

    @property
    def source(self) -> Tree:
        return self.sessions["full"].source

    def _sparse(self, text: str):
        session = self.sessions["sparse"]
        update = EditScript.parse(text, base=session.view)
        script = session.propagate(update)
        return update, script

    def _reference(self, text: str):
        session = self.sessions["full"]
        source, view = session.source, session.view
        update = EditScript.parse(text)
        script = session.propagate(update)
        # the script the copying assembly builds for the same request
        collection = self.engine.propagation_graphs(source, update, validate=False)
        start = 1 + max(source.max_suffix("f"), update.tree.max_suffix("f"))
        reference = _full_build(collection, PreferenceChooser(), NodeIds("f", start).fresh)
        assert script.tree == reference
        assert script.to_term() == EditScript._trusted(reference).to_term()
        assert _full_project(update.tree, Op.INS) == view
        self.reference.served += 1
        self.reference.cost += script.cost
        self.reference.walk(script)
        return update, script

    def send(self, text: str):
        """Serve *text* on both sides; returns whether the sparse side
        parsed only the region. Every observable must agree."""
        sparse = _outcome(lambda: self._sparse(text))
        full = _outcome(lambda: self._reference(text))
        if isinstance(full, tuple) and isinstance(full[0], type):
            assert sparse == full, text
            parsed_sparse = None
        else:
            (s_update, s_script), (f_update, f_script) = sparse, full
            assert s_script.to_term() == f_script.to_term()
            assert s_script.tree == f_script.tree
            assert s_script.cost == f_script.cost and s_script.size == f_script.size
            assert s_update == f_update
            assert s_update.output_tree == _full_project(f_update.tree, Op.DEL)
            assert s_script.input_tree == _full_project(f_script.tree, Op.INS)
            assert s_script.output_tree == _full_project(f_script.tree, Op.DEL)
            parsed_sparse = s_update.base is not None
        self.check_state()
        return parsed_sparse

    def check_state(self) -> None:
        sparse, full = self.sessions["sparse"], self.sessions["full"]
        assert self.wals["sparse"].read_bytes() == self.wals["full"].read_bytes()
        assert sparse.last_seq == full.last_seq
        assert sparse.source == full.source
        assert sparse.view == full.view == self.annotation.view(full.source)
        assert sparse.session._sizes == full.session._sizes == dict(
            full.source.subtree_sizes()
        )
        assert sparse.session._sizes == self.reference.sizes
        assert sparse.session.fresh_suffix_max == self.reference.suffixes.max()
        assert sparse.session.stats == full.session.stats == self.reference.stats
        # the carried all-Nop texts are the renderings of the trees they sit on
        for tree in (sparse.source, sparse.view):
            cache = getattr(tree, "_nop", None)
            if cache is not None:
                assert cache.text == EditScript.phantom(tree).to_term()


# ---------------------------------------------------------------------------
# Input set 1: the FAMILIES streams
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family_index", range(len(FAMILIES)))
def test_family_streams_are_byte_identical(tmp_path, family_index):
    workload = FAMILIES[family_index]()
    rng = random.Random(7919 * family_index + 1)
    pair = _Pair(tmp_path, workload)
    try:
        parsed = []
        for _ in range(8):
            update = random_view_update(
                rng, workload.dtd, workload.annotation, pair.source,
                n_ops=rng.randint(1, 3),
            )
            parsed.append(pair.send(update.to_term()))
        # a canonical term over a term-safe view always takes the sparse parse
        assert all(parsed), parsed
    finally:
        pair.close()


# ---------------------------------------------------------------------------
# Input set 2: the edit-local workloads and their broken updates
# ---------------------------------------------------------------------------


class _Workload:
    def __init__(self, dtd, annotation, source) -> None:
        self.dtd, self.annotation, self.source = dtd, annotation, source


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_edit_local_mutations_are_byte_identical(tmp_path_factory, seed):
    from repro.dtd import view_dtd

    rng, dtd, annotation, source = _workload(seed)
    pair = _Pair(tmp_path_factory.mktemp("pair"), _Workload(dtd, annotation, source))
    try:
        vdtd = view_dtd(dtd, annotation)
        for _ in range(2):
            update = _update(rng, dtd, annotation, pair.source)
            mutants = _mutants(rng, dtd, annotation, pair.source, update, vdtd)
            for candidate in mutants.values():
                text = _outcome(candidate.to_term)
                if isinstance(text, str):
                    pair.send(text)
            pair.send(update.to_term())
    finally:
        pair.close()


# ---------------------------------------------------------------------------
# Input set 3: text mutations
# ---------------------------------------------------------------------------

_NODE_TEXT = re.compile(r"Nop\.[\w.\-]+#([\w.\-]+)")


def _subtree_text(text: str, start: int) -> str:
    """The term of the node whose head starts at *start*."""
    depth = 0
    for pos in range(start, len(text)):
        char = text[pos]
        if char == "(":
            depth += 1
        elif char == ")":
            if depth == 0:
                return text[start:pos]
            depth -= 1
            if depth == 0:
                return text[start:pos + 1]
        elif char == "," and depth == 0:
            return text[start:pos]
    return text[start:]


def _text_mutants(rng, text: str, view: Tree, source: Tree) -> "dict[str, str]":
    """Terms a client could send instead of the canonical *text*."""
    heads = [m for m in _NODE_TEXT.finditer(text) if m.start() > 0]
    deep = [m for m in heads if view.parent(m.group(1)) != view.root] or heads
    mutants = {
        "truncated": text[: rng.randint(1, len(text) - 1)],
        "garbage": text + ")",
        "bad label": text.replace("Nop.", "Zap.", 1),
    }
    if heads:
        head = rng.choice(heads)
        nid = head.group(1)
        other = rng.choice(heads).group(1)
        mutants["repeated id"] = text[: head.start(1)] + other + text[head.end(1):]
        inner = rng.choice(deep).group(1)
        mutants["insert reuses a skipped id"] = (
            text[:-1] + f", Ins.{view.label(inner)}#{inner})"
            if text.endswith(")") else text
        )
        subtree = _subtree_text(text, head.start())
        mutants["copied subtree"] = text.replace(subtree, f"{subtree}, {subtree}", 1)
        cut = text.replace(f", {subtree}", "", 1)
        mutants["dropped subtree"] = cut if cut != text else text.replace(f"{subtree}, ", "", 1)
        mutants["relabelled untouched"] = text.replace(
            head.group(0), f"Nop.zz#{nid}", 1
        )
    hidden = sorted(source.node_set - view.node_set)
    if hidden and text.endswith(")"):
        mutants["hidden reuse"] = text[:-1] + f", Ins.{source.label(hidden[0])}#{hidden[0]})"
    # last, as they may be valid (the same update, or one whose inserted
    # node is given a fresh identifier) and move the document
    if heads:
        mutants["id-less"] = text[: head.end(1) - len(nid) - 1] + text[head.end(1):]
    mutants["respaced"] = text.replace(", ", ",", 1)
    mutants["spaced"] = text.replace("(", "( ", 1)
    mutants["trailing space"] = text + " "
    return mutants


@pytest.mark.parametrize("family_index", range(len(FAMILIES)))
def test_text_mutations_are_byte_identical(tmp_path, family_index):
    workload = FAMILIES[family_index]()
    rng = random.Random(104729 * family_index + 3)
    pair = _Pair(tmp_path, workload)
    try:
        previous = None
        for _ in range(4):
            update = random_view_update(
                rng, workload.dtd, workload.annotation, pair.source,
                n_ops=rng.randint(1, 2),
            )
            text = update.to_term()
            if previous is not None:
                pair.send(previous)  # a stale base: built against an older view
            moved = False
            for kind, mutant in _text_mutants(rng, text, pair.view, pair.source).items():
                seq = pair.sessions["full"].last_seq
                parsed_sparse = pair.send(mutant)
                if kind in ("respaced", "spaced", "trailing space", "id-less"):
                    assert not parsed_sparse, kind
                if pair.sessions["full"].last_seq != seq:
                    moved = True
                    break
            if not moved:
                assert pair.send(text)
            previous = text
    finally:
        pair.close()


def test_unsafe_identifiers_keep_the_full_path(tmp_path):
    """A view whose identifiers are not term-notation words has no
    all-Nop text: every term is parsed whole."""
    from repro.generators.workloads import running_example

    workload = running_example(2)
    source = workload.source.relabel_nodes(
        {workload.source.root: "r 0"}
    )
    assert phantom_text(source) is None
    pair = _Pair(tmp_path, _Workload(workload.dtd, workload.annotation, source))
    try:
        text = EditScript.phantom(pair.view).to_term()
        assert pair.send(text) is None  # the journal refuses both sides alike
    finally:
        pair.close()


def test_unvalidated_hidden_reuse_collides_as_before():
    """Without validation, an inserted node reusing the identifier of a
    hidden node the propagation keeps (an implicit ``Nop`` subtree of the
    script) is refused exactly as a collision in the full tree is."""
    from repro.errors import DuplicateNodeError
    from repro.generators.workloads import running_example

    workload = running_example(2)
    engine = ViewEngine(workload.dtd, workload.annotation)
    session = engine.session(workload.source)
    view = session.view
    source = session.source
    # hidden inside an untouched d subtree, not a child of the root
    hidden = sorted(
        node for node in source.node_set - view.node_set
        if source.parent(node) != source.root
    )[0]
    phantom = EditScript.phantom(view).to_term()
    text = phantom[:-1] + f", Ins.a#{hidden}, Ins.d#u1(Ins.c#u2))"
    update = EditScript.parse(text, base=view)
    assert update.base is view
    collection = engine.propagation_graphs(source, update, validate=False)
    with pytest.raises(DuplicateNodeError):
        _full_build(collection, PreferenceChooser(), NodeIds("f", 0).fresh)
    with pytest.raises(DuplicateNodeError, match="share node identifiers"):
        session.propagate(update, validate=False)
