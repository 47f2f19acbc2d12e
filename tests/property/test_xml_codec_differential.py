"""Differential suite for the XML codec and the served-view memo.

* :func:`repro.xmltree.tree_to_xml` against the ElementTree round trip
  it replaces, kept here: one ``ET.Element`` per node, ``ET.indent``,
  ``ET.tostring``. Same text, or the same error.
* :func:`repro.xmltree.tree_from_xml` against the recursive loader it
  replaces, kept here: one :meth:`Tree.build` per element. Same node
  maps in the same document order, or the same error.
* The memo: a tree renders its served text once, a session's next
  version renders its own, and a derived tree never inherits text.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ViewEngine
from repro.errors import TreeError
from repro.generators.updates import random_view_update
from repro.generators.workloads import running_example
from repro.xmltree import (
    NodeIds,
    Tree,
    has_cached_xml,
    parse_term,
    tree_from_element,
    tree_from_xml,
    tree_to_xml,
)

from .strategies import trees

# ---------------------------------------------------------------------------
# The references: ElementTree writes, recursive Tree.build reads
# ---------------------------------------------------------------------------


def reference_to_xml(tree: Tree, *, id_attribute="id", indent=True) -> str:
    if tree.is_empty:
        raise TreeError("cannot serialise the empty tree to XML")

    def convert(node) -> ET.Element:
        element = ET.Element(tree.label(node))
        if id_attribute is not None:
            element.set(id_attribute, str(node))
        element.extend(convert(kid) for kid in tree.children(node))
        return element

    element = convert(tree.root)
    if indent:
        ET.indent(element)
    return ET.tostring(element, encoding="unicode")


def reference_from_element(
    element, *, id_attribute="id", id_prefix="n", strict=False, require_ids=False
) -> Tree:
    if require_ids and id_attribute is None:
        raise TreeError("require_ids needs an id_attribute to read from")
    explicit: list = []
    if id_attribute is not None:
        stack = [element]
        while stack:
            current = stack.pop()
            value = current.get(id_attribute)
            if value is not None:
                explicit.append(value)
            stack.extend(current)
    if len(explicit) != len(set(explicit)):
        raise TreeError(f"duplicate {id_attribute!r} attributes in document")
    fresh = NodeIds(id_prefix, forbidden=explicit)

    def convert(elem) -> Tree:
        if strict and elem.text and elem.text.strip():
            raise TreeError(
                f"element <{elem.tag}> has text content {elem.text.strip()!r}; "
                "the tree model is element-only"
            )
        if strict and elem.tail and elem.tail.strip():
            raise TreeError(f"element <{elem.tag}> has tail text")
        nid = None
        if id_attribute is not None:
            nid = elem.get(id_attribute)
        if nid is None:
            if require_ids:
                raise TreeError(
                    f"element <{elem.tag}> lacks the {id_attribute!r} "
                    "attribute and identifiers are required"
                )
            nid = fresh.fresh()
        return Tree.build(elem.tag, nid, [convert(kid) for kid in elem])

    return convert(element)


def _outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``("error", class, message)``; a tree is
    compared by its root, its labels in document order and its children."""
    try:
        value = fn(*args, **kwargs)
    except Exception as error:
        return ("error", type(error), str(error))
    if isinstance(value, Tree):
        value = (value._root, list(value._labels.items()), value._children)
    return ("ok", value)


def _assert_renders_alike(tree: Tree) -> None:
    for indent in (True, False):
        for id_attribute in ("id", None, "key"):
            options = {"id_attribute": id_attribute, "indent": indent}
            expected = _outcome(reference_to_xml, tree, **options)
            assert _outcome(tree_to_xml, _fresh_copy(tree), **options) == expected


def _fresh_copy(tree: Tree) -> Tree:
    """The same tree as a new object, so no stored text answers for it."""
    if tree.is_empty:
        return tree
    return Tree._from_parts(tree._root, tree._labels, tree._children, tree._parents)


# ---------------------------------------------------------------------------
# The renderer
# ---------------------------------------------------------------------------

# identifiers ElementTree must escape, and some it must not
ODD_IDS = ["a&b", "<", ">x", 'q"', "cr\r", "nl\n", "tab\t", "&amp;", "é", "日本", "n0"]


@st.composite
def odd_trees(draw) -> Tree:
    """Small trees whose identifiers carry characters ElementTree escapes,
    are not strings at all, or are not ASCII, under non-ASCII labels."""
    ids = draw(
        st.lists(
            st.sampled_from(ODD_IDS) | st.integers(-3, 40) | st.tuples(st.integers(0, 2)),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    labels = {}
    children: dict = {}
    for index, node in enumerate(ids):
        labels[node] = draw(st.sampled_from(["a", "é", "日", "x-y", "b.c", "_"]))
        if index:
            parent = ids[draw(st.integers(0, index - 1))]
            children.setdefault(parent, []).append(node)
    return Tree(ids[0], labels, children)


class TestRendererDifferential:
    @settings(max_examples=300, deadline=None)
    @given(trees(max_depth=5))
    def test_random_trees_render_alike(self, tree):
        _assert_renders_alike(tree)

    @settings(max_examples=300, deadline=None)
    @given(odd_trees())
    def test_escaped_and_non_string_identifiers_render_alike(self, tree):
        _assert_renders_alike(tree)

    def test_single_node(self):
        _assert_renders_alike(Tree.leaf("r", "n0"))
        assert tree_to_xml(Tree.leaf("r", "n0")) == '<r id="n0" />'

    def test_indentation_and_closing_tags(self):
        tree = parse_term("r#n0(a#n1, d#n3(c#n8(b#n9)), a#n4)")
        assert tree_to_xml(tree) == (
            '<r id="n0">\n'
            '  <a id="n1" />\n'
            '  <d id="n3">\n'
            '    <c id="n8">\n'
            '      <b id="n9" />\n'
            "    </c>\n"
            "  </d>\n"
            '  <a id="n4" />\n'
            "</r>"
        )
        _assert_renders_alike(tree)

    def test_every_escaped_character(self):
        tree = Tree.build("r", 'all&<>"\r\n\t', [Tree.leaf("a", "plain")])
        assert tree_to_xml(tree, indent=False) == (
            '<r id="all&amp;&lt;&gt;&quot;&#13;&#10;&#09;"><a id="plain" /></r>'
        )
        _assert_renders_alike(tree)

    def test_namespaced_labels_keep_elementtree(self):
        tree = tree_from_xml(
            '<r xmlns="urn:x" xmlns:p="urn:p" id="n0"><p:a id="n1"/><b id="n2"/></r>'
        )
        assert tree.label("n0") == "{urn:x}r"
        _assert_renders_alike(tree)
        assert "xmlns:ns0" in tree_to_xml(tree)
        # a namespaced identifier attribute also goes through ElementTree
        plain = parse_term("r#n0(a#n1)")
        for indent in (True, False):
            options = {"id_attribute": "{urn:x}id", "indent": indent}
            assert _outcome(tree_to_xml, plain, **options) == _outcome(
                reference_to_xml, plain, **options
            )

    def test_a_label_holding_a_nul_before_a_brace_renders_alike(self):
        _assert_renders_alike(Tree.build("r", "n0", [Tree.leaf("a\0{b", "n1")]))

    def test_non_string_labels_fail_alike(self):
        for label in (5, None, ("a",)):
            tree = Tree.build("r", "n0", [Tree.leaf(label, "n1")])
            _assert_renders_alike(tree)

    def test_empty_tree_fails_alike(self):
        _assert_renders_alike(Tree.empty())

    def test_deep_chain_has_no_depth_limit(self):
        # both references fail at this depth (the writer on its nested
        # generators, the reader with RecursionError): the text is spelled out
        depth = 2000
        labels = {f"n{i}": "a" for i in range(depth)}
        children = {f"n{i}": (f"n{i + 1}",) for i in range(depth - 1)}
        chain = Tree("n0", labels, children)
        text = tree_to_xml(chain)
        opens = [f'{"  " * i}<a id="n{i}">' for i in range(depth - 1)]
        leaf = [f'{"  " * (depth - 1)}<a id="n{depth - 1}" />']
        closes = [f'{"  " * i}</a>' for i in reversed(range(depth - 1))]
        assert text == "\n".join(opens + leaf + closes)
        assert tree_from_xml(text, require_ids=True) == chain
        flat = tree_to_xml(chain, indent=False)
        assert flat == "".join(o.strip() for o in opens + leaf + closes)
        assert tree_from_xml(flat, require_ids=True) == chain

    def test_book_view_is_byte_identical(self):
        from repro.generators.workloads import huge_document

        workload = huge_document(600)
        view = workload.annotation.view(workload.source)
        for tree in (view, workload.source):
            _assert_renders_alike(tree)


# ---------------------------------------------------------------------------
# The loader
# ---------------------------------------------------------------------------

ID_POOL = ["n0", "n1", "n2", "n10", "x", "é", "a&amp;b", "m0"]
TEXTS = ["", "", "", " ", "\n  ", "t", " x ", "&amp;", "\t"]
EXTRAS = ["", "", "", "<!-- c -->", "<?pi data?>"]


@st.composite
def documents(draw, max_nodes: int = 12) -> str:
    """XML text with explicit identifiers (from a small pool, so some
    repeat) beside id-less elements, text and tails that are blank or
    not, and comments and processing instructions between elements."""
    budget = [draw(st.integers(1, max_nodes))]

    def node() -> str:
        budget[0] -= 1
        tag = draw(st.sampled_from(["a", "b", "é", "r"]))
        attributes = ""
        if draw(st.booleans()):
            attributes += f' id="{draw(st.sampled_from(ID_POOL))}"'
        if draw(st.integers(0, 3)) == 0:
            attributes += f' key="{draw(st.sampled_from(ID_POOL))}"'
        inner = draw(st.sampled_from(TEXTS))
        width = draw(st.integers(0, 3)) if budget[0] > 0 else 0
        for _ in range(width):
            if budget[0] <= 0:
                break
            inner += draw(st.sampled_from(EXTRAS)) + node() + draw(st.sampled_from(TEXTS))
        if not inner and draw(st.booleans()):
            return f"<{tag}{attributes}/>"
        return f"<{tag}{attributes}>{inner}</{tag}>"

    return draw(st.sampled_from(EXTRAS)) + node() + draw(st.sampled_from(EXTRAS))


LOADER_OPTIONS = st.fixed_dictionaries(
    {
        "id_attribute": st.sampled_from(["id", "id", "key", None]),
        "id_prefix": st.sampled_from(["n", "m"]),
        "strict": st.booleans(),
        "require_ids": st.booleans(),
    }
)


class TestLoaderDifferential:
    @settings(max_examples=600, deadline=None)
    @given(documents(), LOADER_OPTIONS)
    def test_documents_load_alike(self, text, options):
        element = ET.fromstring(text)
        assert _outcome(tree_from_element, element, **options) == _outcome(
            reference_from_element, element, **options
        ), text

    def test_fresh_identifiers_avoid_later_explicit_ones(self):
        tree = tree_from_xml('<r><a/><b id="n0"/><c id="n2"/><d/></r>')
        assert list(tree.nodes()) == ["n1", "n3", "n0", "n2", "n4"]

    def test_first_offence_in_document_order_wins(self):
        text = '<r id="a"><b>text</b><c/></r>'
        for options in (
            {"strict": True, "require_ids": True},
            {"strict": True},
            {"require_ids": True},
        ):
            element = ET.fromstring(text)
            assert _outcome(tree_from_element, element, **options) == _outcome(
                reference_from_element, element, **options
            )
        with pytest.raises(TreeError, match="lacks the 'id' attribute"):
            tree_from_xml(text, require_ids=True)
        with pytest.raises(TreeError, match="has text content 'text'"):
            tree_from_xml(text, strict=True, require_ids=True)

    def test_strict_tail(self):
        text = '<r id="a"><b id="b"/>tail<c id="c"/></r>'
        with pytest.raises(TreeError, match="<b> has tail text"):
            tree_from_xml(text, strict=True)
        element = ET.fromstring(text)
        for strict in (True, False):
            assert _outcome(tree_from_element, element, strict=strict) == _outcome(
                reference_from_element, element, strict=strict
            )

    def test_duplicate_identifiers_are_checked_first(self):
        text = '<r id="a">text<b id="a"/><c/></r>'
        with pytest.raises(TreeError, match="duplicate 'id' attributes"):
            tree_from_xml(text, strict=True, require_ids=True)

    def test_built_elements_with_comments_load_alike(self):
        root = ET.Element("r", id="n0")
        ET.SubElement(root, "a")
        root.append(ET.Comment("note"))
        root.append(ET.ProcessingInstruction("pi", "data"))
        ET.SubElement(root, "b", id="n1")
        for options in ({}, {"id_attribute": None}, {"require_ids": True}):
            assert _outcome(tree_from_element, root, **options) == _outcome(
                reference_from_element, root, **options
            )

    def test_deep_document_loads(self):
        depth = 2000
        text = "".join(f'<a id="n{i}">' for i in range(depth)) + "</a>" * depth
        tree = tree_from_xml(text, require_ids=True)
        assert tree.size == depth and tree.height() == depth - 1
        assert tree_to_xml(tree, indent=False) == text.replace(
            f'<a id="n{depth - 1}"></a>', f'<a id="n{depth - 1}" />'
        )

    @settings(max_examples=200, deadline=None)
    @given(trees(max_depth=5), st.booleans())
    def test_rendered_trees_load_back_identifier_exact(self, tree, indent):
        text = tree_to_xml(tree, indent=indent)
        assert tree_from_xml(text, require_ids=True, strict=True) == tree


# ---------------------------------------------------------------------------
# The memo
# ---------------------------------------------------------------------------


def _served(tree: Tree) -> str:
    return reference_to_xml(tree)


def _stream(workload, engine, length, seed=3):
    import random

    rng = random.Random(seed)
    session = engine.session(workload.source)
    pairs = []
    while len(pairs) < length:
        update = random_view_update(
            rng, workload.dtd, workload.annotation, session.source, n_ops=2
        )
        if update.output_tree != update.input_tree:  # the view moves
            pairs.append((update, session.propagate(update)))
    return pairs


class TestMemo:
    def test_a_tree_renders_once(self):
        tree = parse_term("r#n0(a#n1, b#n2)")
        assert not has_cached_xml(tree)
        tree_to_xml(tree, indent=False)
        tree_to_xml(tree, id_attribute="key")
        assert not has_cached_xml(tree)
        text = tree_to_xml(tree)
        assert has_cached_xml(tree)
        assert tree_to_xml(tree) is text
        # the other forms are still written fresh, never from the memo
        assert tree_to_xml(tree, indent=False) == reference_to_xml(tree, indent=False)
        assert tree_to_xml(tree, id_attribute=None) == reference_to_xml(
            tree, id_attribute=None
        )

    def test_derived_trees_render_their_own_text(self):
        tree = parse_term("r#n0(a#n1(c#n5), b#n2, a#n3)")
        tree_to_xml(tree)
        derived = [
            tree.map_labels(str.upper),
            tree.relabel_nodes({"n1": "m1"}),
            tree.replace_subtree("n1", parse_term("d#m9")),
            tree.subtree("n1"),
            tree.delete_subtree("n2"),
            tree.insert_subtree("n0", 0, Tree.leaf("e", "m8")),
        ]
        for other in derived:
            assert not has_cached_xml(other)
            assert tree_to_xml(other) == _served(other)

    def test_session_view_reads_follow_every_move(self):
        workload = running_example(4)
        engine = ViewEngine(workload.dtd, workload.annotation)
        pairs = _stream(workload, engine, 4)
        session = engine.session(workload.source)

        def read() -> str:
            text = tree_to_xml(session.view)
            assert text == _served(workload.annotation.view(session.source))
            return text

        first = read()
        assert read() is first  # an unchanged view is not rendered again
        update, _ = pairs[0]
        session.propagate(update)
        second = read()
        assert second != first
        # replay: a source script moves the session without a view update
        _, script = pairs[1]
        session.apply_source_script(script)
        third = read()
        assert third != second
        # rebase: back to the original document
        session.rebase(workload.source)
        assert read() == first

    def test_replica_refresh_serves_the_new_view(self, tmp_path):
        from repro.replication import StandbyStore, replicate
        from repro.store import DocumentStore

        workload = running_example(4)
        engine = ViewEngine(workload.dtd, workload.annotation)
        store = DocumentStore.init(tmp_path / "primary", fsync="off")
        store.put("doc", workload.source, workload.dtd, workload.annotation)
        standby = StandbyStore.init(
            tmp_path / "standby", primary_root=tmp_path / "primary"
        )
        replicate(store, standby)
        reader = standby.replica_session("doc")
        before = tree_to_xml(reader.read())
        assert tree_to_xml(reader.read()) is before
        with store.open_session("doc", engine=engine) as session:
            for update, _ in _stream(workload, engine, 2):
                session.propagate(update)
            expected = _served(session.view)
        replicate(store, standby)
        after = tree_to_xml(reader.read())
        assert after != before and after == expected
