"""Bridging :class:`~repro.xmltree.tree.Tree` and real XML documents.

The paper's data model is element-labelled ordered trees; attributes,
text, comments, and processing instructions are outside the model. This
module converts between that model and XML text:

* parsing keeps element structure and tag names, and drops everything
  else (a strict mode rejects documents with non-whitespace text);
* node identifiers can be carried in a designated attribute (default
  ``id``) so that documents round-trip with stable identifiers, or be
  generated fresh in document order.

Both directions are one iterative preorder pass, so neither has a
depth limit:

* :func:`tree_to_xml` writes the text from the tree's node maps, byte
  for byte what ElementTree writes for :func:`tree_to_element` (after
  ``ET.indent`` when indenting): two spaces per level, ``<a id="n1" />``
  for a leaf, identifiers escaped as ElementTree escapes attribute
  values, labels written as they are. A tree with a label that is not
  a ``str``, or one starting with ``{`` (ElementTree namespace-qualifies
  such a tag and declares ``xmlns`` prefixes), still goes through
  ElementTree, and so does an ``id_attribute`` of either kind.
* :func:`tree_from_xml` parses with ``ET.fromstring``, so XML syntax,
  entities and ``ParseError`` are ElementTree's, and converts the
  elements straight into the tree's maps.

Trees are immutable, so the served rendering (``id`` attributes,
indented) is stored on the tree the first time it is written: a second
:func:`tree_to_xml` of the same tree object returns it without
rendering (:func:`has_cached_xml` tells which).
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from itertools import repeat
from typing import IO

from ..errors import TreeError
from .nodeid import NodeIds
from .tree import NodeId, Tree

__all__ = [
    "tree_from_xml",
    "tree_to_xml",
    "tree_from_element",
    "tree_to_element",
    "has_cached_xml",
]

# the characters ElementTree escapes in an attribute value
_SPECIAL = re.compile('[&<>"\r\n\t]')


def tree_from_element(
    element: ET.Element,
    *,
    id_attribute: str | None = "id",
    id_prefix: str = "n",
    strict: bool = False,
    require_ids: bool = False,
) -> Tree:
    """Convert an ElementTree element into a :class:`Tree`.

    Parameters
    ----------
    element:
        Root element to convert.
    id_attribute:
        Attribute holding the node identifier. Elements without the
        attribute (or all elements if ``None``) get fresh identifiers in
        document order.
    id_prefix:
        Prefix for generated identifiers.
    strict:
        When true, raise :class:`TreeError` if the document contains
        non-whitespace text content (which the tree model cannot carry).
    require_ids:
        When true, every element must carry *id_attribute* explicitly —
        no identifier is ever invented. This is the identifier-exact
        round trip durable storage needs: a snapshot that lost its
        identifiers must fail to load, not silently renumber the
        document (which would desynchronise it from its edit-script
        log).
    """
    if require_ids and id_attribute is None:
        raise TreeError("require_ids needs an id_attribute to read from")
    explicit: list[str] = []
    if id_attribute is not None:
        explicit = [
            value
            for value in [elem.get(id_attribute) for elem in element.iter()]
            if value is not None
        ]
    if len(explicit) != len(set(explicit)):
        raise TreeError(f"duplicate {id_attribute!r} attributes in document")
    fresh = NodeIds(id_prefix, forbidden=explicit).fresh

    labels: dict[NodeId, str] = {}
    kids: dict[NodeId, list[NodeId]] = {}
    parents: dict[NodeId, NodeId] = {}
    root: NodeId | None = None
    # document order: each element is checked and named before anything
    # inside it or after it
    pending: list = [(element, None)]
    while pending:
        elem, parent = pending.pop()
        if strict:
            if elem.text and elem.text.strip():
                raise TreeError(
                    f"element <{elem.tag}> has text content {elem.text.strip()!r}; "
                    "the tree model is element-only"
                )
            if elem.tail and elem.tail.strip():
                raise TreeError(f"element <{elem.tag}> has tail text")
        nid: NodeId | None = None
        if id_attribute is not None:
            nid = elem.get(id_attribute)
        if nid is None:
            if require_ids:
                raise TreeError(
                    f"element <{elem.tag}> lacks the {id_attribute!r} "
                    "attribute and identifiers are required"
                )
            nid = fresh()
        labels[nid] = elem.tag
        if parent is None:
            root = nid
        else:
            parents[nid] = parent
            kids[parent].append(nid)
        if len(elem):
            kids[nid] = []
            pending.extend(zip(reversed(elem), repeat(nid)))
    children = {node: tuple(nodes) for node, nodes in kids.items()}
    return Tree._from_parts(root, labels, children, parents)


def tree_from_xml(
    source: str | IO[str],
    *,
    id_attribute: str | None = "id",
    id_prefix: str = "n",
    strict: bool = False,
    require_ids: bool = False,
) -> Tree:
    """Parse an XML string (or file-like object) into a :class:`Tree`."""
    if isinstance(source, str):
        element = ET.fromstring(source)
    else:
        element = ET.parse(source).getroot()
    return tree_from_element(
        element,
        id_attribute=id_attribute,
        id_prefix=id_prefix,
        strict=strict,
        require_ids=require_ids,
    )


def tree_to_element(tree: Tree, *, id_attribute: str | None = "id") -> ET.Element:
    """Convert a :class:`Tree` into an ElementTree element."""
    if tree.is_empty:
        raise TreeError("cannot serialise the empty tree to XML")

    def convert(node: NodeId) -> ET.Element:
        element = ET.Element(tree.label(node))
        if id_attribute is not None:
            element.set(id_attribute, str(node))
        element.extend(convert(kid) for kid in tree.children(node))
        return element

    return convert(tree.root)


def tree_to_xml(
    tree: Tree,
    *,
    id_attribute: str | None = "id",
    indent: bool = True,
) -> str:
    """Serialise a :class:`Tree` to an XML string.

    The served form (``id_attribute="id"``, indented) is rendered once
    per tree and then returned from the tree.
    """
    if tree.is_empty:
        raise TreeError("cannot serialise the empty tree to XML")
    served = indent and id_attribute == "id"
    if served:
        text = getattr(tree, "_xml", None)
        if text is not None:
            return text
    if _needs_element_tree(tree, id_attribute):
        element = tree_to_element(tree, id_attribute=id_attribute)
        if indent:
            ET.indent(element)
        text = ET.tostring(element, encoding="unicode")
    else:
        text = _render(tree, id_attribute, indent)
    if served:
        tree._xml = text
    return text


def has_cached_xml(tree: Tree) -> bool:
    """Whether ``tree_to_xml(tree)`` would return stored text, not render."""
    return getattr(tree, "_xml", None) is not None


def _needs_element_tree(tree: Tree, id_attribute: "str | None") -> bool:
    """Whether ElementTree must write *tree*: a label or the identifier
    attribute that is not a ``str``, or that starts with ``{``."""
    if id_attribute is not None and (
        not isinstance(id_attribute, str) or id_attribute[:1] == "{"
    ):
        return True
    try:
        joined = "\0".join(tree._labels.values())
    except TypeError:
        return True
    # a label holding "\0{" only costs the slower path
    return joined[:1] == "{" or "\0{" in joined


def _render(tree: Tree, id_attribute: "str | None", indent: bool) -> str:
    labels = tree._labels
    children = tree._children
    attr = quote = ""
    escape = False
    if id_attribute is not None:
        attr, quote = f' {id_attribute}="', '"'
        # one scan decides whether any identifier needs escaping
        escape = _SPECIAL.search("".join(map(str, labels))) is not None
    # every tag is written after its pad, "\n" and two spaces per level
    # when indenting; the root's leading "\n" is cut off at the end
    top = "\n" if indent else ""
    step = "  " if indent else ""
    out: list[str] = []
    write = out.append
    stack: list = [(tree._root, top)]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        node, pad = pop()
        if pad is None:  # a parent's closing tag, pad included
            write(node)
            continue
        label = labels[node]
        value = str(node) if quote else ""
        if escape:
            value = ET._escape_attrib(value)
        kids = children.get(node)
        if kids:
            write(f"{pad}<{label}{attr}{value}{quote}>")
            push((f"{pad}</{label}>", None))
            extend(zip(reversed(kids), repeat(pad + step)))
        else:
            write(f"{pad}<{label}{attr}{value}{quote} />")
    out[0] = out[0][len(top):]
    return "".join(out)
