"""Term notation for trees.

The paper denotes trees as terms over Σ when node identifiers do not
matter (e.g. ``r(b, a, c)``) and draws them with explicit identifiers
otherwise. This module supports both:

* ``parse_term("r(a, b(c))")`` assigns fresh identifiers ``n0, n1, ...``
  in document order;
* ``parse_term("r#n0(a#n1, d#n3(c#n8))")`` uses the explicit identifiers
  after ``#``.

Mixing the two styles is allowed; nodes without ``#id`` receive fresh
identifiers that avoid all explicit ones.

Labels and identifiers are words (:data:`WORD`). Parsing is one
iterative pass, a regular-expression match per node, that fills the
tree's node maps directly: linear in the text, with no depth limit.
"""

from __future__ import annotations

import re

from ..errors import TermSyntaxError
from .nodeid import NodeIds
from .tree import Tree

__all__ = ["WORD", "parse_term", "parse_forest"]

WORD = re.compile(r"[\w.\-]+")
"""A label or identifier. ``\\w`` accepts exactly the characters for which
``str.isalnum()`` holds, plus ``_``, over every code point; ``\\s`` below
accepts exactly those for which ``str.isspace()`` holds."""

# One node and the punctuation after it: label, ``#id``, an opening
# parenthesis (closed at once for ``a()``), then the closing parentheses
# and the comma that end the node.
_NODE = re.compile(
    r"\s*([\w.\-]+)(?:#([\w.\-]*))?\s*(?:(\()\s*(\))?)?((?:\s*\))*)\s*(,)?"
)
_SPACE = re.compile(r"\s*")
_EXPLICIT = re.compile(r"#([\w.\-]+)")


def _error(text: str, message: str, pos: int) -> TermSyntaxError:
    return TermSyntaxError(f"{message} at position {pos} in {text!r}")


def _parse(text: str, id_prefix: str, forest: bool) -> list[Tree]:
    fresh = None
    trees: list[Tree] = []
    # the open ancestors of the current node: (parent, its children so far)
    stack: list[tuple] = []
    parent = None
    kids: list = []
    pos = 0
    end = len(text)
    if forest and _SPACE.match(text).end() == end:
        return trees
    count = 0
    while True:
        match = _NODE.match(text, pos)
        if match is None:
            raise _error(text, "expected a label", _SPACE.match(text, pos).end())
        count += 1
        label, nid, opened, shut, closers, comma = match.groups()
        if nid is None:
            if fresh is None:
                # fresh identifiers avoid every explicit one, later ones too
                fresh = NodeIds(id_prefix, forbidden=_EXPLICIT.findall(text)).fresh
            nid = fresh()
        elif not nid:
            raise _error(text, "expected a node identifier", match.start(2))
        if parent is None:
            labels: dict = {}
            children: dict = {}
            parents: dict = {}
            trees.append(Tree._from_parts(nid, labels, children, parents))
        else:
            parents[nid] = parent
            kids.append(nid)
        labels[nid] = label
        if opened and not shut:
            if comma:
                raise _error(text, "expected a label", match.start(6))
            stack.append((parent, kids))
            parent, kids = nid, []
            pos = match.end()
            continue
        if closers:
            closes = closers.count(")")
            if closes > len(stack):
                at = match.start(5) - 1
                for _ in range(len(stack) + 1):
                    at = text.index(")", at + 1)
                raise _error(text, "trailing input", at)
            for _ in range(closes):
                children[parent] = tuple(kids)
                parent, kids = stack.pop()
        pos = match.end()
        if comma:
            if parent is None and not forest:
                raise _error(text, "trailing input", match.start(6))
            continue
        if parent is not None:
            raise _error(text, "expected ')'", pos)
        break
    if pos != end:
        raise _error(text, "trailing input", pos)
    # a repeated explicit identifier leaves a term with fewer labels than
    # nodes (a forest's trees can also share one)
    if forest or count != len(labels):
        seen: set[str] = set()
        for nid in _EXPLICIT.findall(text):
            if nid in seen:
                raise TermSyntaxError(f"duplicate node identifier {nid!r}")
            seen.add(nid)
    return trees


def parse_term(text: str, id_prefix: str = "n") -> Tree:
    """Parse term notation into a :class:`Tree`.

    Nodes without an explicit ``#id`` receive identifiers
    ``<id_prefix>0, <id_prefix>1, ...`` in document order, skipping any
    identifiers used explicitly elsewhere in the term.
    """
    return _parse(text, id_prefix, forest=False)[0]


def parse_forest(text: str, id_prefix: str = "n") -> list[Tree]:
    """Parse a comma-separated sequence of terms sharing one id namespace."""
    return _parse(text, id_prefix, forest=True)
