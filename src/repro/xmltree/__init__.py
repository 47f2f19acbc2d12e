"""Ordered labelled trees with node identifiers (paper Section 2).

Public surface:

* :class:`Tree` — the tree structure; identity-aware equality and
  isomorphism, subtrees, traversals, structural editing helpers.
* :func:`parse_term` / :func:`parse_forest` — term notation
  ``r#n0(a#n1, ...)``.
* :class:`NodeIds` — fresh identifier generation.
* :func:`tree_from_xml` / :func:`tree_to_xml` — XML round-trip
  (:func:`has_cached_xml`: whether a tree's served XML is stored).
"""

from .nodeid import NodeIds, max_numeric_suffix
from .term import parse_forest, parse_term
from .tree import NodeId, Tree
from .xmlio import (
    has_cached_xml,
    tree_from_element,
    tree_from_xml,
    tree_to_element,
    tree_to_xml,
)

__all__ = [
    "Tree",
    "NodeId",
    "NodeIds",
    "max_numeric_suffix",
    "parse_term",
    "parse_forest",
    "tree_from_xml",
    "tree_to_xml",
    "tree_from_element",
    "tree_to_element",
    "has_cached_xml",
]
