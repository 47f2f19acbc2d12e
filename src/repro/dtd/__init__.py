"""DTDs, minimal trees, view DTDs, and EDTDs (paper Sections 2 and 5).

Public surface:

* :class:`DTD` / :class:`RootedDTD` — the paper's schema model.
* :func:`minimal_sizes`, :func:`minimal_tree`, :func:`minimal_shape`,
  :func:`count_minimal_shapes` — minimal trees satisfying a DTD.
* :func:`view_dtd` — the derived DTD recognising ``A(L(D))``, its rules
  derived per symbol on first lookup (:class:`LabelTable`).
* :func:`parse_dtd` / :func:`serialize_dtd` — ``<!ELEMENT ...>`` syntax.
* :class:`EDTD` — single-type extended DTDs and tree typings.
"""

from .dtd import DTD, LabelTable, RootedDTD, ValidationViolation
from .dtdio import parse_dtd, serialize_dtd
from .edtd import EDTD
from .insertlets import InsertletPackage, MinimalTreeFactory, TreeFactory
from .minimal import (
    count_minimal_shapes,
    minimal_shapes,
    minimal_shape,
    minimal_size,
    minimal_sizes,
    minimal_tree,
    shape_to_tree,
)
from .viewdtd import erase_hidden, view_dtd

__all__ = [
    "DTD",
    "LabelTable",
    "RootedDTD",
    "ValidationViolation",
    "TreeFactory",
    "MinimalTreeFactory",
    "InsertletPackage",
    "parse_dtd",
    "serialize_dtd",
    "EDTD",
    "minimal_sizes",
    "minimal_size",
    "minimal_shape",
    "minimal_tree",
    "count_minimal_shapes",
    "minimal_shapes",
    "shape_to_tree",
    "view_dtd",
    "erase_hidden",
]
