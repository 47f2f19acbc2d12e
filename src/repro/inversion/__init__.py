"""Inversion graphs and the view inverse operation (paper Section 3).

Public surface:

* :func:`inversion_graphs` — build ``H(D, A, t′)`` with paper weights.
* :class:`InversionGraphs` — the collection; optimal subgraphs
  (``H*``), minimal inverse size, tree construction from chosen paths.
* :func:`invert` — one (minimal) inverse of a view.
* :func:`verify_inverse` — the defining property check.
* :func:`count_min_inversions`, :func:`enumerate_min_inversions`,
  :func:`enumerate_inversions` — Theorem 1/2 capture machinery.
* :class:`InversionGraph`, :class:`IVertex`, :class:`IEdge` — the graph
  structure itself (Figure 6).

:mod:`repro.inversion.memo` sizes and inverts fragments node shape by
node shape, building each shape's graph once (the serving path).
"""

from .enumerate import (
    count_min_inversions,
    enumerate_inversions,
    enumerate_min_inversions,
)
from .graph import IEdge, InversionGraph, InversionPath, IVertex
from .invert import InversionGraphs, inversion_graphs, invert, verify_inverse
from .optimal import OptimalInversionGraph

__all__ = [
    "IVertex",
    "IEdge",
    "InversionPath",
    "InversionGraph",
    "OptimalInversionGraph",
    "InversionGraphs",
    "inversion_graphs",
    "invert",
    "verify_inverse",
    "count_min_inversions",
    "enumerate_min_inversions",
    "enumerate_inversions",
]
