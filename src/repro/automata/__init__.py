"""Finite automata and content-model regular expressions (paper Section 2).

Public surface:

* :class:`NFA` — the paper's automaton model ``(Σ, Q, q0, δ, F)``.
* regex AST (:class:`Regex` and friends) and :func:`parse_regex`.
* :func:`glushkov` — position automaton; :func:`is_one_unambiguous`.
* :func:`determinize`, :func:`minimize`, :func:`run_deterministic`.
* weighted shortest words: :func:`min_word`, :func:`min_word_cost`,
  :func:`min_completion_costs`.
* :func:`nfa_to_regex` — state elimination, for displaying derived DTDs.
* :class:`WordIndex` — a balanced positional index over one children
  word, caching products of per-child summaries in a semiring.
"""

from .dfa import determinize, minimize, run_deterministic
from .elimination import nfa_to_regex
from .glushkov import glushkov, is_one_unambiguous
from .inclusion import find_counterexample, language_disjoint, language_subset
from .nfa import NFA, State, Transition
from .regex import (
    EPSILON,
    Concat,
    Epsilon,
    Optional,
    Plus,
    Regex,
    Star,
    Symbol,
    Union,
    concat,
    parse_regex,
    union,
)
from .shortest import SymbolCost, min_completion_costs, min_word, min_word_cost
from .wordindex import WordIndex

__all__ = [
    "NFA",
    "State",
    "Transition",
    "Regex",
    "Epsilon",
    "Symbol",
    "Concat",
    "Union",
    "Star",
    "Plus",
    "Optional",
    "EPSILON",
    "parse_regex",
    "concat",
    "union",
    "glushkov",
    "is_one_unambiguous",
    "determinize",
    "minimize",
    "run_deterministic",
    "nfa_to_regex",
    "language_subset",
    "language_disjoint",
    "find_counterexample",
    "SymbolCost",
    "min_word",
    "min_word_cost",
    "min_completion_costs",
    "WordIndex",
]
