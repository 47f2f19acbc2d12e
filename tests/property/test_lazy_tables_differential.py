"""The per-label tables against their eager reference.

A compiled engine derives a label's visibility rows and its view-DTD
rule on the label's first lookup (``ViewEngine.hidden_table``,
``visible_table``, ``view_dtd``). The reference here builds every row up
front, from ``Annotation.visible`` and ``erase_hidden``, and the view
DTD as an eager ``DTD(rules, check=False)``. For every label the rows
and the rule's automaton must be equal, looked up in a random order,
and the rule's printed regex must have the automaton's language; the
whole-DTD readers (``describe()``, ``size``, ``repr``, ``rules()``,
``satisfiable_symbols()``) of a view DTD nothing was looked up in must
equal the eager DTD's, whose ``describe()`` prints each source regex
with its hidden symbols erased; an unknown label raises as the eager
tables do.
Inputs: the random schemas of the sweep differential (a third of them
the renaming schema) and every workload family.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ViewEngine
from repro.automata import glushkov
from repro.dtd import DTD, erase_hidden, view_dtd
from repro.errors import UnknownLabelError
from repro.generators.workloads import (
    catalog,
    deep_document,
    hospital,
    huge_document,
    positional,
    running_example,
    wide_schema,
)

from .test_edit_local_differential import _workload

FAMILIES = {
    "running_example": lambda: running_example(2),
    "wide_schema(8)": lambda: wide_schema(8),
    "wide_schema(40)": lambda: wide_schema(40),
    "hospital": lambda: hospital(4),
    "catalog": lambda: catalog(4),
    "positional": lambda: positional(4),
    "huge_document": lambda: huge_document(200),
    "deep_document": lambda: deep_document(4),
}


def _automaton(nfa):
    return (
        nfa.initial,
        nfa.states,
        nfa.finals,
        nfa.alphabet,
        sorted(nfa.transitions(), key=repr),
    )


def _check(dtd, annotation, rng):
    alphabet = dtd.sorted_alphabet
    visible = {
        parent: frozenset(y for y in alphabet if annotation.visible(parent, y))
        for parent in alphabet
    }
    hidden = {
        parent: tuple(y for y in alphabet if y not in visible[parent])
        for parent in alphabet
    }
    eager = DTD(
        {symbol: erase_hidden(dtd.automaton(symbol), visible[symbol]) for symbol in alphabet},
        alphabet=dtd.alphabet,
        check=False,
    )
    printed = DTD(
        {symbol: erase_hidden(dtd.rule_regex(symbol), visible[symbol]) for symbol in alphabet},
        alphabet=dtd.alphabet,
        check=False,
    )

    engine = ViewEngine(dtd, annotation)
    order = list(alphabet)
    rng.shuffle(order)
    for label in order:
        assert engine.hidden_table[label] == hidden[label]
        assert engine.visible_table[label] == visible[label]
        assert _automaton(engine.view_dtd.automaton(label)) == _automaton(eager.automaton(label))
        rule = glushkov(engine.view_dtd.rule_regex(label), dtd.alphabet)
        assert rule.equivalent(eager.automaton(label))
    assert dict(engine.hidden_table) == hidden
    assert dict(engine.visible_table) == visible

    for lazy in (lambda: ViewEngine(dtd, annotation).view_dtd, lambda: view_dtd(dtd, annotation)):
        assert lazy().describe() == printed.describe()
        assert lazy().size == eager.size
        assert repr(lazy()) == repr(eager)
        assert lazy().satisfiable_symbols() == eager.satisfiable_symbols()
        assert [
            (symbol, _automaton(model)) for symbol, model in lazy().rules()
        ] == [(symbol, _automaton(model)) for symbol, model in eager.rules()]

    unknown = "no-such-label"
    assert unknown not in dtd.alphabet
    for table in (engine.hidden_table, engine.visible_table):
        with pytest.raises(KeyError):
            table[unknown]
        assert unknown not in table
    with pytest.raises(UnknownLabelError):
        engine.view_dtd.automaton(unknown)
    with pytest.raises(UnknownLabelError):
        eager.automaton(unknown)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10**6))
def test_random_schemas_match_the_eager_tables(seed):
    rng, dtd, annotation, _ = _workload(seed)
    _check(dtd, annotation, rng)


@pytest.mark.parametrize("family", FAMILIES)
def test_workload_families_match_the_eager_tables(family):
    workload = FAMILIES[family]()
    _check(workload.dtd, workload.annotation, random.Random(family))
