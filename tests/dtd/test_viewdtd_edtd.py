"""Tests for view-DTD derivation and EDTD typing."""

import sys
import threading

import pytest

from repro.automata import glushkov, parse_regex
from repro.dtd import DTD, EDTD, LabelTable, erase_hidden, view_dtd
from repro.errors import EDTDError
from repro.views import Annotation
from repro.xmltree import parse_term


@pytest.fixture
def d0() -> DTD:
    return DTD({"r": "(a,(b|c),d)*", "d": "((a|b),c)*"})


@pytest.fixture
def a0() -> Annotation:
    return Annotation.hiding(("r", "b"), ("r", "c"), ("d", "a"), ("d", "b"))


class TestEraseHidden:
    def test_middle_symbol_erased(self):
        model = glushkov(parse_regex("(a,(b|c),d)*"))
        erased = erase_hidden(model, {"a", "d"})
        assert erased.equivalent(glushkov(parse_regex("(a,d)*")))

    def test_all_hidden_gives_epsilon(self):
        model = glushkov(parse_regex("(a,b)*"))
        erased = erase_hidden(model, set())
        assert erased.accepts([])
        assert not erased.language_nonempty() or erased.accepts([])
        assert list(erased.enumerate_words(3)) == [()]

    def test_nothing_hidden_is_identity(self):
        model = glushkov(parse_regex("(a,(b|c),d)*"))
        erased = erase_hidden(model, {"a", "b", "c", "d"})
        assert erased.equivalent(model)


class TestLabelTable:
    def test_rows_are_derived_on_first_lookup_and_kept(self):
        calls = []

        def derive(symbol):
            calls.append(symbol)
            return [symbol]

        table = LabelTable(frozenset("cab"), derive)
        assert table.held == frozenset() and len(table) == 3
        assert table["b"] is table["b"] and calls == ["b"]
        assert "x" not in table and table.get("x") is None
        with pytest.raises(KeyError):
            table["x"]
        assert list(table) == ["a", "b", "c"] and calls == ["b"]
        assert dict(table) == {"a": ["a"], "b": ["b"], "c": ["c"]}
        assert table.held == frozenset("abc") and calls == ["b", "a", "c"]

    def test_the_first_published_row_wins_a_race(self):
        raced: list = []

        def derive(symbol):
            if not raced:  # a racing lookup derives and publishes first
                raced.append(symbol)
                raced.append(table[symbol])
            return [symbol]

        table = LabelTable(frozenset("a"), derive)
        assert table["a"] is raced[1] and table["a"] is raced[1]

    def test_threads_racing_on_every_row_see_one_object_per_symbol(self):
        symbols = frozenset(f"s{i}" for i in range(50))
        table = LabelTable(symbols, lambda symbol: [symbol] * 20)
        seen: "list[dict]" = [{} for _ in range(8)]

        def read(mine):
            for symbol in sorted(symbols):
                mine[symbol] = table[symbol]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(mine,)) for mine in seen]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert table.held == symbols
        for mine in seen:
            assert all(mine[symbol] is table[symbol] for symbol in symbols)


class TestViewDTD:
    def test_paper_example(self, d0: DTD, a0: Annotation):
        """Section 2: 'the view DTD for D0 and A0 is r → (a·d)*, d → c*'."""
        derived = view_dtd(d0, a0)
        assert derived.automaton("r").equivalent(glushkov(parse_regex("(a,d)*")))
        assert derived.automaton("d").equivalent(glushkov(parse_regex("c*")))

    def test_view_of_valid_tree_is_view_valid(self, d0: DTD, a0: Annotation):
        t0 = parse_term(
            "r#n0(a#n1, b#n2, d#n3(a#n7, c#n8), a#n4, c#n5, d#n6(b#n9, c#n10))"
        )
        derived = view_dtd(d0, a0)
        assert derived.validates(a0.view(t0))

    def test_rule_regex_display(self, d0: DTD, a0: Annotation):
        derived = view_dtd(d0, a0)
        # round-trip the derived display regex back to the same language
        regex = derived.rule_regex("r")
        assert glushkov(regex).equivalent(glushkov(parse_regex("(a,d)*")))
        # the paper's view DTD for D0 and A0: r → (a·d)*, d → c*
        assert derived.describe() == "d -> c*\nr -> (a,d)*"

    def test_d3_example(self):
        """Section 6.2: D3 = r → b·(c+ε)·(a·c)* with b, a hidden gives r → c*."""
        d3 = DTD({"r": "b,(c|ε),(a,c)*"})
        a3 = Annotation.hiding(("r", "b"), ("r", "a"))
        derived = view_dtd(d3, a3)
        assert derived.automaton("r").equivalent(glushkov(parse_regex("c*")))

    def test_identity_annotation_keeps_language(self, d0: DTD):
        derived = view_dtd(d0, Annotation.identity())
        for symbol in d0.alphabet:
            assert derived.automaton(symbol).equivalent(d0.automaton(symbol))


def _eager_view(dtd: DTD, annotation: Annotation, rule=DTD.automaton) -> DTD:
    """The view DTD with every rule derived up front from the source
    rule's automaton (or, given ``rule=DTD.rule_regex``, from its regex,
    as ``describe()`` prints a view rule)."""
    return DTD(
        {
            symbol: erase_hidden(
                rule(dtd, symbol),
                frozenset(y for y in dtd.alphabet if annotation.visible(symbol, y)),
            )
            for symbol in dtd.alphabet
        },
        alphabet=dtd.alphabet,
        check=False,
    )


class TestLazyViewDTD:
    """``view_dtd`` derives a symbol's rule on the symbol's first lookup;
    the readers of the whole DTD see (and so derive) every rule."""

    def test_a_lookup_derives_the_rules_it_reads(self, d0: DTD, a0: Annotation):
        derived = view_dtd(d0, a0)
        assert derived._models.held == frozenset()
        assert derived.automaton("d") is derived.automaton("d")
        assert derived._models.held == {"d"}
        assert derived.allows("r", ("a", "d"))
        assert derived._models.held == {"d", "r"}

    def test_validating_a_view_derives_the_rules_of_its_labels(
        self, d0: DTD, a0: Annotation
    ):
        derived = view_dtd(d0, a0)
        view = a0.view(parse_term("r#n0(a#n1, b#n2, d#n3(a#n7, c#n8))"))
        assert derived.validates(view)
        # b is hidden under r: its rule is never read
        assert derived._models.held == {"a", "c", "d", "r"}

    @pytest.mark.parametrize(
        "reader, rule",
        [
            (lambda dtd: dtd.size, DTD.automaton),
            (lambda dtd: [(symbol, model.size) for symbol, model in dtd.rules()], DTD.automaton),
            (lambda dtd: dtd.describe(), DTD.rule_regex),
            (lambda dtd: dtd.satisfiable_symbols(), DTD.automaton),
            (repr, DTD.automaton),
        ],
        ids=["size", "rules", "describe", "satisfiable_symbols", "repr"],
    )
    def test_whole_dtd_readers_see_every_rule(self, d0: DTD, a0: Annotation, reader, rule):
        derived = view_dtd(d0, a0)
        assert reader(derived) == reader(_eager_view(d0, a0, rule))
        assert derived._models.held == d0.alphabet


class TestEDTD:
    @pytest.fixture
    def edtd(self) -> EDTD:
        # two 'a' types distinguished by *ancestor* context (single-type
        # EDTDs cannot distinguish sibling types by position)
        return EDTD(
            {
                "Root": ("r", "TopA*"),
                "TopA": ("a", "b_sec*"),
                "b_sec": ("b", "InnerA*"),
                "InnerA": ("a", ""),
            },
            ["Root"],
        )

    def test_typing_assigns_context_types(self, edtd: EDTD):
        tree = parse_term("r#x(a#h(b#l(a#i1, a#i2)), a#t)")
        types = edtd.typing(tree)
        assert types["x"] == "Root"
        assert types["h"] == types["t"] == "TopA"
        assert types["l"] == "b_sec"
        assert types["i1"] == types["i2"] == "InnerA"

    def test_conforms(self, edtd: EDTD):
        assert edtd.conforms(parse_term("r(a)"))
        assert not edtd.conforms(parse_term("r(b)"))
        # InnerA 'a' (under b) cannot have children
        assert not edtd.conforms(parse_term("r(a(b(a(b))))"))

    def test_single_type_violation_rejected(self):
        with pytest.raises(EDTDError):
            EDTD(
                {
                    "Root": ("r", "A1|A2"),
                    "A1": ("a", ""),
                    "A2": ("a", ""),
                },
                ["Root"],
            )

    def test_root_type_label_mismatch(self):
        edtd = EDTD({"Root": ("r", "")}, ["Root"])
        with pytest.raises(EDTDError):
            edtd.typing(parse_term("a"))

    def test_unknown_root_type(self):
        with pytest.raises(EDTDError):
            EDTD({"Root": ("r", "")}, ["Ghost"])

    def test_duplicate_root_labels_rejected(self):
        with pytest.raises(EDTDError):
            EDTD({"R1": ("r", ""), "R2": ("r", "")}, ["R1", "R2"])

    def test_unknown_type_in_model(self):
        with pytest.raises(EDTDError):
            EDTD({"Root": ("r", "Ghost")}, ["Root"])

    def test_from_dtd_trivial_typing(self):
        dtd = DTD({"r": "(a,(b|c),d)*", "d": "((a|b),c)*"})
        edtd = EDTD.from_dtd(dtd, "r")
        tree = parse_term("r(a, b, d(a, c))")
        types = edtd.typing(tree)
        assert set(types.values()) <= dtd.alphabet
        assert types[tree.root] == "r"

    def test_empty_tree_rejected(self, edtd: EDTD):
        from repro.xmltree import Tree

        with pytest.raises(EDTDError):
            edtd.typing(Tree.empty())
