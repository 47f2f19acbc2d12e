"""Tests for term-notation parsing and fresh-identifier generation."""

import pytest

from repro.errors import TermSyntaxError
from repro.xmltree import NodeIds, Tree, max_numeric_suffix, parse_forest, parse_term


class TestParseTerm:
    def test_single_node(self):
        tree = parse_term("r")
        assert tree.size == 1
        assert tree.label(tree.root) == "r"

    def test_auto_ids_document_order(self):
        tree = parse_term("r(a, b(c), d)")
        assert list(tree.nodes()) == ["n0", "n1", "n2", "n3", "n4"]
        assert tree.label("n0") == "r"
        assert tree.label("n3") == "c"

    def test_explicit_ids(self):
        tree = parse_term("r#root(a#left, a#right)")
        assert tree.children("root") == ("left", "right")

    def test_mixed_ids_avoid_explicit(self):
        tree = parse_term("r#n1(a, b)")
        assert tree.root == "n1"
        assert "n1" not in tree.children("n1")
        assert len(set(tree.nodes())) == 3

    def test_custom_prefix(self):
        tree = parse_term("r(a)", id_prefix="u")
        assert tree.root == "u0"

    def test_whitespace_tolerated(self):
        assert parse_term(" r ( a , b ) ") == parse_term("r(a,b)")

    def test_empty_parens_allowed(self):
        assert parse_term("r()") == parse_term("r")

    @pytest.mark.parametrize(
        "bad",
        ["", "(", "r(", "r(a", "r(a,)", "r)", "r(a))", "r a", "#x", "r(,a)"],
    )
    def test_syntax_errors(self, bad: str):
        with pytest.raises(TermSyntaxError):
            parse_term(bad)

    def test_duplicate_explicit_ids_rejected(self):
        with pytest.raises(TermSyntaxError):
            parse_term("r#x(a#x)")

    def test_labels_with_punctuation(self):
        tree = parse_term("patient-record(first.name, last_name)")
        assert tree.child_labels(tree.root) == ("first.name", "last_name")

    def test_word_and_space_classes_match_str_predicates(self):
        """Over every code point, a word character is one with
        ``str.isalnum()`` or one of ``_-.``, and whitespace is what
        ``str.isspace()`` accepts."""
        import re
        import sys

        from repro.xmltree.term import WORD

        every = "".join(map(chr, range(sys.maxunicode + 1)))
        words = {c for c in every if c.isalnum() or c in "_-."}
        assert set("".join(WORD.findall(every))) == words
        assert set(re.findall(r"\s", every)) == {c for c in every if c.isspace()}


class TestParseForest:
    def test_forest_shares_namespace(self):
        trees = parse_forest("a, b(c), d")
        assert [t.root for t in trees] == ["n0", "n1", "n3"]
        all_ids = [n for t in trees for n in t.nodes()]
        assert len(all_ids) == len(set(all_ids))

    def test_empty_forest(self):
        assert parse_forest("") == []

    def test_forest_trailing_garbage(self):
        with pytest.raises(TermSyntaxError):
            parse_forest("a, b)")


class TestNodeIds:
    def test_sequential(self):
        gen = NodeIds("m")
        assert gen.take(3) == ["m0", "m1", "m2"]

    def test_avoids_forbidden(self):
        gen = NodeIds("m", forbidden={"m0", "m2"})
        assert gen.take(3) == ["m1", "m3", "m4"]

    def test_never_repeats(self):
        gen = NodeIds()
        produced = set(gen.take(50))
        assert len(produced) == 50

    def test_forbid_after_creation(self):
        gen = NodeIds("m")
        gen.forbid({"m0"})
        assert gen.fresh() == "m1"

    def test_avoiding_continues_numbering(self):
        tree = parse_term("r#n0(a#n1, b#n7)")
        gen = NodeIds.avoiding(tree.nodes())
        assert gen.fresh() == "n8"

    def test_iter_protocol(self):
        gen = NodeIds("k")
        it = iter(gen)
        assert next(it) == "k0"
        assert next(it) == "k1"

    def test_max_numeric_suffix(self):
        assert max_numeric_suffix(["n0", "n12", "x3", "nab"], "n") == 12
        assert max_numeric_suffix([], "n") == -1
        assert max_numeric_suffix([("tuple", "id"), 7], "n") == -1


class TestTreeTermInterop:
    def test_round_trip_preserves_identity(self):
        tree = Tree.build("r", "root", [Tree.leaf("a", "kid")])
        assert parse_term(tree.to_term()) == tree


class TestDeepTerms:
    """The codec is iterative: a term's depth is not bounded by the
    interpreter's recursion limit (a 5000-deep chain used to raise
    RecursionError in parsing and in rendering)."""

    DEPTH = 5000

    @staticmethod
    def chain(label: str, depth: int) -> str:
        return "(".join(f"{label}#n{k}" for k in range(depth)) + ")" * (depth - 1)

    def test_deep_chain_round_trips_through_parse_term(self):
        term = self.chain("a", self.DEPTH)
        tree = parse_term(term)
        assert tree.size == self.DEPTH
        assert tree.height() == self.DEPTH - 1
        assert tree.to_term() == term
        assert parse_term(tree.to_term()) == tree

    def test_deep_chain_round_trips_through_edit_script_parse(self):
        from repro.editing import EditScript

        term = self.chain("Nop.a", self.DEPTH)
        script = EditScript.parse(term)
        assert script.size == self.DEPTH
        assert script.to_term() == term
        script.check_round_trip()
        assert EditScript.parse(script.to_term()) == script
