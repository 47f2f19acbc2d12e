"""Structure-sharing edits: memo carry, shared maps, cold-rescan parity.

The PR-4 fast path rebuilt the tree editing helpers around copy-on-write
map patching. These tests pin the two properties that matter:

* **correctness** — an edited tree's maps, size table, and suffix index
  are exactly what a cold reconstruction computes;
* **reuse** — the memoized tables are *carried* (present on the edited
  tree without being recomputed), and unaffected entries are the same
  work a cold rescan would redo.
"""

import pytest

from repro.errors import DuplicateNodeError, TreeError
from repro.xmltree import Tree, parse_term
from repro.xmltree.nodeid import max_numeric_suffix


def cold_copy(tree: Tree) -> Tree:
    """Rebuild through the validating constructor — no carried memos."""
    return Tree(
        tree.root,
        {node: tree.label(node) for node in tree.nodes()},
        {node: tree.children(node) for node in tree.nodes()},
    )


@pytest.fixture
def doc() -> Tree:
    return parse_term(
        "r#n0(a#n1(b#f3, c#f7), d#n2, a#n3(b#f7x, c#f2(e#f1)), d#f9)"
    )


class TestEditCorrectness:
    """Edited trees equal their from-scratch reconstructions."""

    def test_delete_matches_cold(self, doc):
        edited = doc.delete_subtree("f2")
        cold = cold_copy(doc).delete_subtree("f2")
        assert edited == cold
        assert edited.parent("f7x") == "n3"
        assert "f1" not in edited

    def test_insert_matches_cold(self, doc):
        sub = parse_term("d#x0(c#x1)")
        edited = doc.insert_subtree("n0", 2, sub)
        cold = cold_copy(doc).insert_subtree("n0", 2, cold_copy(sub))
        assert edited == cold
        assert edited.parent("x0") == "n0"
        assert edited.children("n0")[2] == "x0"

    def test_replace_matches_cold(self, doc):
        sub = parse_term("a#y0(b#y1)")
        edited = doc.replace_subtree("n3", sub)
        cold = cold_copy(doc).replace_subtree("n3", cold_copy(sub))
        assert edited == cold
        assert edited.parent("y0") == "n0"
        assert "f2" not in edited

    def test_relabel_matches_cold(self, doc):
        mapping = {"n0": "m0", "f2": "m2"}
        assert doc.relabel_nodes(mapping) == cold_copy(doc).relabel_nodes(mapping)

    def test_duplicate_and_range_errors_survive(self, doc):
        with pytest.raises(DuplicateNodeError):
            doc.insert_subtree("n0", 0, parse_term("d#n2"))
        with pytest.raises(TreeError):
            doc.insert_subtree("n0", 9, parse_term("d#z"))
        with pytest.raises(DuplicateNodeError):
            doc.replace_subtree("n1", parse_term("a#q(b#n2)"))

    def test_map_labels_shares_structure(self, doc):
        mapped = doc.map_labels(str.upper)
        assert mapped._children is doc._children
        assert mapped._parents is doc._parents
        assert mapped.label("n0") == "R"
        assert doc.label("n0") == "r"


class TestSizeTableCarry:
    """`subtree_sizes()` entries are kept, not recomputed, across edits."""

    def test_delete_carries_and_matches_cold_rescan(self, doc):
        doc.subtree_sizes()  # force the memo on the source
        edited = doc.delete_subtree("f2")
        # carried: present without any subtree_sizes() call on `edited`
        assert edited._sizes is not None
        assert dict(edited.subtree_sizes()) == dict(
            cold_copy(edited).subtree_sizes()
        )

    def test_insert_carries_and_matches_cold_rescan(self, doc):
        doc.subtree_sizes()
        edited = doc.insert_subtree("n3", 0, parse_term("b#z0"))
        assert edited._sizes is not None
        assert dict(edited.subtree_sizes()) == dict(
            cold_copy(edited).subtree_sizes()
        )

    def test_replace_carries_and_matches_cold_rescan(self, doc):
        doc.subtree_sizes()
        edited = doc.replace_subtree("n1", parse_term("a#w0(b#w1, c#w2, c#w3)"))
        assert edited._sizes is not None
        assert dict(edited.subtree_sizes()) == dict(
            cold_copy(edited).subtree_sizes()
        )

    def test_unaffected_entries_not_recomputed(self, doc):
        sizes_before = dict(doc.subtree_sizes())
        edited = doc.delete_subtree("f2")
        # every node outside the deleted subtree and off the ancestor
        # path keeps its exact entry
        for node in ("n1", "f3", "f7", "n2", "f7x", "f9"):
            assert edited._sizes[node] == sizes_before[node]
        # the ancestor path re-sums by the subtree's size
        assert edited._sizes["n3"] == sizes_before["n3"] - 2
        assert edited._sizes["n0"] == sizes_before["n0"] - 2

    def test_lazy_when_source_memo_absent(self, doc):
        # no subtree_sizes() on the source → the edit must not force it
        edited = doc.delete_subtree("n2")
        assert doc._sizes is None
        assert edited._sizes is None


class TestSuffixIndexCarry:
    """`max_suffix()` agrees with a cold rescan through every edit."""

    def assert_matches_cold(self, tree: Tree, prefix: str = "f"):
        assert tree.max_suffix(prefix) == max_numeric_suffix(tree.nodes(), prefix)

    def test_insert_raises_max(self, doc):
        assert doc.max_suffix("f") == 9
        edited = doc.insert_subtree("n2", 0, parse_term("a#f40"))
        assert edited._suffixes is not None  # carried, not recomputed
        self.assert_matches_cold(edited)
        assert edited.max_suffix("f") == 40

    def test_delete_of_non_max_keeps_memo(self, doc):
        doc.max_suffix("f")
        edited = doc.delete_subtree("f2")  # removes f2, f1 — max f9 lives
        assert edited._suffixes == {"f": (9, 1)}
        self.assert_matches_cold(edited)

    def test_delete_of_last_max_witness_invalidates(self, doc):
        doc.max_suffix("f")
        edited = doc.delete_subtree("f9")
        # the only f9 left; the carried entry must drop, and the lazy
        # rescan must agree with the cold scan (f7 remains the max)
        assert edited._suffixes is None or "f" not in edited._suffixes
        self.assert_matches_cold(edited)
        assert edited.max_suffix("f") == 7

    def test_duplicate_suffix_counts_witnesses(self):
        tree = parse_term("r#n0(a#f5, b#f5x, c#f5y(d#f5z), a#f05)")
        # f5 and f05 both witness suffix 5
        assert tree.max_suffix("f") == 5
        edited = tree.delete_subtree("f5")
        assert edited._suffixes == {"f": (5, 1)}  # f05 still witnesses
        self.assert_matches_cold(edited)

    def test_replace_carries_both_sides(self, doc):
        doc.max_suffix("f")
        edited = doc.replace_subtree("n1", parse_term("a#f30(b#f31)"))
        self.assert_matches_cold(edited)
        assert edited.max_suffix("f") == 31

    def test_non_matching_prefix_untouched(self, doc):
        doc.max_suffix("n")
        edited = doc.delete_subtree("f2")
        assert edited.max_suffix("n") == max_numeric_suffix(edited.nodes(), "n")


class TestEqualityIgnoresCarriedMemos:
    """Equality and hashing read the tree, never the tables it carries."""

    def test_a_memo_carrying_tree_equals_its_cold_copy(self, doc):
        edited = doc.delete_subtree("f2")
        edited.subtree_sizes()
        edited.max_suffix("n")
        cold = cold_copy(doc).delete_subtree("f2")
        assert edited == cold and hash(edited) == hash(cold)

    def test_any_difference_breaks_equality(self, doc):
        doc.subtree_sizes()
        assert doc != doc.delete_subtree("n2")
        assert doc != doc.map_labels(str.upper)
        assert doc != doc.relabel_nodes({"n2": "q2"})

    def test_empty_trees_are_equal(self):
        assert Tree.empty() == Tree.empty()
        assert hash(Tree.empty()) == hash(Tree.empty())
        assert Tree.empty() != parse_term("r#n0")
