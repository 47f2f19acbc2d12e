"""Differential pin of the router's term-text entry.

Two durable sharded twins of one document serve the same requests: the
*text* twin gets the request's term text (the served path, which parses
only the shard a request changes and answers from cached shard text),
the *tree* twin gets ``EditScript.parse(text)`` through the whole-update
path. After every step both must agree on the response bytes (or the
summary), on the error class and message, on every shard's source and
on every shard's write-ahead log, byte for byte.

Inputs are the random streams of the sharded-vs-unsharded suite,
rendered with ``to_term()``, plus requests mutated where the shard-local
parse must give way to the full one: other whitespace, id-less nodes,
identifiers reused across shards, two edited shards, spine and shard
root edits, stale unchanged shards, hints naming only unchanged shards,
and malformed shard terms.
"""

import random

import pytest

from repro.editing import EditScript, Op, UpdateBuilder
from repro.generators.updates import random_view_update
from repro.generators.workloads import huge_document
from repro.sharding import ShardedDocument
from repro.xmltree import Tree

from ..sharding.test_differential import FAMILIES


class Twins:
    def __init__(self, root, workload, depth):
        self.workload = workload
        self.roots = (root / "text", root / "tree")
        self.text, self.tree = (
            ShardedDocument.create(
                where, workload.source, workload.dtd, workload.annotation,
                depth=depth, fsync="off", validate_source=False,
            )
            for where in self.roots
        )

    def close(self):
        self.text.close()
        self.tree.close()

    @property
    def source(self):
        return self.tree.source

    @property
    def view(self):
        return self.workload.annotation.view(self.tree.source)

    def step(self, text, *, dirty=None, splice=True, validate=True):
        """Serve *text* on both twins; returns the common outcome."""
        options = dict(dirty=dirty, splice=splice, validate=validate)

        def served():
            result = self.text.propagate(text, **options)
            return result.script if splice else _summary(result)

        def parsed():
            result = self.tree.propagate(EditScript.parse(text), **options)
            return result.to_term() if splice else _summary(result)

        outcome = _outcome(served)
        assert outcome == _outcome(parsed), text
        assert self.text.shard_roots == self.tree.shard_roots
        assert self.text.source.to_term() == self.tree.source.to_term()
        assert _wals(self.roots[0]) == _wals(self.roots[1])
        return outcome


def _summary(result):
    return result.cost, result.touched, result.boundary, result.fresh_used


def _outcome(call):
    try:
        return "ok", call()
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return "error", type(error).__name__, str(error)


def _wals(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.glob("docs/*/wal.log"))
    }


def _region_roots(update):
    """The dirty hint an update builder would send: edited nodes whose
    parent is not edited the same way."""
    tree = update.tree
    labels = tree._labels
    return [
        node for node, label in labels.items()
        if label.op is not Op.NOP
        and (tree.parent(node) is None or labels[tree.parent(node)].op is not label.op)
    ]


def _respace(rng, text):
    """Replace one random ``", "`` by other whitespace the parser accepts."""
    cuts = [i for i in range(len(text) - 1) if text.startswith(", ", i)]
    if not cuts:
        return text
    at = rng.choice(cuts)
    return text[:at] + " ,  " + text[at + 2:]


@pytest.mark.parametrize("family_index", range(len(FAMILIES)))
@pytest.mark.parametrize("seed", [1, 2])
def test_random_streams(tmp_path, family_index, seed):
    workload = FAMILIES[family_index]()
    rng = random.Random(7919 * family_index + seed)
    twins = Twins(tmp_path, workload, rng.randint(1, 3))
    try:
        for _ in range(8):
            update = random_view_update(
                rng, workload.dtd, workload.annotation, twins.source,
                n_ops=rng.randint(1, 3),
            )
            text = update.to_term()
            if rng.random() < 0.2:
                text = _respace(rng, text)
            dirty = _region_roots(update) if rng.random() < 0.5 else None
            twins.step(text, dirty=dirty, splice=rng.random() < 0.8)
    finally:
        twins.close()


class TestMutatedRequests:
    """Targeted requests on a book sharded by chapter."""

    @pytest.fixture
    def twins(self, tmp_path):
        twins = Twins(tmp_path, huge_document(400), 1)
        yield twins
        twins.close()

    @staticmethod
    def _edit(view, chapters, new_id="x0"):
        """Delete a paragraph and insert ``para#<new_id>`` in each chapter."""
        edit = UpdateBuilder(view)
        for chapter in chapters:
            sections = [s for s in view.children(chapter) if view.label(s) == "section"]
            edit.delete(view.children(sections[0])[0])
            edit.insert(sections[-1], Tree.leaf("para", new_id), index=0)
            new_id += "a"
        return edit.script()

    @staticmethod
    def _chapter_text(view, chapter):
        return EditScript.phantom(view.subtree(chapter)).to_term()

    def test_edits_in_the_first_middle_and_last_shard(self, twins):
        for step, index in enumerate((0, 5, -1, 5, 0)):
            view = twins.view
            chapter = view.children(view.root)[index]
            update = self._edit(view, [chapter], f"x{step}")
            assert twins.step(update.to_term())[0] == "ok"
        assert twins.text.stats_payload()["parse"] == {"local": 5, "full": 0}

    def test_whitespace_inside_an_unchanged_shard(self, twins):
        view = twins.view
        c1, c2 = view.children(view.root)[1:3]
        spaced = self._chapter_text(view, c2).replace(", ", " ,\n ")
        text = self._edit(view, [c1]).to_term()
        twins.step(text.replace(self._chapter_text(view, c2), spaced))
        # the unchanged view, one shard spaced: an identity either way
        view = twins.view
        whole = EditScript.phantom(view).to_term()
        c2_text = self._chapter_text(view, c2)
        twins.step(whole.replace(c2_text, c2_text.replace("(", "( ", 1)))
        assert twins.text.stats_payload()["parse"] == {"local": 1, "full": 1}

    def test_id_less_nodes(self, twins):
        view = twins.view
        chapter = view.children(view.root)[3]
        text = self._edit(view, [chapter]).to_term()
        # an inserted node without an id: it gets an automatic one, from
        # a numbering that depends on every explicit id of the text
        assert twins.step(text.replace("Ins.para#x0", "Ins.para"))[0] == "ok"
        assert twins.text.stats_payload()["parse"] == {"local": 0, "full": 1}
        view = twins.view
        chapter = view.children(view.root)[4]
        text = self._edit(view, [chapter], "y0").to_term()
        # a kept node without its id: not the view any more
        title = view.children(chapter)[0]
        assert twins.step(text.replace(f"#{title}", "", 1))[0] == "error"

    @pytest.mark.parametrize("validate", [True, False])
    def test_identifiers_reused_across_shards(self, twins, validate):
        view = twins.view
        chapters = view.children(view.root)
        first = self._edit(view, [chapters[2]])
        deleted = next(n for n, lab in first.tree._labels.items() if lab.op is Op.DEL)
        assert twins.step(first.to_term(), validate=validate)[0] == "ok"
        view = twins.view
        text = self._edit(view, [chapters[6]], "y0").to_term()
        visible = view.children(view.children(chapters[4])[2])[0]  # a para
        # visible elsewhere (original or inserted earlier), hidden in
        # another shard, the spine's root
        for reused in (visible, "x0", "c6m", "c4m", "b0"):
            outcome = twins.step(text.replace("#y0", f"#{reused}"), validate=validate)
            assert outcome[0] == "error"
        # an identifier deleted earlier is free again
        assert twins.step(text.replace("#y0", f"#{deleted}"), validate=validate)[0] == "ok"

    def test_two_edited_shards(self, twins):
        view = twins.view
        chapters = view.children(view.root)
        update = self._edit(view, [chapters[1], chapters[-2]])
        assert twins.step(update.to_term(), dirty=_region_roots(update))[0] == "ok"
        assert twins.text.stats_payload()["parse"]["full"] == 1

    def test_spine_and_shard_root_edits(self, twins):
        view = twins.view
        chapters = view.children(view.root)
        new_chapter = Tree.build(
            "chapter", "nc", [Tree.leaf("title", "nct")]
        )
        edit = UpdateBuilder(view)
        edit.insert(view.root, new_chapter, index=len(chapters))
        assert twins.step(edit.script().to_term())[0] == "ok"
        view = twins.view
        edit = UpdateBuilder(view)
        edit.delete(chapters[3])
        edit.insert(view.root, Tree.build("chapter", "nd", [Tree.leaf("title", "ndt")]), index=0)
        assert twins.step(edit.script().to_term())[0] == "ok"
        # the caches follow the new layout
        view = twins.view
        update = self._edit(view, [view.children(view.root)[-2]], "z0")
        assert twins.step(update.to_term())[0] == "ok"
        assert twins.text.stats_payload()["parse"] == {"local": 1, "full": 2}

    def test_stale_unchanged_shard(self, twins):
        view = twins.view
        chapters = view.children(view.root)
        stale = self._chapter_text(view, chapters[1])
        twins.step(self._edit(view, [chapters[1]]).to_term())
        view = twins.view
        fresh = self._chapter_text(view, chapters[1])
        text = self._edit(view, [chapters[4]], "y0").to_term()
        twins.step(text.replace(fresh, stale))
        view = twins.view
        whole = EditScript.phantom(view).to_term()
        twins.step(whole.replace(self._chapter_text(view, chapters[1]), stale))

    def test_hint_naming_only_unchanged_shards(self, twins):
        view = twins.view
        chapters = view.children(view.root)
        update = self._edit(view, [chapters[2]])
        other = view.children(view.children(chapters[7])[2])[0]
        outcome = twins.step(update.to_term(), dirty=[other, "nowhere"])
        assert outcome == ("ok", EditScript.phantom(twins.source).to_term())

    def test_malformed_shard_terms(self, twins):
        view = twins.view
        chapter = view.children(view.root)[2]
        text = self._edit(view, [chapter]).to_term()
        start = text.index(self._chapter_text(view, view.children(view.root)[1]))
        for broken in (
            text.replace("Ins.para#x0", "Ins.para#"),
            text.replace("Ins.para#x0", "Ins.para#x0("),
            text.replace("Ins.para#x0", "Bad.para#x0"),
            text.replace("Ins.para#x0", "Ins.para#x0, Nop.para#x0"),
            text[:start] + text[start:].replace(")", "", 1),
        ):
            assert twins.step(broken)[0] == "error"
        assert twins.step(text)[0] == "ok"


def test_streams_cross_both_parse_paths(tmp_path):
    """Across the random streams both parse paths must actually run."""
    totals = {"local": 0, "full": 0}
    for family_index, family in enumerate(FAMILIES[:4]):
        workload = family()
        rng = random.Random(family_index)
        twins = Twins(tmp_path / str(family_index), workload, 1)
        try:
            for _ in range(8):
                update = random_view_update(
                    rng, workload.dtd, workload.annotation, twins.source, n_ops=1
                )
                twins.step(update.to_term())
            for path, count in twins.text.stats_payload()["parse"].items():
                totals[path] += count
        finally:
            twins.close()
    assert totals["local"] > 0 and totals["full"] > 0
