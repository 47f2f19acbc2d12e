"""The term-text entry of the router: shard-local parsing, the owner
index and the parse-path counter.

The differential pin (text entry against today's whole-parse path on
random and mutated streams) is ``tests/property/test_shard_text_differential.py``;
this file holds the targeted cases.
"""

import pytest

from repro import obs
from repro.editing import EditScript, Op, UpdateBuilder
from repro.errors import DuplicateNodeError, InvalidViewUpdateError
from repro.generators.workloads import huge_document, running_example
from repro.sharding import ShardedDocument
from repro.xmltree import Tree, parse_term


def _doc(engine, workload, depth=1):
    return ShardedDocument(engine, workload.source, depth=depth, validate_source=False)


def _chapter_reuse(workload):
    """Insert ``para#c0m`` (chapter 0's hidden ``meta``) into the last
    chapter's first section."""
    view = workload.annotation.view(workload.source)
    last = view.children(view.root)[-1]
    section = [s for s in view.children(last) if view.label(s) == "section"][0]
    edit = UpdateBuilder(view)
    edit.insert(section, Tree.leaf("para", "c0m"), index=0)
    return edit.script()


def _spine_reuse(workload, nid):
    """Insert ``c#<nid>`` under ``d0``; ``h0`` is hidden in the spine."""
    view = workload.annotation.view(workload.source)
    edit = UpdateBuilder(view)
    edit.insert("d0", parse_term(f"c#{nid}"), index=1)
    return edit.script()


class TestHiddenIdentifiersAcrossShards:
    """An insertion may not reuse an identifier hidden in another shard
    or in the spine: unsharded serving refuses it, and so must the
    router, with the same error."""

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("as_text", [False, True])
    def test_chapter_case(self, engine_for, validate, as_text):
        workload = huge_document(200)
        engine = engine_for(workload)
        update = _chapter_reuse(workload)
        with pytest.raises(Exception) as unsharded:
            engine.session(workload.source).propagate(update, validate=validate)
        expected = InvalidViewUpdateError if validate else DuplicateNodeError
        assert type(unsharded.value) is expected
        with _doc(engine, workload) as doc:
            before = doc.source
            with pytest.raises(expected) as sharded:
                doc.propagate(
                    update.to_term() if as_text else update, validate=validate
                )
            assert str(sharded.value) == str(unsharded.value)
            # nothing advanced: chapter 0 keeps its required meta
            assert doc.source == before
            assert doc.source.label("c0m") == "meta"

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("as_text", [False, True])
    def test_spine_case(self, engine_for, validate, as_text):
        workload = running_example(4)
        engine = engine_for(workload)
        update = _spine_reuse(workload, "h0")
        with pytest.raises(Exception) as unsharded:
            engine.session(workload.source).propagate(update, validate=validate)
        with _doc(engine, workload) as doc:
            with pytest.raises(type(unsharded.value)) as sharded:
                doc.propagate(
                    update.to_term() if as_text else update, validate=validate
                )
            assert str(sharded.value) == str(unsharded.value)
            assert doc.source.size == workload.source.size

    def test_control_insertion_with_an_unused_id_is_served(self, engine_for):
        workload = running_example(4)
        engine = engine_for(workload)
        update = _spine_reuse(workload, "fresh0")
        expected = engine.session(workload.source).propagate(update)
        with _doc(engine, workload) as doc:
            result = doc.propagate(update.to_term())
            assert result.script == expected.to_term()
            assert doc.source.size == expected.output_tree.size


def _stream(workload, engine, steps):
    """Sequential one-paragraph edits of chapters 1, 2, ...: each
    update's text, dirty hint and unsharded reference script."""
    session = engine.session(workload.source)
    out = []
    for step in range(steps):
        view = session.view
        chapter = view.children(view.root)[1 + step]
        sections = [s for s in view.children(chapter) if view.label(s) == "section"]
        victim = view.children(sections[0])[0]
        edit = UpdateBuilder(view, forbidden_ids=session.source.nodes())
        edit.delete(victim)
        edit.insert(sections[-1], Tree.leaf("para", f"x{step}"), index=0)
        update = edit.script()
        out.append((update.to_term(), [victim, f"x{step}"], session.propagate(update)))
    return out


class TestParsePath:
    def test_one_shard_edits_parse_locally(self, engine_for):
        workload = huge_document(300)
        engine = engine_for(workload)
        with _doc(engine, workload) as doc:
            for text, dirty, expected in _stream(workload, engine, 3):
                result = doc.propagate(text, dirty=dirty)
                assert result.script == expected.to_term()
                assert result.cost == expected.cost
            assert doc.stats_payload()["parse"] == {"local": 3, "full": 0}

    def test_splice_false_returns_the_summary(self, engine_for):
        workload = huge_document(300)
        engine = engine_for(workload)
        ((text, _, expected),) = _stream(workload, engine, 1)
        with _doc(engine, workload) as doc:
            result = doc.propagate(text, splice=False)
            assert result.script is None
            assert result.touched == ("c1",) and not result.boundary
            assert result.cost == expected.cost
            assert doc.source == expected.output_tree

    def test_the_current_view_is_an_identity_without_a_parse(self, engine_for):
        workload = huge_document(300)
        engine = engine_for(workload)
        with _doc(engine, workload) as doc:
            view = workload.annotation.view(workload.source)
            result = doc.propagate(EditScript.phantom(view).to_term())
            assert result.script == EditScript.phantom(workload.source).to_term()
            assert doc.stats_payload()["edits"]["identity"] == 1
            assert doc.stats_payload()["parse"] == {"local": 1, "full": 0}

    def test_boundary_and_two_shard_edits_parse_in_full(self, engine_for):
        workload = running_example(4)
        engine = engine_for(workload)
        view = workload.annotation.view(workload.source)
        edit = UpdateBuilder(view, forbidden_ids=workload.source.nodes())
        edit.insert("d1", parse_term("c#u0"), index=1)
        edit.insert("d3", parse_term("c#u1"), index=0)
        two = edit.script()
        session = engine.session(workload.source)
        expected = session.propagate(two)
        with _doc(engine, workload) as doc:
            assert doc.propagate(two.to_term()).script == expected.to_term()
            assert doc.stats_payload()["parse"] == {"local": 0, "full": 1}
            edit = UpdateBuilder(session.view, forbidden_ids=session.source.nodes())
            edit.delete("a3")
            edit.delete("d3")  # two shard roots
            boundary = edit.script()
            expected = session.propagate(boundary)
            result = doc.propagate(boundary.to_term())
            assert result.script == expected.to_term() and result.boundary
            assert doc.stats_payload()["parse"] == {"local": 0, "full": 2}
            # the caches follow the new layout
            assert doc.propagate(
                EditScript.phantom(session.view).to_term()
            ).script == EditScript.phantom(session.source).to_term()
            assert doc.stats_payload()["parse"] == {"local": 1, "full": 2}

    def test_the_route_span_carries_the_parse_path(self, engine_for):
        workload = huge_document(300)
        engine = engine_for(workload)
        ((text, _, _),) = _stream(workload, engine, 1)
        tracer = obs.configure(enabled=True, sample_rate=1.0, log_spans=False)
        tracer.reset()
        try:
            with _doc(engine, workload) as doc:
                with obs.trace("request") as root:
                    doc.propagate(text)
                    # the current view, spaced other than canonically
                    spaced = EditScript.phantom(doc.view).to_term().replace(", ", ",  ")
                    doc.propagate(spaced)
            record = tracer.find(root.trace_id)
        finally:
            tracer.reset()
            obs.configure(enabled=False)
        routes = [
            child["attrs"] for child in record["root"]["children"]
            if child["name"] == "shard.route"
        ]
        assert [attrs.get("parse") for attrs in routes] == ["local", "full"]

    def test_each_touched_shard_propagates_under_the_fanout(self, engine_for):
        workload = running_example(4)
        engine = engine_for(workload)
        view = workload.annotation.view(workload.source)
        edit = UpdateBuilder(view, forbidden_ids=workload.source.nodes())
        edit.insert("d1", parse_term("c#u0"), index=1)
        edit.insert("d3", parse_term("c#u1"), index=0)
        tracer = obs.configure(enabled=True, sample_rate=1.0, log_spans=False)
        tracer.reset()
        try:
            with _doc(engine, workload) as doc:
                with obs.trace("request") as root:
                    doc.propagate(edit.script().to_term())
            record = tracer.find(root.trace_id)
        finally:
            tracer.reset()
            obs.configure(enabled=False)

        def spans(node, name):
            if node["name"] == name:
                yield node
            for child in node.get("children", []):
                yield from spans(child, name)

        (fanout,) = spans(record["root"], "shard.fanout")
        assert sorted(
            (child["name"], child["attrs"]["shard"]) for child in fanout["children"]
        ) == [("shard.propagate", "d1"), ("shard.propagate", "d3")]


class TestOwnerIndexAfterCommits:
    def test_reuse_is_refused_after_text_commits(self, engine_for):
        """A reused hidden id is refused with the owner index that the
        earlier commits keep current."""
        workload = huge_document(300)
        engine = engine_for(workload)
        with _doc(engine, workload) as doc:
            for text, dirty, expected in _stream(workload, engine, 2):
                assert doc.propagate(text, dirty=dirty).script == expected.to_term()
            view = engine.annotation.view(doc.source)
            last = view.children(view.root)[-1]
            section = [s for s in view.children(last) if view.label(s) == "section"][0]
            edit = UpdateBuilder(view)
            edit.insert(section, Tree.leaf("para", "c1m"), index=0)
            with pytest.raises(InvalidViewUpdateError):
                doc.propagate(edit.script().to_term())
            assert doc.stats_payload()["parse"] == {"local": 2, "full": 1}


class TestPartialCommit:
    def test_a_commit_failing_part_way_leaves_no_stale_text(self, engine_for, monkeypatch):
        """Two shards commit in turn; when the second fails, the first
        has advanced and the next response must show it."""
        from repro.sharding import LocalShardPool

        workload = running_example(4)
        engine = engine_for(workload)
        view = workload.annotation.view(workload.source)
        edit = UpdateBuilder(view, forbidden_ids=workload.source.nodes())
        edit.insert("d1", parse_term("c#u0"), index=1)
        edit.insert("d3", parse_term("c#u1"), index=0)
        update = edit.script()
        commit = LocalShardPool.commit

        def fail_after_the_first(pool, offsets, *, want_script):
            first = dict(list(offsets.items())[:1])
            commit(pool, first, want_script=want_script)
            raise OSError("disk full")

        with _doc(engine, workload) as doc:
            # fill the caches
            doc.propagate(EditScript.phantom(view).to_term())
            monkeypatch.setattr(LocalShardPool, "commit", fail_after_the_first)
            with pytest.raises(OSError):
                doc.propagate(update.to_term())
            monkeypatch.undo()
            source = doc.source
            assert source.label("u0") == "c" and "u1" not in source
            current = engine.annotation.view(source)
            result = doc.propagate(EditScript.phantom(current).to_term())
            assert result.script == EditScript.phantom(source).to_term()

    @pytest.mark.parametrize("as_text", [True, False])
    def test_a_commit_failing_part_way_keeps_the_fresh_floor(
        self, engine_for, monkeypatch, as_text
    ):
        """The shard committed before the failure minted ``f0``; the next
        propagation, in another shard, must number from past it, through
        either entry."""
        from repro.sharding import LocalShardPool

        workload = running_example(4)
        engine = engine_for(workload)
        view = workload.annotation.view(workload.source)
        edit = UpdateBuilder(view, forbidden_ids=workload.source.nodes())
        edit.insert("d1", parse_term("c#u0"), index=1)
        edit.insert("d3", parse_term("c#u1"), index=0)
        update = edit.script()
        commit = LocalShardPool.commit

        def fail_after_the_first(pool, offsets, *, want_script):
            first = dict(list(offsets.items())[:1])
            commit(pool, first, want_script=want_script)
            raise OSError("disk full")

        def send(doc, script):
            if as_text:
                return EditScript.parse(doc.propagate(script.to_term()).script)
            return doc.propagate(script)

        with _doc(engine, workload) as doc:
            send(doc, EditScript.phantom(view))
            monkeypatch.setattr(LocalShardPool, "commit", fail_after_the_first)
            with pytest.raises(OSError):
                send(doc, update)
            monkeypatch.undo()
            minted = set(doc.source.nodes()) - set(workload.source.nodes())
            assert minted == {"u0", "f0"}
            current = engine.annotation.view(doc.source)
            edit = UpdateBuilder(current, forbidden_ids=doc.source.nodes())
            edit.insert("d2", parse_term("c#u2"), index=0)
            script = send(doc, edit.script())
            inserted = {
                node
                for node in script.tree.nodes()
                if script.tree.label(node).op is Op.INS
            }
            assert inserted == {"u2", "f1"}
            assert script.output_tree == doc.source
            assert sorted(
                node for node in doc.source.nodes() if node.startswith("f")
            ) == ["f0", "f1"]
