"""Endpoint routing: replica reads with staleness budgets, stateless
many-document batches, and the sharded-document front."""

import pytest

from repro.replication import StandbyStore, replicate
from repro.server import ReproServer, RemoteServingError, ServeClient
from repro.store import DocumentStore

from .conftest import assert_exposition, run_with_server, sequential_updates


class TestViewRouting:
    def test_fresh_replica_serves_bounded_reads(
        self, tmp_path, store_root, workload
    ):
        store = DocumentStore(store_root, fsync="off")
        standby = StandbyStore.init(tmp_path / "standby", primary_root=store_root)
        replicate(store, standby)
        store.close()
        standby.close()
        server = ReproServer(
            store_root=store_root, standby_root=tmp_path / "standby", fsync="off"
        )

        def client_work(host, port):
            with ServeClient(host, port) as client:
                return client.view("doc0", max_lag=0)

        result = run_with_server(server, client_work)
        assert result["served_by"] == "replica"
        assert result["lag"] == 0
        assert result["view"].startswith("<")

    def test_unmeasurable_lag_falls_back_to_primary(
        self, tmp_path, store_root, workload
    ):
        """The satellite-1 semantics end to end: a wire-only standby (no
        primary marker) cannot measure its lag; the fail-closed
        ReplicationLagError routes the bounded read to the primary."""
        store = DocumentStore(store_root, fsync="off")
        dark = StandbyStore.init(tmp_path / "dark")  # no primary_root
        replicate(store, dark)
        store.close()
        dark.close()
        server = ReproServer(
            store_root=store_root, standby_root=tmp_path / "dark", fsync="off"
        )

        def client_work(host, port):
            with ServeClient(host, port) as client:
                bounded = client.view("doc0", max_lag=0)
                unbounded = client.view("doc0")
                stats = client.stats()
                metrics = client.request("metrics")["text"]
            return bounded, unbounded, stats, metrics

        bounded, unbounded, stats, metrics = run_with_server(server, client_work)
        assert bounded["served_by"] == "primary"
        # no bound: the replica serves (staleness unconstrained)
        assert unbounded["served_by"] == "replica"
        assert stats["server"]["replica_fallbacks"] == {"doc0": 1}
        assert_exposition(metrics)
        assert 'repro_replica_fallbacks_total{doc="doc0"} 1' in metrics

    def test_replica_only_server_surfaces_lag_error(
        self, tmp_path, store_root, workload
    ):
        """No primary to fall back to: the typed replication_lag payload
        reaches the client instead of a traceback."""
        store = DocumentStore(store_root, fsync="off")
        dark = StandbyStore.init(tmp_path / "dark")
        replicate(store, dark)
        store.close()
        dark.close()
        server = ReproServer(standby_root=tmp_path / "dark")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                with pytest.raises(RemoteServingError) as caught:
                    client.view("doc0", max_lag=0)
            return caught.value

        error = run_with_server(server, client_work)
        assert error.code == "replication_lag"
        assert error.remote_exit_code == 8


class TestViewReadCounter:
    """``view_reads`` counts each served view read by render path, in
    ``/stats`` and ``/metrics`` alike: a view version's first read
    renders, every later read of it is answered from the stored text."""

    def test_primary_reads_render_once_per_version(self, store_root, workload):
        server = ReproServer(store_root=store_root, fsync="off")
        (term,) = sequential_updates(workload, 1, seed=21)

        def client_work(host, port):
            with ServeClient(host, port) as client:
                first = client.view("doc1")["view"]
                again = client.view("doc1")["view"]
                counts = [client.stats()["server"]["view_reads"]]
                client.propagate("doc1", term)
                moved = client.view("doc1")["view"]
                counts.append(client.stats()["server"]["view_reads"])
                metrics = client.request("metrics")["text"]
            return first, again, moved, counts, metrics

        first, again, moved, counts, metrics = run_with_server(server, client_work)
        assert_exposition(metrics)
        assert again == first and moved != first
        assert counts == [
            {"cached": 1, "rendered": 1},
            {"cached": 1, "rendered": 2},
        ]
        assert 'repro_view_reads_total{render="cached"} 1' in metrics
        assert 'repro_view_reads_total{render="rendered"} 2' in metrics

    def test_replica_reads_are_counted_too(self, tmp_path, store_root, workload):
        store = DocumentStore(store_root, fsync="off")
        standby = StandbyStore.init(tmp_path / "standby", primary_root=store_root)
        replicate(store, standby)
        store.close()
        standby.close()
        server = ReproServer(
            store_root=store_root, standby_root=tmp_path / "standby", fsync="off"
        )

        def client_work(host, port):
            with ServeClient(host, port) as client:
                reads = [client.view("doc0", max_lag=0) for _ in range(3)]
            return reads

        reads = run_with_server(server, client_work)
        assert {read["served_by"] for read in reads} == {"replica"}
        assert len({read["view"] for read in reads}) == 1
        assert server.stats_payload()["server"]["view_reads"] == {"cached": 2, "rendered": 1}


class TestPropagateParseCounter:
    """``propagate_parse`` counts unsharded propagate requests by parse
    path, in ``/stats`` and ``/metrics`` alike: a term written as the
    server renders it is parsed at its edited region, any other whole."""

    def test_canonical_and_respaced_terms(self, store_root, workload):
        server = ReproServer(store_root=store_root, fsync="off")
        first, second = sequential_updates(workload, 2, seed=5)
        respaced = second.replace(", ", ",")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                scripts = [client.propagate("doc0", first)["script"]]
                scripts.append(client.propagate("doc0", respaced)["script"])
                counts = client.stats()["server"]["propagate_parse"]
                metrics = client.request("metrics")["text"]
            return scripts, counts, metrics

        scripts, counts, metrics = run_with_server(server, client_work)
        assert_exposition(metrics)
        assert counts == {"sparse": 1, "full": 1}
        assert 'repro_propagate_requests_total{parse="sparse"} 1' in metrics
        assert 'repro_propagate_requests_total{parse="full"} 1' in metrics
        # the same scripts as an in-process session serving both terms
        from repro.editing import EditScript
        from repro.engine import ViewEngine

        session = ViewEngine(workload.dtd, workload.annotation).session(workload.source)
        assert scripts == [
            session.propagate(EditScript.parse(term)).to_term() for term in (first, second)
        ]

    def test_counts_from_many_threads_add_up(self, store_root):
        """Documents are served in executor threads, which all count."""
        import sys
        import threading

        server = ReproServer(store_root=store_root, fsync="off")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [
                        server.propagate_requests_total.inc("sparse" if i % 2 == 0 else "full")
                        for i in range(2000)
                    ]
                )
                for _ in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert server.stats_payload()["server"]["propagate_parse"] == {
            "sparse": 8000,
            "full": 8000,
        }

    def test_bad_term_for_unknown_document_reports_the_term(self, store_root):
        server = ReproServer(store_root=store_root, fsync="off")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                errors = []
                for doc, term in (("nope", "Nop.r#n0("), ("nope", "Nop.r#n0")):
                    with pytest.raises(RemoteServingError) as caught:
                        client.propagate(doc, term)
                    errors.append(str(caught.value))
            return errors

        syntax, unknown = run_with_server(server, client_work)
        assert "[TermSyntaxError]" in syntax and "expected" in syntax
        assert unknown.startswith("server answered unknown_document")
        assert server.stats_payload()["server"]["propagate_parse"] == {"sparse": 0, "full": 0}

    def test_record_text_is_not_a_request(self, store_root, workload):
        """The log's skip tokens stay out of the wire: against a stale
        client view they would apply silently instead of raising."""
        from repro.editing import EditScript

        server = ReproServer(store_root=store_root, fsync="off")
        (term,) = sequential_updates(workload, 1, seed=5)
        update = EditScript.parse(term, base=workload.annotation.view(workload.source))
        assert "~" in update.to_record()

        def client_work(host, port):
            with ServeClient(host, port) as client:
                with pytest.raises(RemoteServingError) as caught:
                    client.propagate("doc0", update.to_record())
                return caught.value

        error = run_with_server(server, client_work)
        assert error.remote_type == "TermSyntaxError"


class TestBatchEndpoint:
    def test_stateless_batch_matches_library(self, workload):
        from repro.editing import EditScript
        from repro.engine import ViewEngine
        from repro.dtd import serialize_dtd
        from repro.xmltree import tree_to_xml

        terms = [sequential_updates(workload, 1, seed=s)[0] for s in (1, 2, 3)]
        engine = ViewEngine(workload.dtd, workload.annotation)
        expected = [
            script.to_term()
            for script in engine.propagate_many(
                [(workload.source, EditScript.parse(term)) for term in terms]
            )
        ]
        server = ReproServer()  # no roots: batch is stateless

        def client_work(host, port):
            with ServeClient(host, port) as client:
                return client.request(
                    "batch",
                    dtd=serialize_dtd(workload.dtd),
                    annotation=workload.annotation.serialize(),
                    requests=[
                        {
                            "source": tree_to_xml(workload.source),
                            "update": term,
                        }
                        for term in terms
                    ],
                )

        result = run_with_server(server, client_work)
        assert result["count"] == 3
        assert result["scripts"] == expected

    def test_empty_batch_is_served_not_crashed(self, workload):
        """An empty request list answers [] instead of crashing."""
        from repro.dtd import serialize_dtd

        server = ReproServer()

        def client_work(host, port):
            with ServeClient(host, port) as client:
                return client.request(
                    "batch",
                    dtd=serialize_dtd(workload.dtd),
                    annotation=workload.annotation.serialize(),
                    requests=[],
                )

        result = run_with_server(server, client_work)
        assert result == {"count": 0, "scripts": [], "costs": []}

    def test_batch_compiles_only_the_labels_it_reads(self):
        """The engine compiled for a client-shipped schema is not warmed:
        its view DTD holds rules for the labels of the edited views only."""
        from repro.editing import EditScript
        from repro.generators.workloads import wide_schema
        from repro.registry import EngineRegistry
        from repro.xmltree import tree_to_xml

        workload = wide_schema(24, sections=8)
        terms = [sequential_updates(workload, 1, seed=s)[0] for s in (1, 2)]
        server = ReproServer(registry=EngineRegistry())

        def client_work(host, port):
            with ServeClient(host, port) as client:
                return _batch_request(
                    workload,
                    client,
                    [{"source": tree_to_xml(workload.source), "update": term} for term in terms],
                )

        result = run_with_server(server, client_work)
        assert result["count"] == 2
        ((_, engine),) = server.registry.cached_engines()
        edited = set()
        for term in terms:
            update = EditScript.parse(term)
            edited |= {update.output_symbol(node) for node in update.nodes()}
        assert len(edited) < len(workload.dtd.alphabet)
        assert engine.view_dtd._models.held <= edited


def _batch_request(workload, client, entries, **fields):
    from repro.dtd import serialize_dtd

    return client.request(
        "batch",
        dtd=serialize_dtd(workload.dtd),
        annotation=workload.annotation.serialize(),
        requests=entries,
        **fields,
    )


class TestBatchRequestChecks:
    def test_pool_fields_are_ignored_and_start_no_process(
        self, workload, monkeypatch
    ):
        """``parallel`` and ``workers`` come from the client: they must
        not decide how many processes the server starts."""
        import concurrent.futures
        import multiprocessing
        import multiprocessing.process

        from repro.editing import EditScript
        from repro.engine import ViewEngine
        from repro.xmltree import tree_to_xml

        terms = [sequential_updates(workload, 1, seed=s)[0] for s in (4, 5)]
        expected = ViewEngine(workload.dtd, workload.annotation).propagate_many(
            [(workload.source, EditScript.parse(term)) for term in terms]
        )

        def no_process(*args, **kwargs):
            raise AssertionError("the batch op started a child process")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_process)
        monkeypatch.setattr(multiprocessing, "Process", no_process)
        # a pool class imported before the patch still starts its
        # workers through BaseProcess.start
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        server = ReproServer()

        def client_work(host, port):
            with ServeClient(host, port) as client:
                return _batch_request(
                    workload,
                    client,
                    [
                        {"source": tree_to_xml(workload.source), "update": term}
                        for term in terms
                    ],
                    parallel="process",
                    workers=64,
                )

        result = run_with_server(server, client_work)
        assert result["scripts"] == [script.to_term() for script in expected]
        assert result["costs"] == [script.cost for script in expected]

    def _refusal(self, workload, entries):
        server = ReproServer()

        def client_work(host, port):
            with ServeClient(host, port) as client:
                with pytest.raises(RemoteServingError) as caught:
                    _batch_request(workload, client, entries)
            return caught.value

        return run_with_server(server, client_work)

    def test_non_object_entry_is_named(self, workload):
        error = self._refusal(workload, ["oops"])
        assert (error.code, error.remote_type) == ("server_failed", "ServerError")
        assert "'batch' entry 0" in error.payload["message"]

    def test_entry_without_source_is_named(self, workload):
        from repro.xmltree import tree_to_xml

        (term,) = sequential_updates(workload, 1)
        error = self._refusal(
            workload,
            [{"source": tree_to_xml(workload.source), "update": term}, {"update": term}],
        )
        assert error.code == "server_failed"
        assert "'batch' entry 1" in error.payload["message"]
        assert "'source'" in error.payload["message"]

    def test_malformed_source_is_named(self, workload):
        (term,) = sequential_updates(workload, 1)
        error = self._refusal(workload, [{"source": "<r id='n0'>", "update": term}])
        assert (error.code, error.remote_type) == ("server_failed", "ServerError")
        assert error.payload["message"].startswith(
            "request op 'batch' entry 0: no element found"
        )

    def test_malformed_update_is_named(self, workload):
        from repro.xmltree import tree_to_xml

        (term,) = sequential_updates(workload, 1)
        source = tree_to_xml(workload.source)
        error = self._refusal(
            workload,
            [{"source": source, "update": term}, {"source": source, "update": term + ")"}],
        )
        assert (error.code, error.remote_type) == ("server_failed", "ServerError")
        assert error.payload["message"].startswith(
            "request op 'batch' entry 1: trailing input"
        )


def _sharded_book(root):
    """A durable sharded ``huge_document(300)`` at *root*, one view
    update against it, and the unsharded reference script."""
    import random

    from repro.engine import ViewEngine
    from repro.generators.updates import random_view_update
    from repro.generators.workloads import huge_document
    from repro.sharding import ShardedDocument

    big = huge_document(300)
    doc = ShardedDocument.create(
        root, big.source, big.dtd, big.annotation, depth=1, fsync="off"
    )
    doc.close()
    # one sequential update against the huge document's view
    update = random_view_update(
        random.Random(9), big.dtd, big.annotation, big.source, n_ops=1
    )
    expected = ViewEngine(big.dtd, big.annotation).session(big.source).propagate(update)
    return update.to_term(), expected


class TestShardEndpoint:
    def test_shard_propagate_fronts_the_sharded_document(
        self, tmp_path, workload
    ):
        term, expected = _sharded_book(tmp_path / "shards")
        server = ReproServer(shard_root=tmp_path / "shards", fsync="off")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                return client.request("shard_propagate", update=term)

        result = run_with_server(server, client_work)
        assert result["spliced"] is True
        assert result["script"] == expected.to_term()

    def test_shard_propagate_without_splice_returns_the_summary(
        self, tmp_path, workload
    ):
        from repro.sharding import ShardedDocument

        term, expected = _sharded_book(tmp_path / "shards")
        server = ReproServer(shard_root=tmp_path / "shards", fsync="off")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                return client.request("shard_propagate", update=term, splice=False)

        result = run_with_server(server, client_work)
        assert result["spliced"] is False
        assert "script" not in result
        assert result["cost"] == expected.cost
        assert result["touched"] and all(isinstance(r, str) for r in result["touched"])
        assert result["boundary"] is False
        assert result["fresh_used"] >= 0
        # the shards advanced although no script was spliced
        doc = ShardedDocument.open(tmp_path / "shards", fsync="off")
        try:
            assert doc.source == expected.output_tree
        finally:
            doc.close()


class TestShardRequestChecks:
    def test_dirty_must_be_a_list_of_strings(self, tmp_path, workload):
        term, expected = _sharded_book(tmp_path / "shards")
        server = ReproServer(shard_root=tmp_path / "shards", fsync="off")

        def client_work(host, port):
            codes = []
            with ServeClient(host, port) as client:
                for dirty in ("x0", [["x0"]], [1], None, {"x0": 1}):
                    try:
                        client.request("shard_propagate", update=term, dirty=dirty)
                    except RemoteServingError as error:
                        codes.append((error.code, error.remote_type))
                result = client.request("shard_propagate", update=term)
                stats = client.stats()["shard"]
            return codes, result, stats

        codes, result, stats = run_with_server(server, client_work)
        assert codes == [("server_failed", "ServerError")] * 5
        # no rejected request reached the router; the edit then served
        assert result["script"] == expected.to_term()
        assert stats["edits"]["fast"] == 1
        assert stats["parse"] == {"local": 1, "full": 0}

    @pytest.mark.parametrize("case", ["chapter", "spine"])
    def test_hidden_identifier_reuse_is_refused_over_the_wire(self, tmp_path, case):
        from repro.editing import UpdateBuilder
        from repro.generators.workloads import huge_document, running_example
        from repro.sharding import ShardedDocument
        from repro.xmltree import Tree

        if case == "chapter":
            # chapter 0's hidden meta, inserted into the last chapter
            workload, reused = huge_document(200), "c0m"
            view = workload.annotation.view(workload.source)
            last = view.children(view.root)[-1]
            parent = [s for s in view.children(last) if view.label(s) == "section"][0]
            inserted = Tree.leaf("para", reused)
        else:
            # h0, hidden in the spine, inserted under d0
            workload, reused = running_example(4), "h0"
            view = workload.annotation.view(workload.source)
            parent, inserted = "d0", Tree.leaf("c", reused)
        ShardedDocument.create(
            tmp_path / "shards", workload.source, workload.dtd, workload.annotation,
            depth=1, fsync="off",
        ).close()
        edit = UpdateBuilder(view)
        edit.insert(parent, inserted, index=0)
        term = edit.script().to_term()
        server = ReproServer(shard_root=tmp_path / "shards", fsync="off")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                with pytest.raises(RemoteServingError) as refused:
                    client.request("shard_propagate", update=term, dirty=[reused])
                return refused.value

        error = run_with_server(server, client_work)
        assert error.remote_type == "InvalidViewUpdateError"
        assert f"update reuses identifiers hidden by the view: [\"'{reused}'\"]" in str(error)
        doc = ShardedDocument.open(tmp_path / "shards", fsync="off")
        try:
            assert doc.source == workload.source
        finally:
            doc.close()

    def test_metrics_count_requests_by_parse_path(self, tmp_path, workload):
        from repro.editing import EditScript
        from repro.generators.workloads import huge_document

        term, expected = _sharded_book(tmp_path / "shards")
        server = ReproServer(shard_root=tmp_path / "shards", fsync="off")
        view = huge_document(300).annotation.view(expected.output_tree)

        def client_work(host, port):
            with ServeClient(host, port) as client:
                client.request("shard_propagate", update=term)
                # the current view, an identity, spaced other than canonically
                spaced = EditScript.phantom(view).to_term().replace(", ", " , ")
                client.request("shard_propagate", update=spaced)
                return client.request("metrics")["text"]

        text = run_with_server(server, client_work)
        assert_exposition(text)
        assert 'repro_shard_requests_total{parse="local"} 1' in text
        assert 'repro_shard_requests_total{parse="full"} 1' in text


class TestShardServedSizeGuard:
    """A served one-shard edit parses and renders one chapter, whatever
    the book's size (in the style of the session traversal guard)."""

    @pytest.mark.parametrize("n_nodes", [2000, 8000])
    def test_parse_and_render_stay_inside_one_chapter(
        self, tmp_path, monkeypatch, n_nodes
    ):
        from repro.editing import EditScript, UpdateBuilder
        from repro.engine import ViewEngine
        from repro.generators.workloads import huge_document
        from repro.sharding import ShardedDocument
        from repro.xmltree import Tree

        book = huge_document(n_nodes)
        ShardedDocument.create(
            tmp_path / "shards", book.source, book.dtd, book.annotation, depth=1,
            fsync="off",
        ).close()
        chapters = [book.source.subtree(c) for c in book.source.children(book.source.root)]
        max_nodes = max(chapter.size for chapter in chapters) + 1  # one insert
        max_text = max(len(EditScript.phantom(c).to_term()) for c in chapters) + 64
        session = ViewEngine(book.dtd, book.annotation).session(book.source)
        requests = []
        for step in range(5):
            view = session.view
            chapter = view.children(view.root)[7 * step + 1]
            sections = [s for s in view.children(chapter) if view.label(s) == "section"]
            victim = view.children(sections[0])[0]
            edit = UpdateBuilder(view, forbidden_ids=session.source.nodes())
            edit.delete(victim)
            edit.insert(sections[-1], Tree.leaf("para", f"x{step}"), index=1)
            update = edit.script()
            requests.append(
                (update.to_term(), [victim, f"x{step}"], session.propagate(update).to_term())
            )

        parsed, rendered = [], []
        parse = EditScript.__dict__["parse"].__func__
        render = Tree._render

        def spy_parse(cls, text, *args, **kwargs):
            parsed.append(len(text))
            return parse(cls, text, *args, **kwargs)

        def spy_render(tree, *args, **kwargs):
            rendered.append(tree.size)
            return render(tree, *args, **kwargs)

        server = ReproServer(shard_root=tmp_path / "shards", fsync="off")

        def client_work(host, port):
            answers = []
            with ServeClient(host, port) as client:
                for index, (text, dirty, _) in enumerate(requests):
                    if index == 1:  # the first request fills the caches
                        monkeypatch.setattr(EditScript, "parse", classmethod(spy_parse))
                        monkeypatch.setattr(Tree, "_render", spy_render)
                    answers.append(
                        client.request("shard_propagate", update=text, dirty=dirty)
                    )
                monkeypatch.undo()
                return answers, client.stats()["shard"]["parse"]

        answers, parse_paths = run_with_server(server, client_work)
        assert [a["script"] for a in answers] == [expected for _, _, expected in requests]
        assert parse_paths == {"local": 5, "full": 0}
        assert len(parsed) == 4 and max(parsed) <= max_text
        assert rendered and max(rendered) <= max_nodes
