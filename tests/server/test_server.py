"""End-to-end serving: concurrency, typed errors, metrics, drain.

Everything runs an in-process :class:`ReproServer` on a loopback port
with real sockets — the same bytes a remote client would send.
"""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.engine import ViewEngine
from repro.errors import exit_code, UnknownDocumentError
from repro.registry import EngineRegistry, schema_fingerprint
from repro.server import ReproServer, RemoteServingError, ServeClient
from repro.server import handlers
from repro.xmltree import tree_to_xml

from .conftest import assert_exposition, in_thread, run_with_server, sequential_updates


def _scrape(host, port, path="/metrics"):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


class TestConcurrentClients:
    def test_four_clients_on_distinct_documents_match_in_process(
        self, store_root, workload
    ):
        """The acceptance bar: >= 4 concurrent clients streaming updates
        to distinct documents, zero cross-session corruption — every
        translated script byte-identical to in-process serving."""
        streams = {
            f"doc{index}": sequential_updates(workload, 6, seed=100 + index)
            for index in range(4)
        }
        server = ReproServer(store_root=store_root, fsync="off")

        def one_client(host, port, doc_id):
            scripts = []
            with ServeClient(host, port) as client:
                for term in streams[doc_id]:
                    result = client.propagate(doc_id, term)
                    scripts.append(result["script"])
            return scripts

        def client_work(host, port):
            threads = [
                in_thread(one_client, host, port, doc_id) for doc_id in streams
            ]
            results = {}
            for (thread, box), doc_id in zip(threads, streams):
                thread.join(timeout=120)
                assert not thread.is_alive()
                if "error" in box:
                    raise box["error"]
                results[doc_id] = box["result"]
            return results

        served = run_with_server(server, client_work)

        from repro.editing import EditScript

        for doc_id, terms in streams.items():
            engine = ViewEngine(workload.dtd, workload.annotation)
            session = engine.session(workload.source)
            expected = [
                session.propagate(EditScript.parse(term)).to_term()
                for term in terms
            ]
            assert served[doc_id] == expected, doc_id

    def test_one_document_keeps_sequential_session_semantics(
        self, store_root, workload
    ):
        """One document, one writer streaming its sequential chain while
        three readers hammer `view` and `stats`: the per-document lock
        must serialise session access — the final served states and
        every observed view must be states of the sequential history,
        never a torn interleaving."""
        terms = sequential_updates(workload, 6, seed=7)

        # the legitimate view states: one per prefix of the chain
        from repro.editing import EditScript

        engine = ViewEngine(workload.dtd, workload.annotation)
        session = engine.session(workload.source)
        legit_views = {tree_to_xml(session.view)}
        for term in terms:
            session.propagate(EditScript.parse(term))
            legit_views.add(tree_to_xml(session.view))
        final_source = session.source.to_term()

        server = ReproServer(store_root=store_root, fsync="off")
        stop = threading.Event()
        observed = []

        def writer(host, port):
            with ServeClient(host, port) as client:
                for term in terms:
                    client.propagate("doc0", term)
                    time.sleep(0.01)  # let readers interleave
            stop.set()

        def reader(host, port):
            with ServeClient(host, port) as client:
                while not stop.is_set():
                    observed.append(client.view("doc0")["view"])
                    client.request("stats")

        def client_work(host, port):
            workers = [in_thread(writer, host, port)] + [
                in_thread(reader, host, port) for _ in range(3)
            ]
            for thread, box in workers:
                thread.join(timeout=120)
                assert not thread.is_alive()
                if "error" in box:
                    raise box["error"]
            return None

        async def check_final(running):
            assert running.session("doc0").source.to_term() == final_source

        run_with_server(server, client_work, after=check_final)
        assert observed, "readers never got a view"
        torn = [view for view in observed if view not in legit_views]
        assert not torn, f"{len(torn)} observed views are not prefix states"

    def test_conflicting_writer_fails_typed_without_corruption(
        self, store_root, workload
    ):
        """Two writers race the same document with the same update: the
        loser gets a typed invalid_view_update payload (its update was
        built against a view the winner already advanced) and the
        document ends exactly one propagation ahead — not a blend."""
        term = sequential_updates(workload, 1, seed=23)[0]
        server = ReproServer(store_root=store_root, fsync="off")

        def client_work(host, port):
            outcomes = []
            barrier = threading.Barrier(2)

            def racer():
                with ServeClient(host, port) as client:
                    barrier.wait()
                    try:
                        client.propagate("doc1", term)
                        return "ok"
                    except RemoteServingError as error:
                        return error.code

            threads = [in_thread(racer) for _ in range(2)]
            for thread, box in threads:
                thread.join(timeout=60)
                outcomes.append(box.get("result") or box.get("error"))
            return outcomes

        async def check_final(running):
            assert running.session("doc1").last_seq == 1

        outcomes = run_with_server(server, client_work, after=check_final)
        assert sorted(str(o) for o in outcomes) == ["invalid_view_update", "ok"]


class TestTypedErrorPayloads:
    def test_unknown_document_maps_to_table_code(self, store_root):
        server = ReproServer(store_root=store_root, fsync="off")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                with pytest.raises(RemoteServingError) as caught:
                    client.view("nope")
                return caught.value

        error = run_with_server(server, client_work)
        assert error.code == "unknown_document"
        assert error.remote_exit_code == exit_code(UnknownDocumentError("nope"))
        assert error.remote_type == "UnknownDocumentError"

    def test_unknown_op_and_malformed_request(self, store_root):
        server = ReproServer(store_root=store_root, fsync="off")

        def client_work(host, port):
            codes = []
            with ServeClient(host, port) as client:
                for request in ({"op": "frobnicate"}, {"op": "propagate"}):
                    try:
                        client.request(**request)
                    except RemoteServingError as error:
                        codes.append(error.code)
            return codes

        assert run_with_server(server, client_work) == [
            "server_failed",
            "server_failed",
        ]

    def test_request_id_is_echoed(self, store_root):
        server = ReproServer(store_root=store_root, fsync="off")

        def client_work(host, port):
            from repro.server.protocol import encode_message

            with ServeClient(host, port) as client:
                client._sock.sendall(
                    encode_message({"op": "ping", "id": "req-42"})
                )
                return client._read_response()

        response = run_with_server(server, client_work)
        assert response["ok"] and response["id"] == "req-42"


class TestMetricsScrape:
    def test_metrics_shape_covers_the_stack(self, store_root, workload):
        terms = sequential_updates(workload, 2, seed=5)
        # a registry of its own, so the engine counts only this server's work
        server = ReproServer(
            store_root=store_root, fsync="off", registry=EngineRegistry()
        )

        def client_work(host, port):
            with ServeClient(host, port) as client:
                for term in terms:
                    client.propagate("doc2", term)
                client.view("doc2")
            status, text = _scrape(host, port)
            assert status == 200
            return text

        text = run_with_server(server, client_work)
        assert_exposition(text)
        # per-endpoint counters and latencies
        assert 'repro_server_requests_total{endpoint="propagate"} 2' in text
        assert 'repro_server_requests_total{endpoint="view"} 1' in text
        assert 'repro_server_request_seconds_sum{endpoint="propagate"}' in text
        assert 'repro_server_request_seconds_count{endpoint="propagate"} 2' in text
        assert 'repro_server_request_seconds_max{endpoint="propagate"}' in text
        # the fixed-bucket latency histogram rides alongside the summary
        assert "# TYPE repro_server_latency_seconds histogram" in text
        assert 'repro_server_latency_seconds_bucket{endpoint="propagate",le="0.001"}' in text
        assert 'repro_server_latency_seconds_bucket{endpoint="propagate",le="+Inf"} 2' in text
        assert 'repro_server_latency_seconds_sum{endpoint="propagate"}' in text
        assert 'repro_server_latency_seconds_count{endpoint="propagate"} 2' in text
        # tracing retention counters export even while tracing is off
        assert "repro_tracing_enabled" in text
        assert 'repro_traces_total{outcome="kept"}' in text
        # registry and engine counters
        assert "repro_registry_hit_rate" in text
        # every propagate served on the schema, though sessions serve them
        schema = schema_fingerprint(workload.dtd, workload.annotation)[:12]
        assert (
            f'repro_engine_counter{{counter="propagations",schema="{schema}"}} 2'
            in text
        )
        # per-document WAL counters
        assert 'repro_wal_appends_total{doc="doc2"} 2' in text
        assert 'repro_wal_last_seq{doc="doc2"} 2' in text
        assert 'repro_session_propagations_total{doc="doc2"} 2' in text
        # serving gauges
        assert "repro_server_draining 0" in text

    def test_healthz_and_stats_routes(self, store_root):
        server = ReproServer(store_root=store_root, fsync="off")

        def client_work(host, port):
            results = {}
            results["health"] = _scrape(host, port, "/healthz")
            results["stats"] = _scrape(host, port, "/stats")
            results["missing"] = _scrape(host, port, "/nope")
            return results

        results = run_with_server(server, client_work)
        assert results["health"] == (200, "ok\n")
        status, body = results["stats"]
        assert status == 200
        payload = json.loads(body)
        assert "registry" in payload and "server" in payload
        assert results["missing"][0] == 404

    def test_errors_are_counted_by_code(self, store_root):
        server = ReproServer(store_root=store_root, fsync="off")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                for _ in range(3):
                    try:
                        client.view("ghost")
                    except RemoteServingError:
                        pass
            return _scrape(host, port)[1]

        text = run_with_server(server, client_work)
        assert_exposition(text)
        assert (
            'repro_server_errors_total{code="unknown_document",endpoint="view"} 3'
            in text
        )


class TestGracefulDrain:
    def test_inflight_request_finishes_before_sessions_close(
        self, store_root, workload, monkeypatch
    ):
        """SIGTERM semantics: a request already being served completes
        (and its response flushes) before any session closes or lease
        releases; requests arriving during the drain are refused with a
        typed payload."""
        term = sequential_updates(workload, 1, seed=3)[0]
        server = ReproServer(store_root=store_root, fsync="off")

        original = handlers.HANDLERS["propagate"]
        entered = threading.Event()

        async def slow_propagate(srv, request):
            entered.set()
            await asyncio.sleep(0.3)
            return await original(srv, request)

        monkeypatch.setitem(handlers.HANDLERS, "propagate", slow_propagate)
        done_order = []

        async def main():
            host, port = await server.start()
            loop = asyncio.get_running_loop()

            def slow_client():
                with ServeClient(host, port) as client:
                    result = client.propagate("doc3", term)
                    done_order.append("response_received")
                    return result

            slow = loop.run_in_executor(None, slow_client)
            await loop.run_in_executor(None, entered.wait, 10)
            drain = asyncio.ensure_future(server.drain())
            result = await slow
            await drain
            done_order.append("drain_returned")
            return result

        result = asyncio.run(main())
        assert result["seq"] == 1
        assert done_order == ["response_received", "drain_returned"]
        log = server.drain_log
        assert log.index("requests_drained") < log.index("sessions_closed")
        assert log.index("sessions_closed") < log.index("stores_closed")

    def test_drain_refuses_new_requests(self, store_root):
        server = ReproServer(store_root=store_root, fsync="off")

        async def main():
            host, port = await server.start()
            loop = asyncio.get_running_loop()

            def connect():
                return ServeClient(host, port)

            client = await loop.run_in_executor(None, connect)
            drain = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0)  # let the drain flip the flag

            def late_request():
                try:
                    client.ping()
                    return "served"
                except Exception as error:
                    return error
                finally:
                    client.close()

            outcome = await loop.run_in_executor(None, late_request)
            await drain
            return outcome

        outcome = asyncio.run(main())
        # either the typed draining refusal, or the socket was already
        # gone — never a silently served request
        if isinstance(outcome, RemoteServingError):
            assert outcome.code == "server_failed"
            assert "draining" in str(outcome)
        else:
            assert not isinstance(outcome, str)
