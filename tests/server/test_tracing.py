"""Served tracing: trace_id round trips, the /debug surfaces, and the
per-standby shipped-lag gauge."""

import json
import random

import pytest

from repro import UpdateBuilder, obs, parse_term
from repro.editing import EditScript
from repro.engine import ViewEngine
from repro.generators.updates import random_view_update
from repro.generators.workloads import hospital
from repro.replication import QueueTransport, StandbyStore, WalShipper
from repro.server import RemoteServingError, ReproServer, ServeClient
from repro.store import DocumentStore

from .conftest import run_with_server, sequential_updates


def _scrape(host, port, path):
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


@pytest.fixture
def tracer():
    """The process default tracer (the one handlers record to),
    enabled for the test and restored to disabled afterwards."""
    t = obs.configure(
        enabled=True, sample_rate=1.0, slow_threshold=60.0, keep=64
    )
    t.reset()
    yield t
    t.reset()
    obs.configure(enabled=False)


def span_names(span_dict, depth=0):
    yield depth, span_dict["name"]
    for child in span_dict.get("children", []):
        yield from span_names(child, depth + 1)


def _spans(span_dict):
    yield span_dict
    for child in span_dict.get("children", []):
        yield from _spans(child)


class TestServedTraces:
    def test_propagate_trace_tree_is_retrievable_by_trace_id(
        self, tracer, tmp_path, workload
    ):
        # fsync="always" so the journal subtree shows a real fsync span
        store = DocumentStore.init(tmp_path / "traced", fsync="always")
        store.put("doc0", workload.source, workload.dtd, workload.annotation)
        store.close()
        terms = sequential_updates(workload, 1, seed=3)
        server = ReproServer(store_root=tmp_path / "traced", fsync="always")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                client.propagate("doc0", terms[0])
                trace_id = client.last_trace_id
            assert trace_id
            status, body = _scrape(
                host, port, f"/debug/traces?trace_id={trace_id}"
            )
            assert status == 200
            return trace_id, json.loads(body)

        trace_id, payload = run_with_server(server, client_work)
        assert payload["found"] is True
        record = payload["trace"]
        assert record["trace_id"] == trace_id
        tree = list(span_names(record["root"]))
        names = [name for _, name in tree]
        # the acceptance tree: request → engine.propagate → stages,
        # and the journal's WAL spans
        assert tree[0] == (0, "request")
        engine_depth = next(d for d, n in tree if n == "engine.propagate")
        for stage in ("validate", "graphs", "script"):
            assert (engine_depth + 1, stage) in tree
        journal_depth = next(d for d, n in tree if n == "session.journal")
        assert (journal_depth + 1, "wal.append") in tree
        assert (journal_depth + 1, "fsync") in tree
        assert "seq" not in names  # sanity: names, not attrs

    def test_propagate_trace_counts_the_edit_not_the_width(self, tracer, tmp_path):
        """The graphs span counts the sweep cells computed and the runs of
        untouched children crossed through a word index; the validate
        span the automaton steps. A one-patient edit of a 240-patient
        ward computes a handful of cells and steps, not the ward."""
        workload = hospital(240)
        store = DocumentStore.init(tmp_path / "wide", fsync="off")
        store.put("ward", workload.source, workload.dtd, workload.annotation)
        store.close()
        view = workload.annotation.view(workload.source)
        terms = []
        for step, victim in enumerate(("p1", "p2")):
            builder = UpdateBuilder(view, forbidden_ids=workload.source.nodes())
            builder.delete(victim)
            builder.insert("w", parse_term(f"patient#q{step}(name#q{step}n, admission#q{step}a)"),
                           index=100)
            update = builder.script()
            terms.append(update.to_term())
            view = update.output_tree
        server = ReproServer(store_root=tmp_path / "wide", fsync="off")

        def client_work(host, port):
            traces = []
            with ServeClient(host, port) as client:
                for term in terms:
                    client.propagate("ward", term)
                    trace_id = client.last_trace_id
                    traces.append(json.loads(
                        _scrape(host, port, f"/debug/traces?trace_id={trace_id}")[1]
                    ))
            return traces

        first, second = run_with_server(server, client_work)
        for payload in (first, second):
            spans = {span["name"]: span for span in _spans(payload["trace"]["root"])}
            graphs, validate = spans["graphs"]["attrs"], spans["validate"]["attrs"]
            assert graphs["runs"] >= 2, graphs  # the ward's untouched patients
            assert 0 < graphs["cells"] <= 32, graphs
        # a reopened document's first update is validated in full, the
        # next at its edit
        assert 0 < validate["steps"] <= 16, validate

    def test_first_request_after_a_restart_shows_its_replay(
        self, tracer, tmp_path, workload
    ):
        store = DocumentStore.init(tmp_path / "replayed", fsync="off")
        store.put("doc0", workload.source, workload.dtd, workload.annotation)
        terms = sequential_updates(workload, 4, seed=5)
        with store.open_session("doc0") as session:  # the run before the restart
            for term in terms[:3]:
                session.propagate(EditScript.parse(term, base=session.view))
        wal = (tmp_path / "replayed/docs/doc0/wal.log").read_bytes()
        store.close()
        tracer.reset()
        server = ReproServer(store_root=tmp_path / "replayed", fsync="off")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                assert client.propagate("doc0", terms[3])["seq"] == 4
                trace_id = client.last_trace_id
            return json.loads(_scrape(host, port, f"/debug/traces?trace_id={trace_id}")[1])

        payload = run_with_server(server, client_work)
        (replay,) = [
            span for span in _spans(payload["trace"]["root"])
            if span["name"] == "store.replay"
        ]
        # the three records' bytes: the log minus its header and frame headers
        body = sum(
            int(line.split()[2]) for line in wal.splitlines() if line.startswith(b"R ")
        )
        assert replay["attrs"] == {"doc": "doc0", "records": 3, "bytes": body}

    def test_client_trace_id_round_trips_through_the_error_envelope(
        self, tracer, store_root
    ):
        server = ReproServer(store_root=store_root, fsync="off")
        supplied = "deadbeefdeadbeef"

        def client_work(host, port):
            with ServeClient(host, port) as client:
                with pytest.raises(RemoteServingError) as excinfo:
                    client.view("ghost", trace_id=supplied)
                return client.last_trace_id, excinfo.value

        envelope_id, error = run_with_server(server, client_work)
        assert envelope_id == supplied
        assert error.trace_id == supplied
        assert error.payload["trace_id"] == supplied
        assert supplied in str(error)
        # the failed request was kept (errors escape sampling) and is
        # findable under the *client's* id
        record = tracer.find(supplied)
        assert record is not None and record["error"] is not None

    def test_trace_id_echo_survives_tracing_disabled(self, store_root):
        assert not obs.tracing_enabled()
        server = ReproServer(store_root=store_root, fsync="off")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                client.ping()
                untraced = client.last_trace_id
                client.request("ping", trace_id="cafe0001cafe0001")
                return untraced, client.last_trace_id

        untraced, echoed = run_with_server(server, client_work)
        assert untraced is None  # no tracer, no id invented
        assert echoed == "cafe0001cafe0001"  # correlation still works

    def test_debug_slow_surfaces_over_threshold_requests(
        self, tracer, store_root, workload
    ):
        tracer.configure(slow_threshold=0.0)  # everything is "slow"
        terms = sequential_updates(workload, 1, seed=9)
        server = ReproServer(store_root=store_root, fsync="off")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                client.propagate("doc1", terms[0])
            status, body = _scrape(host, port, "/debug/slow?limit=5")
            assert status == 200
            return json.loads(body)

        payload = run_with_server(server, client_work)
        assert payload["threshold_ms"] == 0.0
        assert payload["slow"], "over-threshold trace missing from /debug/slow"
        assert payload["slow"][0]["slow"] is True
        assert payload["tracing"]["slow"] >= 1

    def test_stats_gain_a_tracing_section(self, tracer, store_root, workload):
        terms = sequential_updates(workload, 1, seed=13)
        server = ReproServer(store_root=store_root, fsync="off")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                client.propagate("doc3", terms[0])
                framed = client.stats()
            status, body = _scrape(host, port, "/stats")
            assert status == 200
            return framed, json.loads(body)

        framed, http_stats = run_with_server(server, client_work)
        for payload in (framed, http_stats):
            tracing = payload["tracing"]
            assert tracing["enabled"] is True
            assert tracing["kept"] >= 1
            assert {"started", "dropped", "slow_log_size"} <= set(tracing)


class TestShippedLagGauge:
    def _primary_with_updates(self, tmp_path, workload, steps=3):
        store = DocumentStore.init(tmp_path / "primary", fsync="off")
        store.put("doc", workload.source, workload.dtd, workload.annotation)
        rng = random.Random(31)
        engine = ViewEngine(workload.dtd, workload.annotation)
        with store.open_session("doc", engine=engine) as session:
            for _ in range(steps):
                session.propagate(
                    random_view_update(
                        rng, workload.dtd, workload.annotation,
                        session.source, n_ops=2,
                    )
                )
        return store

    def test_metrics_export_per_standby_lag(self, tmp_path, workload):
        store = self._primary_with_updates(tmp_path, workload)
        standby = StandbyStore.init(
            tmp_path / "standby", primary_root=tmp_path / "primary"
        )
        shipper = WalShipper(store, QueueTransport()).resume_from(standby)
        assert shipper.lag() == {"doc": 3}  # nothing shipped yet

        server = ReproServer(store_root=tmp_path / "primary", fsync="off")
        server.attach_shipper(shipper)
        label = str(standby.root)
        text = server.metrics_text()
        assert (
            f'repro_shipper_lag{{doc="doc",standby="{label}"}} 3' in text
        )
        assert f'repro_shipper_records_total{{standby="{label}"}} 0' in text

        shipper.ship_all()
        text = server.metrics_text()
        assert (
            f'repro_shipper_lag{{doc="doc",standby="{label}"}} 0' in text
        )
        assert "shippers" in server.stats_payload()
        standby.close()
        store.close()
