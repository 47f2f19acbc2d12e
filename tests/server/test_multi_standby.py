"""Freshest-standby routing: several followed standbys behind one
server, bounded reads go to the replica with the smallest measured
post-refresh lag — unmeasurable lag fails closed, ties keep
registration order, the primary stays the fallback of last resort."""

import pytest

from repro.replication import StandbyStore, replicate
from repro.server import ReproServer, RemoteServingError, ServeClient
from repro.store import DocumentStore

from .conftest import assert_exposition, run_with_server, sequential_updates


def _advance(store_root, workload, steps, seed):
    """Serve *steps* more updates onto doc0 through a store session."""
    store = DocumentStore(store_root, fsync="off")
    with store.open_session("doc0") as session:
        for term in sequential_updates(workload, steps, seed=seed):
            from repro.editing import EditScript

            session.propagate(EditScript.parse(term))
    store.close()


def _standby(tmp_path, store_root, name, *, primary_root=True):
    standby = StandbyStore.init(
        tmp_path / name, primary_root=store_root if primary_root else None
    )
    store = DocumentStore(store_root, fsync="off")
    replicate(store, standby)
    store.close()
    standby.close()
    return tmp_path / name


class TestFreshestRouting:
    def test_tie_keeps_registration_order(self, tmp_path, store_root):
        roots = [
            _standby(tmp_path, store_root, "sby0"),
            _standby(tmp_path, store_root, "sby1"),
        ]
        server = ReproServer(
            store_root=store_root, standby_root=roots, fsync="off"
        )

        def client_work(host, port):
            with ServeClient(host, port) as client:
                return client.view("doc0", max_lag=0)

        result = run_with_server(server, client_work)
        assert result["served_by"] == "replica"
        assert result["standby"] == 0  # both at lag 0: first registered
        assert result["lag"] == 0

    def test_freshest_wins_not_first(self, tmp_path, store_root, workload):
        """sby0 registered first but left 2 records behind; sby1 caught
        up. Both honour the budget — the *fresher* one serves."""
        stale = _standby(tmp_path, store_root, "sby0")
        _advance(store_root, workload, steps=2, seed=5)
        fresh = _standby(tmp_path, store_root, "sby1")
        server = ReproServer(
            store_root=store_root, standby_root=[stale, fresh], fsync="off"
        )

        def client_work(host, port):
            with ServeClient(host, port) as client:
                return client.view("doc0", max_lag=10)

        result = run_with_server(server, client_work)
        assert result["served_by"] == "replica"
        assert result["standby"] == 1
        assert result["lag"] == 0

    def test_budget_excludes_the_stale_one(self, tmp_path, store_root, workload):
        stale = _standby(tmp_path, store_root, "sby0")
        _advance(store_root, workload, steps=2, seed=5)
        fresh = _standby(tmp_path, store_root, "sby1")
        server = ReproServer(
            store_root=store_root, standby_root=[stale, fresh], fsync="off"
        )

        def client_work(host, port):
            with ServeClient(host, port) as client:
                bounded = client.view("doc0", max_lag=0)
                loose = client.view("doc0", max_lag=2)
            return bounded, loose

        bounded, loose = run_with_server(server, client_work)
        assert (bounded["served_by"], bounded["standby"]) == ("replica", 1)
        assert (loose["served_by"], loose["standby"]) == ("replica", 1)

    def test_unmeasurable_lag_sorts_last_and_fails_closed(
        self, tmp_path, store_root
    ):
        """A dark standby (no primary marker, lag unmeasurable) is never
        preferred: the measurable replica serves bounded reads, and with
        *only* dark replicas the bounded read falls to the primary."""
        dark = _standby(tmp_path, store_root, "dark", primary_root=False)
        fresh = _standby(tmp_path, store_root, "sby1")
        server = ReproServer(
            store_root=store_root, standby_root=[dark, fresh], fsync="off"
        )

        def client_work(host, port):
            with ServeClient(host, port) as client:
                return client.view("doc0", max_lag=0)

        result = run_with_server(server, client_work)
        assert (result["served_by"], result["standby"]) == ("replica", 1)

    def test_all_over_budget_falls_back_to_primary(
        self, tmp_path, store_root, workload
    ):
        roots = [
            _standby(tmp_path, store_root, "sby0"),
            _standby(tmp_path, store_root, "sby1"),
        ]
        _advance(store_root, workload, steps=3, seed=5)  # both now lag 3
        server = ReproServer(
            store_root=store_root, standby_root=roots, fsync="off"
        )

        def client_work(host, port):
            with ServeClient(host, port) as client:
                result = client.view("doc0", max_lag=1)
                return result, client.stats(), client.request("metrics")["text"]

        result, stats, metrics = run_with_server(server, client_work)
        assert result["served_by"] == "primary"
        assert stats["server"]["replica_fallbacks"] == {"doc0": 1}
        assert_exposition(metrics)
        assert 'repro_replica_fallbacks_total{doc="doc0"} 1' in metrics

    def test_standby_only_server_surfaces_the_lag_error(
        self, tmp_path, store_root, workload
    ):
        roots = [
            _standby(tmp_path, store_root, "sby0"),
            _standby(tmp_path, store_root, "sby1"),
        ]
        _advance(store_root, workload, steps=3, seed=5)
        server = ReproServer(standby_root=roots)

        def client_work(host, port):
            with ServeClient(host, port) as client:
                with pytest.raises(RemoteServingError) as caught:
                    client.view("doc0", max_lag=1)
            return caught.value

        error = run_with_server(server, client_work)
        assert error.payload["code"] == "replication_lag"

    def test_partial_doc_coverage_skips_the_missing_standby(
        self, tmp_path, store_root
    ):
        """sby0 only carries doc1: reads of doc0 must route to sby1
        without tripping over the standby that never bootstrapped it."""
        partial = tmp_path / "sby0"
        standby = StandbyStore.init(partial, primary_root=store_root)
        store = DocumentStore(store_root, fsync="off")
        replicate(store, standby, doc_ids=["doc1"])
        store.close()
        standby.close()
        full = _standby(tmp_path, store_root, "sby1")
        server = ReproServer(
            store_root=store_root, standby_root=[partial, full], fsync="off"
        )

        def client_work(host, port):
            with ServeClient(host, port) as client:
                doc0 = client.view("doc0", max_lag=0)
                doc1 = client.view("doc1", max_lag=0)
            return doc0, doc1

        doc0, doc1 = run_with_server(server, client_work)
        assert (doc0["served_by"], doc0["standby"]) == ("replica", 1)
        assert doc1["served_by"] == "replica"
        assert doc1["standby"] in (0, 1)  # both carry doc1; 0 is first

    def test_single_standby_argument_still_works(self, tmp_path, store_root):
        """Back-compat: a bare (non-list) standby_root behaves exactly
        as before the multi-standby extension."""
        root = _standby(tmp_path, store_root, "sby0")
        server = ReproServer(store_root=store_root, standby_root=root, fsync="off")

        def client_work(host, port):
            with ServeClient(host, port) as client:
                return client.view("doc0", max_lag=0)

        result = run_with_server(server, client_work)
        assert (result["served_by"], result["standby"]) == ("replica", 0)
