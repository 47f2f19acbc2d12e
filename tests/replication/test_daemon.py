"""The follow daemon: live TCP shipping, stateless resume, backoff.

These tests run the real topology in-process — real sockets, real
threads, real WAL bytes — because the daemon's whole contract is about
what survives on the wire and on disk. Convergence is always measured
on the *standby's* durable positions (shipper lag reaching zero only
says the frames left; the applier still has to apply and ack them),
and byte-compares happen against files no thread is writing.
"""

import socket
import threading
import time

import pytest

from repro.errors import ReplicationError
from repro.replication import (
    FollowerServer,
    ShipperDaemon,
    SocketTransport,
    StandbyStore,
    parse_address,
)
from repro.store import DocumentStore

from .conftest import serve_updates


def wait_until(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def wal_bytes(store, doc_id="doc"):
    return (store.root / "docs" / doc_id / "wal.log").read_bytes()


def converged(primary, standby, doc_id="doc"):
    """Durable convergence: the standby's applied position matches the
    primary's last sequence AND the WAL bytes agree."""
    try:
        from repro.store.wal import scan_wal

        want = scan_wal(primary.root / "docs" / doc_id / "wal.log").last_seq
        return standby.applied_seq(doc_id) == want and wal_bytes(
            primary, doc_id
        ) == wal_bytes(standby, doc_id)
    except Exception:
        return False


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:7401") == ("127.0.0.1", 7401)

    @pytest.mark.parametrize("bad", ["nocolon", ":7401", "host:port"])
    def test_malformed_addresses_are_refused(self, bad):
        with pytest.raises(ReplicationError):
            parse_address(bad)


class TestTcpTransportBinding:
    """SocketTransport bound to the two ends of a real TCP connection —
    the exact wiring the daemon and the follower use."""

    def _tcp_pair(self):
        listener = socket.create_server(("127.0.0.1", 0))
        client = socket.create_connection(listener.getsockname())
        server, _ = listener.accept()
        listener.close()
        return client, server

    def test_send_end_and_recv_end_are_directional(self):
        client, server = self._tcp_pair()
        sender = SocketTransport(send_sock=client)
        receiver = SocketTransport(recv_sock=server)
        try:
            sender.send("record", {"doc_id": "a", "seq": 1, "text": "Nop.r#n0"})
            assert wait_until(lambda: bool(receiver.drain()), timeout=5)
            with pytest.raises(ReplicationError, match="only sends"):
                sender.drain()
            with pytest.raises(ReplicationError, match="only receives"):
                receiver.send("record", {})
        finally:
            sender.close()
            receiver.close()

    def test_peer_close_sets_eof(self):
        client, server = self._tcp_pair()
        receiver = SocketTransport(recv_sock=server)
        try:
            client.close()
            assert wait_until(
                lambda: (receiver.drain(), receiver.eof)[1], timeout=5
            )
        finally:
            receiver.close()


class TestAppendHook:
    def test_hook_fires_per_durable_append_and_unsubscribes(
        self, tmp_path, workload
    ):
        store = DocumentStore.init(tmp_path / "p", fsync="off")
        store.put("doc", workload.source, workload.dtd, workload.annotation)
        seen = []
        unsubscribe = store.on_append(lambda doc, seq: seen.append((doc, seq)))
        serve_updates(store, "doc", workload, steps=3)
        assert seen == [("doc", 1), ("doc", 2), ("doc", 3)]
        unsubscribe()
        serve_updates(store, "doc", workload, steps=2, seed=99)
        assert len(seen) == 3
        store.close()

    def test_broken_listener_does_not_break_appends(self, tmp_path, workload):
        store = DocumentStore.init(tmp_path / "p", fsync="off")
        store.put("doc", workload.source, workload.dtd, workload.annotation)

        def boom(doc, seq):
            raise RuntimeError("observer crashed")

        store.on_append(boom)
        serve_updates(store, "doc", workload, steps=2)  # must not raise
        from repro.store.wal import scan_wal

        assert scan_wal(store.root / "docs/doc/wal.log").last_seq == 2
        store.close()


class TestFollowEndToEnd:
    def test_two_standbys_converge_and_tail_live_appends(
        self, tmp_path, primary, workload
    ):
        store, doc_id, _, _ = primary
        standbys = [
            StandbyStore.init(tmp_path / f"sby{i}", primary_root=store.root)
            for i in range(2)
        ]
        followers = [FollowerServer(s, listen=("127.0.0.1", 0)) for s in standbys]
        try:
            for follower in followers:
                follower.start()
            daemon = ShipperDaemon(
                store,
                connect=[f.address for f in followers],
                poll_interval=0.05,
            )
            with daemon:
                assert daemon.wait_caught_up(timeout=30)
                # historical backlog (5 records) shipped on handshake
                for standby in standbys:
                    assert wait_until(lambda s=standby: converged(store, s))
                # live tail: new appends reach both standbys via the hook
                serve_updates(store, doc_id, workload, steps=3, seed=7)
                for standby in standbys:
                    assert wait_until(lambda s=standby: converged(store, s))
                for link in daemon.links:
                    assert link.shipper.connected
                    assert link.frames_sent >= 4  # bootstrap + records
                    # acks ride back asynchronously; wait for the last one
                    assert wait_until(
                        lambda l=link: l.acked.get(doc_id) == 8, timeout=10
                    )
        finally:
            for follower in followers:
                follower.stop()
            for standby in standbys:
                standby.close()

    def test_listen_mode_daemon_feeds_dialling_followers(
        self, tmp_path, primary
    ):
        """The reverse topology: the daemon accepts, appliers dial in —
        and a departed applier's link deregisters (no stale shipper
        rows left behind for metrics)."""
        store, doc_id, _, _ = primary
        standby = StandbyStore.init(tmp_path / "sby", primary_root=store.root)
        daemon = ShipperDaemon(store, listen=("127.0.0.1", 0), poll_interval=0.05)
        try:
            daemon.start()
            follower = FollowerServer(standby, connect=daemon.listen_address)
            with follower:
                assert wait_until(lambda: converged(store, standby))
                assert len(daemon.shippers) == 1
            # follower gone: the adopted link cannot redial and retires
            assert wait_until(lambda: len(daemon.shippers) == 0)
        finally:
            daemon.stop()
            standby.close()


class TestStatelessResume:
    def test_daemon_restart_resumes_from_the_standby_hello(
        self, tmp_path, primary, workload
    ):
        store, doc_id, _, _ = primary
        standby = StandbyStore.init(tmp_path / "sby", primary_root=store.root)
        with FollowerServer(standby, listen=("127.0.0.1", 0)) as follower:
            with ShipperDaemon(store, connect=[follower.address]) as daemon:
                assert daemon.wait_caught_up()
                assert wait_until(lambda: converged(store, standby))
            # daemon dead; the primary keeps writing
            serve_updates(store, doc_id, workload, steps=4, seed=13)
            assert not converged(store, standby)
            # a *fresh* daemon holds no state: resume comes from hello
            with ShipperDaemon(store, connect=[follower.address]) as daemon:
                assert daemon.wait_caught_up()
                assert wait_until(lambda: converged(store, standby))
                # resume shipped only the missing tail, no re-bootstrap
                (link,) = daemon.links
                assert link.frames_sent == 4
        standby.close()

    def test_wiped_standby_is_rebootstrapped_not_resumed(
        self, tmp_path, primary
    ):
        store, doc_id, _, _ = primary
        standby = StandbyStore.init(tmp_path / "sby", primary_root=store.root)
        with FollowerServer(standby, listen=("127.0.0.1", 0)) as follower:
            with ShipperDaemon(store, connect=[follower.address]) as daemon:
                assert daemon.wait_caught_up()
                assert wait_until(lambda: converged(store, standby))
        standby.close()
        # the replica is destroyed and recreated empty on the same port
        import shutil

        shutil.rmtree(tmp_path / "sby")
        standby = StandbyStore.init(tmp_path / "sby", primary_root=store.root)
        with FollowerServer(standby, listen=("127.0.0.1", 0)) as follower:
            with ShipperDaemon(store, connect=[follower.address]) as daemon:
                assert daemon.wait_caught_up()
                assert wait_until(lambda: converged(store, standby))
        standby.close()

    def test_applier_restart_resumes_on_the_same_port(
        self, tmp_path, primary, workload
    ):
        store, doc_id, _, _ = primary
        standby = StandbyStore.init(tmp_path / "sby", primary_root=store.root)
        follower = FollowerServer(standby, listen=("127.0.0.1", 0)).start()
        port_address = follower.address
        daemon = ShipperDaemon(
            store,
            connect=[port_address],
            poll_interval=0.05,
            backoff_base=0.01,
            backoff_max=0.05,
        )
        try:
            daemon.start()
            assert wait_until(lambda: converged(store, standby))
            follower.stop()  # the applier dies
            serve_updates(store, doc_id, workload, steps=3, seed=23)
            # the daemon is redialling into the void with capped backoff
            assert wait_until(lambda: daemon.links[0].reconnects >= 1)
            follower = FollowerServer(standby, listen=port_address).start()
            assert wait_until(lambda: converged(store, standby))
        finally:
            daemon.stop()
            follower.stop()
            standby.close()


class _DroppingListener:
    """A flaky applier stand-in: accepts and immediately hangs up the
    first *drops* connections, then stops accepting — the reconnect
    schedule the backoff suite drives the daemon through."""

    def __init__(self, drops):
        self.drops = drops
        self.seen = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.1)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    @property
    def address(self):
        return self._listener.getsockname()[:2]

    def _run(self):
        while not self._stop.is_set() and self.seen < self.drops:
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.seen += 1
            conn.close()  # no hello, no feed: the link must back off

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5)
        try:
            self._listener.close()
        except OSError:
            pass


class TestReconnectBackoff:
    def test_backoff_grows_exponentially_and_caps(self, primary):
        store, _, _, _ = primary
        flaky = _DroppingListener(drops=5)
        daemon = ShipperDaemon(
            store,
            connect=[flaky.address],
            handshake_timeout=0.2,
            backoff_base=0.01,
            backoff_max=0.04,
        )
        try:
            daemon.start()
            (link,) = daemon.links
            assert wait_until(lambda: len(link.backoff_delays) >= 5, timeout=30)
        finally:
            daemon.stop()
            flaky.stop()
        delays = link.backoff_delays[:5]
        assert delays == sorted(delays)  # non-decreasing
        assert delays[0] == pytest.approx(0.01)
        assert max(delays) <= 0.04  # capped
        assert 0.04 in delays
        assert link.reconnects >= 5
        assert link.last_error is not None
        assert link.shipper.connected is False

    def test_feed_recovers_after_the_flaky_window(self, tmp_path, primary):
        """Connections dropped on a schedule, then a real applier takes
        over the same port: the link must converge without help."""
        store, _, _, _ = primary
        flaky = _DroppingListener(drops=3)
        address = flaky.address
        daemon = ShipperDaemon(
            store,
            connect=[address],
            handshake_timeout=0.2,
            backoff_base=0.01,
            backoff_max=0.05,
        )
        standby = StandbyStore.init(tmp_path / "sby", primary_root=store.root)
        follower = None
        try:
            daemon.start()
            assert wait_until(lambda: flaky.seen >= 3, timeout=30)
            flaky.stop()
            follower = FollowerServer(standby, listen=address).start()
            assert wait_until(lambda: converged(store, standby))
            assert daemon.links[0].reconnects >= 3
        finally:
            daemon.stop()
            if follower is not None:
                follower.stop()
            flaky.stop()
            standby.close()


class TestDamagedFeed:
    def test_length_beyond_the_limit_ends_the_feed(self, tmp_path, primary):
        """A shipper whose first frame declares 100 GB: the applier ends
        the feed instead of buffering toward it, names the limit, and
        applies none of the intact frames behind it."""
        from repro.replication import encode_frame
        from repro.server.protocol import message_buffer

        store, doc_id, _, _ = primary
        standby = StandbyStore.init(tmp_path / "sby", primary_root=store.root)
        with FollowerServer(standby, listen=("127.0.0.1", 0)) as follower:
            with socket.create_connection(follower.address, timeout=10) as conn:
                buffer, hello = message_buffer(), []
                while not hello:
                    hello = buffer.feed(conn.recv(1 << 16))
                assert hello[0]["op"] == "hello"
                intact = b"".join(
                    encode_frame("record", {"doc_id": doc_id, "seq": seq, "text": "x"})
                    for seq in (1, 2)
                )
                conn.sendall(b"F record 99999999999 0\n" + intact)
                conn.settimeout(5)
                try:  # the applier hangs up (a reset if bytes were unread)
                    assert conn.recv(1 << 16) == b""
                except ConnectionResetError:
                    pass
            assert wait_until(lambda: follower.last_error is not None)
            assert "frame limit" in follower.last_error
            assert follower.applied == 0 and standby.positions() == {}
        standby.close()


class TestDaemonStats:
    def test_stats_shape(self, tmp_path, primary):
        store, doc_id, _, _ = primary
        standby = StandbyStore.init(tmp_path / "sby", primary_root=store.root)
        with FollowerServer(standby, listen=("127.0.0.1", 0)) as follower:
            with ShipperDaemon(store, connect=[follower.address]) as daemon:
                assert daemon.wait_caught_up()
                stats = daemon.stats
                assert stats["running"] is True
                (link,) = stats["links"]
                assert link["standby"] == "%s:%d" % follower.address
                assert link["connected"] is True
                assert link["lag"] == {doc_id: 0}
            # the applier drains the closed feed's tail asynchronously
            assert wait_until(lambda: follower.stats["applied"] >= 5)
            assert follower.stats["feeds"] == 1
        standby.close()
