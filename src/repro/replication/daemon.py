"""Continuous WAL shipping: the follow daemon and its standby feed.

PR 5's replication is pull-by-invocation — every ``replica ship`` run
builds a shipper, pushes one pass, and exits. This module keeps the
shipper *running*: :class:`ShipperDaemon` tails the primary's WAL and
streams frames to one or more standbys over real TCP, so replicas are
as fresh as the wire allows instead of as fresh as the last manual
pass.

Wire discipline
---------------
One TCP connection per standby link, each direction with exactly one
framing, both already proven elsewhere in the stack:

* **applier → shipper** uses the server's CRC message framing
  (:mod:`repro.server.protocol`): a ``hello`` carrying the standby's
  acknowledged positions on connect, then ``ack`` messages as frames
  apply;
* **shipper → applier** uses the replication frame framing
  (:mod:`repro.replication.transport`): the same ``bootstrap`` /
  ``checkpoint`` / ``record`` frames a one-shot ship sends, via
  :class:`~repro.replication.transport.SocketTransport` bound to the
  connected socket.

Crash model
-----------
The daemon holds **no durable state of its own** — resume positions
come from the standby's ``hello`` at every (re)connect, and standbys
deduplicate by sequence number, so a crash on either side at any byte
is survivable:

* daemon killed mid-frame: the applier's decoder treats the torn final
  frame as never received; on restart the re-handshake reships from the
  acknowledged position — nothing lost, duplicates skipped;
* applier killed mid-append: write-ahead discipline on the standby —
  the torn WAL tail was never acknowledged and is truncated on the next
  ``applied_seq`` look, then the re-handshake asks for it again;
* network death: both ends fall back to their reconnect loops
  (exponential backoff, capped), and the link re-handshakes.

Wake-up: the daemon subscribes to the primary store's append
notifications (:meth:`~repro.store.DocumentStore.on_append`) for
same-process writers and keeps a bounded poll (WAL size stat) as the
cross-process fallback, so a ``serve`` process writing the same store
directory still gets shipped within ``poll_interval``.
"""

from __future__ import annotations

import select
import socket
import threading
import time

from ..errors import ProtocolError, ReplicationError
from ..obs import span as _span
from ..server.protocol import encode_message, message_buffer
from ..store import DocumentStore
from ..store.store import _WAL_FILE
from .shipper import WalShipper
from .standby import StandbyStore
from .transport import SocketTransport

__all__ = [
    "ShipperDaemon",
    "FollowerServer",
    "parse_address",
]

_CHUNK = 65536


def parse_address(address: str) -> "tuple[str, int]":
    """``"host:port"`` → ``(host, port)`` (IPv4/hostname forms)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ReplicationError(
            f"address {address!r} is not host:port — e.g. 127.0.0.1:7401"
        )
    try:
        return host, int(port)
    except ValueError as error:
        raise ReplicationError(
            f"address {address!r} has a non-numeric port"
        ) from error


class _MessageChannel:
    """The M-framed half of a link socket: CRC messages in, CRC
    messages out, with the serving port's stream rules
    (:mod:`repro.server.protocol`)."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = message_buffer()
        self._pending: "list[dict]" = []

    @property
    def eof(self) -> bool:
        return self._buffer.eof

    def send(self, obj: dict) -> None:
        self._sock.sendall(encode_message(obj))

    def recv(self, timeout: "float | None") -> "dict | None":
        """Block up to *timeout* for one message; ``None`` on EOF or
        timeout. Raises :class:`~repro.errors.ProtocolError` on interior
        corruption (the link must be dropped and re-handshaken)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._pending:
            if self.eof:
                return None
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
            self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(_CHUNK)
            except socket.timeout:
                return None
            finally:
                self._sock.settimeout(None)
            self._pending.extend(self._buffer.feed(chunk))
        return self._pending.pop(0)

    def poll(self) -> "list[dict]":
        """Drain whatever complete messages have already arrived,
        without blocking. Sets ``eof`` when the peer closed."""
        drained, self._pending = self._pending + self._buffer.pull(self._sock), []
        return drained


class _StandbyLink(threading.Thread):
    """One standby's feed: connect (or adopt an accepted socket),
    handshake, then ship until the link dies; reconnect with capped
    exponential backoff. Owns a persistent :class:`WalShipper` so the
    link's lag and connected state survive reconnects for metrics."""

    def __init__(
        self,
        daemon: "ShipperDaemon",
        *,
        address: "tuple[str, int] | None" = None,
        sock: "socket.socket | None" = None,
        label: "str | None" = None,
    ) -> None:
        if label is None and address is not None:
            label = f"{address[0]}:{address[1]}"
        super().__init__(name=f"standby-link-{label}", daemon=True)
        self._daemon = daemon
        self._address = address
        self._adopted = sock
        self.label = label or "standby"
        self.shipper = WalShipper(
            daemon.primary, transport=None, doc_ids=daemon.doc_ids, label=self.label
        )
        self.shipper.connected = False
        self.dirty = threading.Event()
        self.dirty.set()  # first pass always ships (bootstrap path)
        self.reconnects = 0
        self.frames_sent = 0
        self.acked: "dict[str, int]" = {}
        self.backoff_delays: "list[float]" = []
        self.last_error: "str | None" = None
        self._wal_sizes: "dict[str, int]" = {}

    # -- connection lifecycle ------------------------------------------

    def _connect(self) -> socket.socket:
        if self._adopted is not None:
            conn, self._adopted = self._adopted, None
            return conn
        if self._address is None:
            raise ReplicationError("link has neither an address nor a socket")
        conn = socket.create_connection(
            self._address, timeout=self._daemon.handshake_timeout
        )
        conn.settimeout(None)
        return conn

    def run(self) -> None:
        attempt = 0
        stop = self._daemon._stop
        while not stop.is_set():
            attempt += 1
            with _span(
                "replication.reconnect", standby=self.label, attempt=attempt
            ) as sp:
                try:
                    conn = self._connect()
                except OSError as error:
                    self.last_error = str(error)
                    sp.set(ok=False)
                    conn = None
                else:
                    sp.set(ok=True)
            if conn is not None:
                try:
                    self._follow(conn)
                    attempt = 0  # a completed handshake resets the backoff
                except (OSError, ProtocolError, ReplicationError) as error:
                    self.last_error = str(error)
                finally:
                    self.shipper.connected = False
                    if not stop.is_set():
                        self.reconnects += 1
                    try:
                        conn.close()
                    except OSError:
                        pass
            if self._adopted is None and self._address is None:
                # an adopted socket has no address to redial: the remote
                # applier reconnects and the accept loop mints a new link
                self._daemon._deregister(self)
                return
            if stop.is_set():
                return
            delay = min(
                self._daemon.backoff_max,
                self._daemon.backoff_base * (2 ** max(0, attempt - 1)),
            )
            self.backoff_delays.append(delay)
            del self.backoff_delays[:-64]
            self._daemon._sleep(delay)

    # -- the follow loop -----------------------------------------------

    def _follow(self, conn: socket.socket) -> None:
        channel = _MessageChannel(conn)
        hello = channel.recv(self._daemon.handshake_timeout)
        if hello is None or hello.get("op") != "hello":
            raise ReplicationError(
                f"standby {self.label} did not say hello within "
                f"{self._daemon.handshake_timeout}s — not a replica feed?"
            )
        positions = {
            str(doc): int(seq)
            for doc, seq in (hello.get("positions") or {}).items()
        }
        # the standby's word replaces any in-memory resume state: a
        # wiped-and-recreated replica must be re-bootstrapped, not
        # resumed past history it no longer holds
        self.shipper.restart_from(positions)
        self.shipper._transport = SocketTransport(send_sock=conn)
        self.shipper.connected = True
        self.dirty.set()
        self._wal_sizes.clear()
        while not self._daemon._stop.is_set():
            if self.dirty.is_set() or self._wal_grew():
                self.dirty.clear()
                with _span("replication.follow", standby=self.label) as sp:
                    sent = self.shipper.ship_all()
                    sp.set(frames=sent)
                self.frames_sent += sent
            for message in channel.poll():
                if message.get("op") == "ack":
                    for doc, seq in (message.get("positions") or {}).items():
                        self.acked[str(doc)] = int(seq)
            if channel.eof:
                raise ReplicationError(
                    f"standby {self.label} closed the feed"
                )
            self.dirty.wait(self._daemon.poll_interval)

    def _wal_grew(self) -> bool:
        """The cross-process fallback wake: did any tracked WAL change
        size since the last pass (or a new document appear)? A pure
        stat() sweep — no log bytes are read on an idle poll."""
        docs_dir = self._daemon.primary.root / "docs"
        doc_ids = self._daemon.doc_ids
        if doc_ids is None:
            try:
                doc_ids = sorted(p.name for p in docs_dir.iterdir() if p.is_dir())
            except OSError:
                return False
        changed = False
        for doc_id in doc_ids:
            try:
                size = (docs_dir / doc_id / _WAL_FILE).stat().st_size
            except OSError:
                continue
            if self._wal_sizes.get(doc_id) != size:
                self._wal_sizes[doc_id] = size
                changed = True
        return changed

    @property
    def stats(self) -> dict:
        return {
            "standby": self.label,
            "connected": bool(self.shipper.connected),
            "reconnects": self.reconnects,
            "frames_sent": self.frames_sent,
            "acked": dict(self.acked),
            "lag": self.shipper.lag(),
            "backoff_delays": list(self.backoff_delays),
            "last_error": self.last_error,
        }


class ShipperDaemon:
    """The ``replica ship --follow`` engine: tail one primary's WAL and
    feed every registered standby continuously.

    Parameters
    ----------
    primary:
        The :class:`~repro.store.DocumentStore` being replicated (only
        read).
    connect:
        ``host:port`` addresses (or ``(host, port)`` tuples) of
        listening appliers (:class:`FollowerServer`) to dial out to.
    listen:
        An address to accept applier connections on instead (or as
        well) — the reverse topology, for standbys that can reach the
        primary but not vice versa.
    doc_ids:
        Restrict shipping to these documents (default: all, re-listed
        every pass so new documents are picked up).
    poll_interval:
        The bounded poll fallback — an upper bound on how stale a
        standby can be when the writer lives in another process and the
        append hook cannot fire here.
    on_shipper:
        Called with each link's :class:`WalShipper` as it is created —
        the hook a metrics server uses to ``attach_shipper`` them.
    """

    def __init__(
        self,
        primary: DocumentStore,
        *,
        connect: "tuple | list" = (),
        listen: "str | tuple[str, int] | None" = None,
        doc_ids=None,
        poll_interval: float = 0.2,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        handshake_timeout: float = 5.0,
        on_shipper=None,
        on_shipper_closed=None,
    ) -> None:
        self.primary = primary
        self.doc_ids = tuple(doc_ids) if doc_ids is not None else None
        self.poll_interval = poll_interval
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.handshake_timeout = handshake_timeout
        self._on_shipper = on_shipper
        self._on_shipper_closed = on_shipper_closed
        self._stop = threading.Event()
        self._links: "list[_StandbyLink]" = []
        self._listen = (
            parse_address(listen) if isinstance(listen, str) else listen
        )
        self._listener: "socket.socket | None" = None
        self._accept_thread: "threading.Thread | None" = None
        self._unsubscribe = None
        for target in connect:
            address = (
                parse_address(target) if isinstance(target, str) else tuple(target)
            )
            self._register(_StandbyLink(self, address=address))

    def _register(self, link: _StandbyLink) -> _StandbyLink:
        self._links.append(link)
        if self._on_shipper is not None:
            self._on_shipper(link.shipper)
        return link

    def _deregister(self, link: _StandbyLink) -> None:
        try:
            self._links.remove(link)
        except ValueError:
            return
        if self._on_shipper_closed is not None:
            self._on_shipper_closed(link.shipper)

    def _sleep(self, seconds: float) -> None:
        """Backoff wait that stays responsive to :meth:`stop`."""
        self._stop.wait(seconds)

    # -- lifecycle ------------------------------------------------------

    @property
    def listen_address(self) -> "tuple[str, int] | None":
        """The bound accept address (port resolved when 0 was asked)."""
        if self._listener is None:
            return None
        return self._listener.getsockname()[:2]

    def start(self) -> "ShipperDaemon":
        self._unsubscribe = self.primary.on_append(self._on_append)
        if self._listen is not None:
            self._listener = socket.create_server(self._listen)
            self._listener.settimeout(0.2)
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="shipper-accept", daemon=True
            )
            self._accept_thread.start()
        for link in self._links:
            link.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by stop()
            link = self._register(
                _StandbyLink(self, sock=conn, label=f"{peer[0]}:{peer[1]}")
            )
            link.start()

    def _on_append(self, doc_id: str, seq: int) -> None:
        for link in self._links:
            link.dirty.set()

    def stop(self) -> None:
        self._stop.set()
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for link in list(self._links):
            link.dirty.set()  # wake the poll wait immediately
            link.join(timeout=5.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ShipperDaemon":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- observation ----------------------------------------------------

    @property
    def shippers(self) -> "list[WalShipper]":
        return [link.shipper for link in self._links]

    @property
    def links(self) -> "list[_StandbyLink]":
        return list(self._links)

    def wait_caught_up(self, timeout: float = 30.0) -> bool:
        """Block until every link is connected with zero shipped lag (a
        test/bench convenience — production watches the gauges)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            links = list(self._links)
            if links and all(
                link.shipper.connected
                and not any(link.shipper.lag().values())
                for link in links
            ):
                return True
            time.sleep(0.01)
        return False

    @property
    def stats(self) -> dict:
        return {
            "running": not self._stop.is_set(),
            "poll_interval": self.poll_interval,
            "links": [link.stats for link in self._links],
        }


class FollowerServer:
    """The standby end of a live feed: accept (or dial) the shipper,
    announce acknowledged positions, apply frames as they arrive, ack.

    The applier is deliberately thin — all correctness lives in
    :class:`~repro.replication.standby.StandbyStore`: contiguity checks,
    duplicate skipping, torn-tail truncation, durable appends. Killing
    this process at any byte (mid-recv, mid-append) is recovered by the
    next handshake.

    One feed at a time: a standby follows one primary, so concurrent
    shipper connections queue behind the accept loop.
    """

    def __init__(
        self,
        standby: StandbyStore,
        *,
        listen: "str | tuple[str, int] | None" = None,
        connect: "str | tuple[str, int] | None" = None,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
    ) -> None:
        if (listen is None) == (connect is None):
            raise ReplicationError(
                "a follower either listens for the daemon or dials it — "
                "pass exactly one of listen=/connect="
            )
        self.standby = standby
        self._listen = parse_address(listen) if isinstance(listen, str) else listen
        self._connect = (
            parse_address(connect) if isinstance(connect, str) else connect
        )
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self._stop = threading.Event()
        self._listener: "socket.socket | None" = None
        self._thread: "threading.Thread | None" = None
        self.feeds = 0
        self.applied = 0
        self.skipped = 0
        self.last_error: "str | None" = None

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> "tuple[str, int] | None":
        """The bound listen address (port resolved when 0 was asked)."""
        if self._listener is None:
            return None
        return self._listener.getsockname()[:2]

    def start(self) -> "FollowerServer":
        """Bind (listen mode) and serve in a background thread."""
        if self._listen is not None:
            self.bind()
        self._thread = threading.Thread(
            target=self.serve_forever, name="follower-server", daemon=True
        )
        self._thread.start()
        return self

    def bind(self) -> "tuple[str, int] | None":
        """Bind the listen socket eagerly (idempotent) so callers can
        learn the resolved port before serving; ``None`` in dial mode."""
        if self._listen is not None and self._listener is None:
            self._listener = socket.create_server(self._listen)
            self._listener.settimeout(0.2)
        return self.address

    def serve_forever(self) -> None:
        """Accept/dial feeds until :meth:`stop` (runs inline for the
        CLI; :meth:`start` runs it in a thread for tests)."""
        if self._listen is not None:
            self.bind()
            self._accept_loop()
        else:
            self._dial_loop()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by stop()
            self._serve_feed(conn)

    def _dial_loop(self) -> None:
        attempt = 0
        while not self._stop.is_set():
            attempt += 1
            try:
                conn = socket.create_connection(self._connect, timeout=5.0)
            except OSError as error:
                self.last_error = str(error)
                delay = min(
                    self.backoff_max, self.backoff_base * (2 ** (attempt - 1))
                )
                self._stop.wait(delay)
                continue
            conn.settimeout(None)
            attempt = 0
            self._serve_feed(conn)

    def _serve_feed(self, conn: socket.socket) -> None:
        self.feeds += 1
        transport = SocketTransport(recv_sock=conn)
        try:
            conn.sendall(
                encode_message(
                    {
                        "op": "hello",
                        "role": "standby",
                        "root": str(self.standby.root),
                        "positions": self.standby.positions(),
                    }
                )
            )
            while not self._stop.is_set():
                readable, _, _ = select.select([conn], [], [], 0.2)
                if not readable:
                    continue
                frames = transport.drain()
                if frames:
                    outcome = self.standby.apply_frames(frames)
                    self.applied += outcome["applied"]
                    self.skipped += outcome["skipped"]
                    conn.sendall(
                        encode_message(
                            {"op": "ack", "positions": self.standby.positions()}
                        )
                    )
                if transport.eof:
                    return  # shipper went away; back to accept/dial
        except (OSError, ReplicationError, ProtocolError) as error:
            # a dead link or a torn/corrupt stream ends this feed; the
            # shipper's re-handshake restarts from acknowledged state
            self.last_error = str(error)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def stop(self) -> None:
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "FollowerServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def stats(self) -> dict:
        return {
            "root": str(self.standby.root),
            "feeds": self.feeds,
            "applied": self.applied,
            "skipped": self.skipped,
            "positions": self.standby.positions(),
            "last_error": self.last_error,
        }
