"""The served stack as the benchmark drives it: server processes, one
framed TCP client, and a fresh standby caught up over TCP.

Every path here is under the benchmark's work directory inside the
checkout; every process started here is stopped and waited for.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.server.protocol import decode_messages, encode_message

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
FSYNC = "always"
"""The flush policy every run serves under (the server default): an
acknowledged update is a durable update."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(CHECKOUT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one string-hash layout for every server, so that set and dict
    # iteration orders do not vary from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


class ServerProcess:
    """``repro-xml serve`` in its own process, plain or through the
    benchmark's traced launcher."""

    def __init__(self, serve_args: "list[str]", log: Path, *, spans: "Path | None" = None,
                 obs: bool = False) -> None:
        args = ["serve", *serve_args, "--port", "0", "--fsync", FSYNC]
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "launcher.py"), "--spans", str(spans),
                    *(["--obs"] if obs else []), "--", *args]
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=_env(), cwd=str(CHECKOUT)
        )
        try:
            self.host, self.port = self._wait_ready(timeout=120.0)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout: float) -> "tuple[str, int]":
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if line.startswith("serving on "):
                    host, _, port = line.split()[-1].rpartition(":")
                    return host, int(port)
        raise RuntimeError(f"server did not start (exit {self.proc.poll()}); see {self._log.name}")

    def stop(self) -> None:
        """SIGTERM drain, waited for; killed if it does not finish."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class WireClient:
    """One framed connection; every call reports its exact wire bytes
    and its latency from first byte sent to last byte received."""

    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.create_connection((host, port), timeout=120)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def call(self, request: dict) -> "tuple[dict, float, int, int]":
        """Returns ``(response, seconds, request_bytes, response_bytes)``."""
        frame = encode_message(request)
        start = time.perf_counter()
        self._sock.sendall(frame)
        header = self._reader.readline()
        body = self._reader.read(int(header.split()[1]) + 1)
        elapsed = time.perf_counter() - start
        messages, consumed = decode_messages(header + body)
        if len(messages) != 1 or consumed != len(header) + len(body):
            raise ConnectionError("server sent a torn or damaged response frame")
        return messages[0], elapsed, len(frame), consumed

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


def wal_path(root: Path, doc_id: str) -> Path:
    return Path(root) / "docs" / doc_id / "wal.log"


def catch_up(primary_root: Path, standby_root: Path, on_start=None) -> "tuple[float, list[str]]":
    """Start a fresh standby, follow the primary over TCP until every
    document's ``applied_seq`` reaches the primary's last seq.

    Returns the catch-up time and the documents whose standby WAL is not
    byte-identical to the primary's. *on_start* runs before the clock
    starts (the traced run installs its timers there).
    """
    from repro.replication import FollowerServer, ShipperDaemon, StandbyStore
    from repro.store import DocumentStore

    primary = DocumentStore(primary_root)
    heads = {doc: primary.stats(doc)["wal_last_seq"] for doc in primary.documents()}
    expected_frames = len(heads) + sum(heads.values())
    if on_start is not None:
        on_start()
    start = time.perf_counter()
    standby = StandbyStore.init(standby_root)
    follower = FollowerServer(standby, listen=("127.0.0.1", 0)).start()
    daemon = ShipperDaemon(primary, connect=[follower.address], poll_interval=0.05).start()
    try:
        deadline = time.monotonic() + 150
        while follower.applied < expected_frames:
            if time.monotonic() > deadline:
                raise TimeoutError(f"standby applied {follower.applied}/{expected_frames} frames")
            time.sleep(0.002)
        elapsed = time.perf_counter() - start
        if standby.positions() != heads:
            raise AssertionError("standby positions differ from the primary's last seqs")
    finally:
        daemon.stop()
        follower.stop()
        standby.close()
        primary.close()
    differing = [
        doc for doc in heads
        if wal_path(primary_root, doc).read_bytes() != wal_path(standby_root, doc).read_bytes()
    ]
    return elapsed, differing


def scrape(host: str, port: int) -> str:
    """``GET /metrics`` from the server's HTTP side."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(b"GET /metrics HTTP/1.1\r\nhost: bench\r\n\r\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks).decode().partition("\r\n\r\n")[2]


def stage_sums(metrics_text: str) -> "dict[str, float]":
    """``repro_trace_stage_seconds_sum`` per stage, in seconds."""
    sums = {}
    for line in metrics_text.splitlines():
        if line.startswith("repro_trace_stage_seconds_sum{"):
            labels, value = line.rsplit(" ", 1)
            stage = labels.split('stage="', 1)[1].split('"', 1)[0]
            sums[stage] = float(value)
    return sums
