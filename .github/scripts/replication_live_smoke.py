"""The replication-live chaos smoke: a full follow topology under kill -9.

Topology (all localhost TCP, all real processes):

    repro-xml serve --root pri --standby-root sby1 --standby-root sby2
    repro-xml replica follow --standby sby1 --listen 127.0.0.1:0
    repro-xml replica follow --standby sby2 --listen 127.0.0.1:0
    repro-xml replica ship --follow --connect <f1> --connect <f2> --metrics-port 0

Script: drive 10 propagations through the wire client and assert
``repro_shipper_lag`` converges to 0 on the daemon's ``/metrics``;
``kill -9`` the daemon, drive 10 more (lag builds with nobody
shipping); while it is dead, connect to one applier as a shipper and
send a record frame whose length field is damaged (it declares 100 GB)
ahead of intact frames, and assert the applier hangs up within 5 s;
restart the daemon, assert convergence again; assert a bounded
``view`` read is served by a replica; SIGTERM everything and
byte-compare both standby WALs, documents, and views against the
primary.

Run from the repo root with ``PYTHONPATH=src``:

    python .github/scripts/replication_live_smoke.py --workdir /tmp/smoke
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from repro.engine import ViewEngine
from repro.generators.updates import random_view_update
from repro.generators.workloads import running_example
from repro.replication.transport import encode_frame
from repro.server.client import ServeClient
from repro.server.protocol import message_buffer
from repro.store import DocumentStore
from repro.store.wal import scan_wal
from repro.xmltree import tree_to_xml

UPDATES = 20
DOC = "doc"

# The smoke chdirs into its workdir, so the subprocesses need the repo's
# src on an *absolute* PYTHONPATH regardless of how this script found it.
_SRC = str(Path(__file__).resolve().parents[2] / "src")


def launch(workdir: Path, name: str, argv: "list[str]") -> subprocess.Popen:
    """Start a CLI process with line-buffered stdout teed to a log file
    (the CI job uploads the logs on failure)."""
    log = open(workdir / f"{name}.log", "w", encoding="utf-8")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=log,
        stderr=subprocess.STDOUT,
        env={
            **os.environ,
            "PYTHONUNBUFFERED": "1",
            "PYTHONPATH": _SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
        },
    )


def wait_line(workdir: Path, name: str, pattern: str, timeout: float = 30.0) -> str:
    """Block until a launched process prints a line matching *pattern*;
    returns the first match group (or whole match)."""
    deadline = time.monotonic() + timeout
    log = workdir / f"{name}.log"
    while time.monotonic() < deadline:
        if log.is_file():
            match = re.search(pattern, log.read_text(encoding="utf-8"))
            if match:
                return match.group(1) if match.groups() else match.group(0)
        time.sleep(0.05)
    raise SystemExit(
        f"FAIL: {name} never printed {pattern!r}; log:\n"
        + (log.read_text(encoding="utf-8") if log.is_file() else "<missing>")
    )


def metrics_text(port: int) -> str:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=5
    ) as response:
        return response.read().decode("utf-8")


def wait_converged(metrics_port: int, labels: "list[str]", timeout: float = 30.0):
    """Poll the daemon's /metrics until every standby label reports
    repro_shipper_lag 0 and repro_follower_connected 1."""
    deadline = time.monotonic() + timeout
    last = ""
    while time.monotonic() < deadline:
        try:
            last = metrics_text(metrics_port)
        except OSError:
            time.sleep(0.1)
            continue
        converged = all(
            re.search(
                rf'repro_shipper_lag{{doc="{DOC}",standby="{re.escape(label)}"}} 0\b',
                last,
            )
            and re.search(
                rf'repro_follower_connected{{standby="{re.escape(label)}"}} 1\b',
                last,
            )
            for label in labels
        )
        if converged:
            return last
        time.sleep(0.1)
    raise SystemExit(f"FAIL: shipper lag never converged; last /metrics:\n{last}")


def wait_applied(root: Path, seq: int, timeout: float = 30.0) -> None:
    """Poll a standby's WAL until it has durably applied up to *seq*."""
    wal = root / "docs" / DOC / "wal.log"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if scan_wal(wal).last_seq >= seq:
                return
        except Exception:
            pass
        time.sleep(0.05)
    raise SystemExit(f"FAIL: {root} never applied up to seq {seq}")


def damaged_feed(address: str, timeout: float = 5.0) -> None:
    """Act as a shipper towards the applier at *address*: read its
    hello, send a record frame whose length field declares 100 GB
    followed by two intact frames, and require the applier to close the
    connection within *timeout* seconds instead of waiting for the
    declared bytes."""
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as conn:
        buffer, hello = message_buffer(), []
        while not hello:
            chunk = conn.recv(1 << 16)
            if not chunk:
                raise SystemExit(f"FAIL: applier {address} hung up before its hello")
            hello = buffer.feed(chunk)
        if hello[0].get("op") != "hello":
            raise SystemExit(f"FAIL: applier {address} opened with {hello[0]!r}")
        intact = b"".join(
            encode_frame("record", {"doc_id": DOC, "seq": seq, "text": "Nop.r#n0"})
            for seq in (1, 2)
        )
        conn.sendall(b"F record 99999999999 0\n" + intact)
        conn.settimeout(timeout)
        try:
            while conn.recv(1 << 16):
                pass
        except ConnectionResetError:
            pass  # closed with our bytes unread: a reset is a hang-up too
        except socket.timeout:
            raise SystemExit(
                f"FAIL: applier {address} kept a feed with a damaged length "
                f"open for {timeout:.0f} s"
            ) from None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)

    # -- seed the primary and precompute a deterministic update chain --
    workload = running_example(6)
    store = DocumentStore.init("pri", fsync="always")
    store.put(DOC, workload.source, workload.dtd, workload.annotation)
    store.close()
    import random

    rng = random.Random(1910)
    engine = ViewEngine(workload.dtd, workload.annotation)
    shadow = engine.session(workload.source)
    updates = []
    for _ in range(UPDATES):
        update = random_view_update(
            rng, workload.dtd, workload.annotation, shadow.source, n_ops=2
        )
        updates.append(update.to_term())
        shadow.propagate(update)

    procs: "dict[str, subprocess.Popen]" = {}
    try:
        # -- standby appliers (they create sby1/sby2 on startup) --------
        for name in ("sby1", "sby2"):
            procs[name] = launch(
                workdir,
                name,
                [
                    "replica",
                    "follow",
                    "--standby",
                    name,
                    "--primary",
                    "pri",
                    "--listen",
                    "127.0.0.1:0",
                ],
            )
        feeds = {
            name: wait_line(workdir, name, rf"feeding .* on (127\.0\.0\.1:\d+)")
            for name in ("sby1", "sby2")
        }
        print(f"appliers up: {feeds}")

        # -- the serving front-end over primary + both standbys ---------
        procs["serve"] = launch(
            workdir,
            "serve",
            [
                "serve",
                "--root",
                "pri",
                "--standby-root",
                "sby1",
                "--standby-root",
                "sby2",
                "--fsync",
                "always",
            ],
        )
        serve_port = int(wait_line(workdir, "serve", r"serving on 127\.0\.0\.1:(\d+)"))

        # -- the follow daemon -------------------------------------------
        def start_daemon() -> int:
            procs["daemon"] = launch(
                workdir,
                "daemon",
                [
                    "replica",
                    "ship",
                    "--follow",
                    "--primary",
                    "pri",
                    "--connect",
                    feeds["sby1"],
                    "--connect",
                    feeds["sby2"],
                    "--poll-interval",
                    "0.1",
                    "--metrics-port",
                    "0",
                ],
            )
            return int(
                wait_line(workdir, "daemon", r"metrics on 127\.0\.0\.1:(\d+)")
            )

        metrics_port = start_daemon()
        labels = [feeds["sby1"], feeds["sby2"]]

        # -- phase 1: live stream, assert convergence --------------------
        client = ServeClient("127.0.0.1", serve_port)
        for term in updates[:10]:
            client.propagate(DOC, term)
        wait_converged(metrics_port, labels)
        print("phase 1: 10 updates shipped, lag converged to 0")

        # -- phase 2: kill -9 mid-stream, keep writing -------------------
        procs["daemon"].kill()  # SIGKILL: no drain, no goodbye
        procs["daemon"].wait(timeout=10)
        for term in updates[10:]:
            client.propagate(DOC, term)
        print("phase 2: daemon killed, 10 more updates written with no shipper")
        damaged_feed(feeds["sby1"])
        print("phase 2: a feed with a damaged frame length was dropped by sby1")

        # -- phase 3: restart, assert it converges again -----------------
        (workdir / "daemon.log").rename(workdir / "daemon-killed.log")
        metrics_port = start_daemon()
        final = wait_converged(metrics_port, labels)
        assert "repro_follower_connected" in final
        wait_applied(workdir / "sby1", UPDATES)
        wait_applied(workdir / "sby2", UPDATES)
        print("phase 3: restarted daemon re-handshook and caught both standbys up")

        # -- bounded read routes to a replica ----------------------------
        answer = client.request("view", doc=DOC, max_lag=0)
        assert answer["served_by"] == "replica", answer.get("served_by")
        print(f"bounded view served by replica (standby #{answer['standby']})")
    finally:
        for name, proc in procs.items():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for name, proc in procs.items():
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise SystemExit(f"FAIL: {name} did not drain on SIGTERM")

    # -- the differential: byte-identical WALs, documents, views --------
    primary_wal = (workdir / "pri/docs" / DOC / "wal.log").read_bytes()
    for name in ("sby1", "sby2"):
        standby_wal = (workdir / name / "docs" / DOC / "wal.log").read_bytes()
        assert standby_wal == primary_wal, f"{name} WAL diverged from primary"

    def recover_pair(root: str):
        opened = DocumentStore(workdir / root)
        recovered = opened.recover(DOC)
        _, annotation = opened.schema(DOC)
        pair = (
            tree_to_xml(recovered.tree),
            tree_to_xml(annotation.view(recovered.tree)),
        )
        opened.close()
        return pair

    primary_state = recover_pair("pri")
    assert primary_state == recover_pair("sby1"), "sby1 document/view diverged"
    assert primary_state == recover_pair("sby2"), "sby2 document/view diverged"
    assert scan_wal(workdir / "pri/docs" / DOC / "wal.log").last_seq == UPDATES
    print(
        "replication-live smoke OK: kill -9 + restart left both standbys "
        "byte-identical to the primary"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
