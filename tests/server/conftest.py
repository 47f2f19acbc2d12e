"""Mark every test under ``tests/server`` with the ``server`` marker
(CI's server job runs ``-m server``) and share workload/store fixtures
plus the in-process server harness."""

import asyncio
import math
import pathlib
import random
import re
import threading

import pytest

from repro.generators.updates import random_view_update
from repro.generators.workloads import running_example
from repro.store import DocumentStore

_HERE = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        path = getattr(item, "path", None) or getattr(item, "fspath", None)
        if path is not None and _HERE in pathlib.Path(str(path)).parents:
            item.add_marker(pytest.mark.server)


@pytest.fixture
def workload():
    """The paper's running example, 4 groups — small but non-trivial."""
    return running_example(4)


@pytest.fixture
def store_root(tmp_path, workload):
    """A store directory holding documents doc0..doc3 (one workload)."""
    store = DocumentStore.init(tmp_path / "store", fsync="off")
    for index in range(4):
        store.put(
            f"doc{index}", workload.source, workload.dtd, workload.annotation
        )
    store.close()
    return tmp_path / "store"


def sequential_updates(workload, length, seed=11):
    """A chain of *length* sequential view updates (each built against
    the view the previous one produced), as term strings."""
    from repro.engine import ViewEngine

    rng = random.Random(seed)
    engine = ViewEngine(workload.dtd, workload.annotation)
    session = engine.session(workload.source)
    terms = []
    for _ in range(length):
        update = random_view_update(
            rng, workload.dtd, workload.annotation, session.source, n_ops=2
        )
        terms.append(update.to_term())
        session.propagate(update)
    return terms


def run_with_server(server, client_work, *, after=None):
    """Start *server*, run blocking *client_work(host, port)* in a
    thread, then drain. Returns ``client_work``'s result.

    *after* is an optional async hook run between client completion and
    the drain (for tests that need the still-running server).
    """

    async def main():
        host, port = await server.start()
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(None, client_work, host, port)
        if after is not None:
            await after(server)
        await server.drain()
        return result

    return asyncio.run(main())


def in_thread(fn, *args):
    """Run *fn(*args)* in a thread; returns (thread, result_box)."""
    box = {}

    def target():
        try:
            box["result"] = fn(*args)
        except BaseException as error:  # surfaced by the caller's join
            box["error"] = error

    thread = threading.Thread(target=target)
    thread.start()
    return thread, box


_SAMPLE = re.compile(r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def assert_exposition(text):
    """Parse a whole ``/metrics`` text and assert its shape: every
    sample follows its family's ``# TYPE`` line, inside that family's
    one group of lines; no (name, labels) pair appears twice; and each
    histogram series' ``le`` bounds ascend with cumulative counts, the
    last ``+Inf`` and equal to the series' ``_count``."""
    types, closed, seen = {}, set(), set()
    current = None
    buckets, counts = {}, {}
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            family = line.split(" ", 3)[2]
            if family != current:
                assert family not in closed, f"{family} split into two groups"
                closed.add(current)
                current = family
            if line.startswith("# TYPE "):
                kind = line.split(" ", 3)[3]
                assert family not in types, f"second TYPE line for {family}"
                assert kind in ("counter", "gauge", "summary", "histogram"), line
                types[family] = kind
            continue
        match = _SAMPLE.fullmatch(line)
        assert match, f"not a sample line: {line!r}"
        name, label_text, value = match.groups()
        family = name
        if name not in types:
            stem, _, suffix = name.rpartition("_")
            if suffix in ("bucket", "sum", "count") and types.get(stem) in ("histogram", "summary"):
                family = stem
        assert family in types, f"{name} has no # TYPE line before it"
        assert family == current, f"{name} outside its family's group"
        labels = dict(_LABEL.findall(label_text or ""))
        key = (name, tuple(sorted(labels.items())))
        assert key not in seen, f"{key} appears twice"
        seen.add(key)
        float(value)  # raises unless the value is a number
        if types[family] != "histogram":
            continue
        series = (family, tuple(sorted((k, v) for k, v in labels.items() if k != "le")))
        if name.endswith("_bucket"):
            buckets.setdefault(series, []).append((float(labels["le"]), int(value)))
        elif name.endswith("_count"):
            counts[series] = int(value)
    for series, pairs in buckets.items():
        bounds = [bound for bound, _ in pairs]
        cumulative = [count for _, count in pairs]
        assert bounds == sorted(set(bounds)), f"{series}: le bounds do not ascend"
        assert bounds[-1] == math.inf, f"{series}: no +Inf bucket"
        assert cumulative == sorted(cumulative), f"{series}: buckets not cumulative"
        assert cumulative[-1] == counts.get(series), f"{series}: +Inf is not _count"
