"""The metrics registry: held and collected families, one text writer."""

import sys
import threading

import pytest

from repro.obs.metrics import Family, MetricsRegistry

from ..server.conftest import assert_exposition


def test_render_writes_each_family_in_one_group_in_declaration_order():
    latency = Family("t_latency_seconds", "Latency.", "histogram", "op", buckets=(0.1, 1.0))
    errors = Family("t_errors_total", "Errors.", "counter", "op", "code")
    registry = MetricsRegistry(
        Family("t_up", "Up.", "gauge", collect=lambda: [((), True)]),
        latency,
        errors,
        Family("t_none", "No series: left out.", "gauge", "x", collect=list),
        Family(
            "t_path", "Escaped labels.", "gauge", "path",
            collect=lambda: [(('a"b\\c\nd',), 1.5)],
        ),
    )
    for seconds in (0.05, 0.5, 0.1, 3.0):
        latency.observe(seconds, "put")
    errors.inc("put", "bad")
    text = registry.render()
    assert text == (
        "# HELP t_up Up.\n"
        "# TYPE t_up gauge\n"
        "t_up 1\n"
        "# HELP t_latency_seconds Latency.\n"
        "# TYPE t_latency_seconds histogram\n"
        't_latency_seconds_bucket{le="0.1",op="put"} 2\n'
        't_latency_seconds_bucket{le="1.0",op="put"} 3\n'
        't_latency_seconds_bucket{le="+Inf",op="put"} 4\n'
        't_latency_seconds_sum{op="put"} 3.650000000\n'
        't_latency_seconds_count{op="put"} 4\n'
        "# HELP t_errors_total Errors.\n"
        "# TYPE t_errors_total counter\n"
        't_errors_total{code="bad",op="put"} 1\n'
        "# HELP t_path Escaped labels.\n"
        "# TYPE t_path gauge\n"
        't_path{path="a\\"b\\\\c\\nd"} 1.500000000\n'
    )
    assert_exposition(text)


def test_a_family_is_declared_once():
    with pytest.raises(ValueError, match="declared twice"):
        MetricsRegistry(
            Family("t_total", "One.", "counter", collect=list),
            Family("t_total", "Two.", "counter", collect=list),
        )
    with pytest.raises(ValueError, match="unknown metric type"):
        Family("t_total", "One.", "untyped")


def test_observations_from_many_threads_add_up():
    """A histogram observation is one update under the family's lock:
    none is lost when threads race on the same series."""
    family = Family("t_seconds", "Racing.", "histogram", "op", buckets=(0.5,))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(
                target=lambda: [
                    family.observe(0.25 if i % 2 else 0.75, "op") for i in range(2000)
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
    ((key, series),) = family.samples()
    assert key == ("op",)
    assert (series.counts, series.count) == ((8000, 8000), 16000)
    assert (series.sum, series.max) == (8000.0, 0.75)
