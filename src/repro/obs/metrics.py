"""Labelled metric families and the registry that renders them.

A :class:`Family` is one Prometheus metric family: a name, a help
line, a type and label names. It either *holds* its series, updated
with :meth:`~Family.inc` or :meth:`~Family.observe` under the family's
one lock, or *collects* them at scrape time from a callable that reads
numbers other objects own (WAL positions, engine counters, shipper
lag). A :class:`MetricsRegistry` keeps families in declaration order
and writes the whole text exposition format in one place: one
HELP/TYPE writer, one label escaper, one cumulative-bucket writer.

All series reset with the process, which is the Prometheus counter
contract (``rate()`` handles restarts).
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Iterable, NamedTuple

__all__ = ["Family", "Histogram", "LATENCY_BUCKETS", "MetricsRegistry", "STAGE_BUCKETS"]

#: Fixed histogram bucket upper bounds (seconds) for
#: ``repro_server_latency_seconds``. Stable across releases by contract:
#: dashboards and alerts key on ``le`` values, so changing them is a
#: breaking change. Spans 1 ms (a ping, a cached view read) to 5 s
#: (huge-document boundary splits); everything slower lands in ``+Inf``.
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

#: Bucket bounds for ``repro_trace_stage_seconds``: the request buckets
#: plus five below a millisecond, where validate, graphs, script and a
#: WAL append land (~0.1–0.7 ms each on a 1,200-node document).
STAGE_BUCKETS = (0.000025, 0.00005, 0.0001, 0.00025, 0.0005) + LATENCY_BUCKETS

_KINDS = ("counter", "gauge", "summary", "histogram")


class Histogram(NamedTuple):
    """One histogram series as read: a count per bucket (the last one
    ``+Inf``; not cumulative), the sum, the count and the largest
    observation."""

    counts: "tuple[int, ...]"
    sum: float
    count: int
    max: float


class Family:
    """One metric family with labels *labels*.

    With *collect*, the family holds nothing: each read calls
    ``collect()`` for ``(label values, value)`` pairs, in the order they
    should be written. Otherwise the family holds one value per label
    tuple — a number for a counter, a :class:`Histogram` for a
    histogram over *buckets* — and reads return them sorted by label
    values. A summary is always collected: its values are objects with
    ``sum`` and ``count`` (a :class:`Histogram` read elsewhere).
    """

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        *labels: str,
        buckets: "tuple[float, ...]" = (),
        collect: "Callable[[], Iterable[tuple]] | None" = None,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric type {kind!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.labels = labels
        self.buckets = tuple(buckets)
        self._collect = collect
        self._lock = threading.Lock()
        self._series: dict = {}

    def inc(self, *values: str, by: int = 1) -> None:
        """Add *by* to the counter labelled *values* (``by=0`` makes the
        series exist, so it is written as 0 before its first event)."""
        with self._lock:
            self._series[values] = self._series.get(values, 0) + by

    def observe(self, seconds: float, *values: str) -> None:
        """Count one observation in the histogram labelled *values*."""
        with self._lock:
            series = self._series.get(values)
            if series is None:
                # per-bucket counts, then +Inf, the sum and the max
                series = self._series[values] = [0] * (len(self.buckets) + 1) + [0.0, 0.0]
            series[bisect.bisect_left(self.buckets, seconds)] += 1
            series[-2] += seconds
            if seconds > series[-1]:
                series[-1] = seconds

    def samples(self) -> "list[tuple]":
        """Every series as ``(label values, value)`` pairs."""
        if self._collect is not None:
            return list(self._collect())
        with self._lock:
            items = sorted(self._series.items())
            if self.kind != "histogram":
                return items
            return [
                (key, Histogram(tuple(s[:-2]), s[-2], sum(s[:-2]), s[-1]))
                for key, s in items
            ]

    def clear(self) -> None:
        """Drop every held series."""
        with self._lock:
            self._series.clear()


class MetricsRegistry:
    """Families in declaration order, rendered as one text exposition."""

    def __init__(self, *families: Family) -> None:
        names = [family.name for family in families]
        twice = sorted({name for name in names if names.count(name) > 1})
        if twice:
            raise ValueError(f"metric families declared twice: {twice}")
        self._families = families

    def render(self) -> str:
        """The Prometheus text format (version 0.0.4) of every family
        that has a series; each family's samples follow its TYPE line."""
        lines: "list[str]" = []
        for family in self._families:
            samples = family.samples()
            if not samples:
                continue
            name = family.name
            lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            bounds = [repr(bound) for bound in family.buckets] + ["+Inf"]
            for values, value in samples:
                labels = list(zip(family.labels, values))
                if family.kind in ("counter", "gauge"):
                    lines.append(f"{name}{_labels(labels)} {_number(value)}")
                    continue
                if family.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(bounds, value.counts):
                        cumulative += count
                        le = _labels(labels + [("le", bound)])
                        lines.append(f"{name}_bucket{le} {cumulative}")
                lines.append(f"{name}_sum{_labels(labels)} {value.sum:.9f}")
                lines.append(f"{name}_count{_labels(labels)} {value.count}")
        return "\n".join(lines) + "\n"


def _number(value) -> str:
    return f"{value:.9f}" if isinstance(value, float) else str(int(value))


def _labels(pairs: "list[tuple[str, str]]") -> str:
    """``{name="value",…}`` sorted by label name, values escaped per the
    text exposition format; empty for no labels."""
    if not pairs:
        return ""
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in sorted(pairs)
    )
    return "{" + inner + "}"


def _escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
