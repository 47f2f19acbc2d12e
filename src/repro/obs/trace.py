"""Spans and traces with monotonic timings and head-based sampling.

A :class:`Span` measures one stage of work with ``perf_counter`` so a
child's interval provably nests inside its parent's.  The *current*
span travels via a :mod:`contextvars` variable, so instrumented layers
never pass span objects through their signatures: entering a span makes
it the parent of whatever spans are opened underneath, including across
``await`` points (asyncio tasks inherit the context).

Two deliberate caveats:

* a plain thread does **not** inherit the ambient context — work handed
  to one must pass its parent span as the explicit ``parent=``;
* a span finished after its root was serialized is lost (a straggler
  from abandoned work), never mis-attached.

Sampling is head-based with two escape hatches: the keep/drop decision
is drawn once per trace at root creation (``sample_rate``), but a trace
that recorded an error or ran longer than ``slow_threshold`` is always
kept — errors and stragglers are exactly what the ring buffer is for.
Completed traces land in two bounded deques (``recent`` and ``slow``)
served by ``/debug/traces`` and ``/debug/slow``.

When the tracer is disabled the module-level helpers return a shared
no-op span, so the hot path is one global load, one attribute read and
one branch — measured ≤ 2% on the served streaming benchmark.
"""

from __future__ import annotations

import contextvars
import logging
import random
import threading
import time
import uuid
from collections import deque
from typing import Optional

from .metrics import STAGE_BUCKETS, Family

__all__ = [
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "child_span",
    "configure",
    "current_span",
    "default_tracer",
    "new_trace_id",
    "span",
    "trace",
    "tracing_enabled",
]

_CURRENT: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_current_span", default=None
)

_SPAN_LOGGER = logging.getLogger("repro.trace")


def new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


def _new_span_id() -> str:
    return uuid.uuid4().hex[:8]


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    recording = False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def mark_error(self, label) -> "_NoopSpan":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<noop span>"


NOOP_SPAN = _NoopSpan()


class Span:
    """One timed stage of work inside a trace.

    Use as a context manager.  ``_t0``/``_t1`` are ``perf_counter``
    readings (monotonic; nesting-safe), ``wall_start`` is wall-clock
    for display.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent",
        "attrs",
        "children",
        "error",
        "sampled",
        "wall_start",
        "_tracer",
        "_t0",
        "_t1",
        "_token",
    )

    recording = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent: Optional["Span"] = None,
        sampled: bool = True,
        attrs: Optional[dict] = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.parent = parent
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.sampled = sampled
        self.attrs = attrs or {}
        self.children: list = []
        self.error: Optional[str] = None
        self.wall_start = 0.0
        self._t0 = 0.0
        self._t1 = 0.0
        self._token = None

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        self.wall_start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._t1 = time.perf_counter()
        if exc_type is not None and self.error is None:
            self.error = exc_type.__name__
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self._tracer._finish(self)
        return False

    # -- mutation ----------------------------------------------------------

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def mark_error(self, label) -> "Span":
        """Flag the span (and thus its trace) as failed without an
        exception unwinding through it — e.g. an error answered as a
        well-formed response."""
        self.error = str(label)
        return self

    # -- timing ------------------------------------------------------------

    @property
    def duration_s(self) -> float:
        return max(0.0, self._t1 - self._t0)

    @property
    def root(self) -> "Span":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    # -- serialization -----------------------------------------------------

    def to_dict(self, base_t0: Optional[float] = None) -> dict:
        """Plain-dict span tree with offsets relative to *base_t0*
        (defaults to this span's own start, i.e. offset 0)."""
        if base_t0 is None:
            base_t0 = self._t0
        out: dict = {
            "name": self.name,
            "span_id": self.span_id,
            "offset_ms": (self._t0 - base_t0) * 1000.0,
            "duration_ms": self.duration_s * 1000.0,
            "wall_start": self.wall_start,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [child.to_dict(base_t0) for child in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<span {self.name} trace={self.trace_id}>"


class Tracer:
    """Owns sampling policy, the trace ring buffers and the per-stage
    duration histogram (:attr:`stages`, one series per span name)."""

    def __init__(
        self,
        *,
        enabled: bool = False,
        sample_rate: float = 1.0,
        slow_threshold: float = 0.1,
        keep: int = 256,
        slow_keep: int = 64,
        log_spans: bool = False,
    ) -> None:
        self._lock = threading.Lock()
        self.stages = Family(
            "repro_trace_stage_seconds",
            "Time spent per pipeline stage, across all kept-or-not spans.",
            "histogram", "stage", buckets=STAGE_BUCKETS,
        )
        self.configure(
            enabled=enabled,
            sample_rate=sample_rate,
            slow_threshold=slow_threshold,
            keep=keep,
            slow_keep=slow_keep,
            log_spans=log_spans,
        )
        self.reset()

    def configure(
        self,
        *,
        enabled: Optional[bool] = None,
        sample_rate: Optional[float] = None,
        slow_threshold: Optional[float] = None,
        keep: Optional[int] = None,
        slow_keep: Optional[int] = None,
        log_spans: Optional[bool] = None,
    ) -> "Tracer":
        if enabled is not None:
            self.enabled = bool(enabled)
        if sample_rate is not None:
            self.sample_rate = min(1.0, max(0.0, float(sample_rate)))
        if slow_threshold is not None:
            self.slow_threshold = max(0.0, float(slow_threshold))
        if keep is not None:
            self._recent = deque(getattr(self, "_recent", ()), maxlen=max(1, int(keep)))
        if slow_keep is not None:
            self._slow = deque(
                getattr(self, "_slow", ()), maxlen=max(1, int(slow_keep))
            )
        if log_spans is not None:
            self.log_spans = bool(log_spans)
        return self

    def reset(self) -> None:
        """Drop buffered traces and zero every counter (tests, restarts)."""
        with self._lock:
            self._recent.clear()
            self._slow.clear()
            self.traces_started = 0
            self.traces_kept = 0
            self.traces_dropped = 0
            self.traces_error = 0
            self.traces_slow = 0
            self.spans_finished = 0
        self.stages.clear()

    # -- span factories ----------------------------------------------------

    def span(
        self,
        name: str,
        *,
        parent: Optional[Span] = None,
        **attrs,
    ):
        """A child of *parent* (default: the ambient current span), or a
        fresh root when there is no parent."""
        if not self.enabled:
            return NOOP_SPAN
        if parent is None:
            parent = _CURRENT.get()
        if parent is not None and not parent.recording:
            parent = None
        if parent is None:
            return self.trace(name, **attrs)
        child = Span(
            self,
            name,
            trace_id=parent.trace_id,
            parent=parent,
            sampled=parent.sampled,
            attrs=attrs,
        )
        parent.children.append(child)
        return child

    def trace(self, name: str, *, trace_id: Optional[str] = None, **attrs):
        """A new root span, starting a new trace."""
        if not self.enabled:
            return NOOP_SPAN
        sampled = self.sample_rate >= 1.0 or random.random() < self.sample_rate
        with self._lock:
            self.traces_started += 1
        return Span(
            self,
            name,
            trace_id=trace_id or new_trace_id(),
            parent=None,
            sampled=sampled,
            attrs=attrs,
        )

    # -- completion --------------------------------------------------------

    def _finish(self, span: Span) -> None:
        duration = span.duration_s
        if span.error is not None and span.parent is not None:
            # bubble failure to the root so the keep-on-error hatch fires
            root = span.root
            if root.error is None:
                root.error = span.error
        self.stages.observe(duration, span.name)
        with self._lock:
            self.spans_finished += 1
            if span.parent is None:
                self._finish_trace(span, duration)
        if self.log_spans:
            _SPAN_LOGGER.info(
                "span %s finished",
                span.name,
                extra={
                    "span": span.name,
                    "trace": span.trace_id,
                    "duration_ms": round(duration * 1000.0, 3),
                    **({"error": span.error} if span.error else {}),
                },
            )

    def _finish_trace(self, root: Span, duration: float) -> None:
        slow = duration >= self.slow_threshold
        if root.error is not None:
            self.traces_error += 1
        if slow:
            self.traces_slow += 1
        if not (root.sampled or root.error is not None or slow):
            self.traces_dropped += 1
            return
        record = {
            "trace_id": root.trace_id,
            "name": root.name,
            "started_unix": root.wall_start,
            "duration_ms": duration * 1000.0,
            "sampled": root.sampled,
            "slow": slow,
            "error": root.error,
            "root": root.to_dict(),
        }
        self.traces_kept += 1
        self._recent.append(record)
        if slow:
            self._slow.append(record)

    # -- read side ---------------------------------------------------------

    def recent(self, limit: Optional[int] = None) -> list:
        with self._lock:
            records = list(self._recent)
        records.reverse()  # newest first
        return records[:limit] if limit else records

    def slow(self, limit: Optional[int] = None) -> list:
        with self._lock:
            records = list(self._slow)
        records.reverse()
        return records[:limit] if limit else records

    def find(self, trace_id: str) -> Optional[dict]:
        with self._lock:
            for record in reversed(self._recent):
                if record["trace_id"] == trace_id:
                    return record
            for record in reversed(self._slow):
                if record["trace_id"] == trace_id:
                    return record
        return None

    def stats_payload(self) -> dict:
        with self._lock:
            return {
                "enabled": self.enabled,
                "sample_rate": self.sample_rate,
                "slow_threshold_ms": self.slow_threshold * 1000.0,
                "started": self.traces_started,
                "kept": self.traces_kept,
                "dropped": self.traces_dropped,
                "errors": self.traces_error,
                "slow": self.traces_slow,
                "spans": self.spans_finished,
                "recent_size": len(self._recent),
                "slow_log_size": len(self._slow),
            }


_DEFAULT = Tracer()


def default_tracer() -> Tracer:
    return _DEFAULT


def configure(**kwargs) -> Tracer:
    """Reconfigure the process-wide default tracer in place."""
    return _DEFAULT.configure(**kwargs)


def tracing_enabled() -> bool:
    return _DEFAULT.enabled


def current_span() -> Optional[Span]:
    """The ambient span, or ``None`` outside any trace (or disabled)."""
    return _CURRENT.get()


def span(name: str, *, parent: Optional[Span] = None, **attrs):
    """A span under the ambient (or explicit) parent; root if neither."""
    if not _DEFAULT.enabled:
        return NOOP_SPAN
    return _DEFAULT.span(name, parent=parent, **attrs)


def child_span(name: str, **attrs):
    """Like :func:`span` but never starts a trace of its own — low-level
    stages (fsync, WAL writes) that are only meaningful inside one."""
    if not _DEFAULT.enabled:
        return NOOP_SPAN
    parent = _CURRENT.get()
    if parent is None:
        return NOOP_SPAN
    return _DEFAULT.span(name, parent=parent, **attrs)


def trace(name: str, *, trace_id: Optional[str] = None, **attrs):
    """A new root span (new trace), regardless of the ambient span."""
    if not _DEFAULT.enabled:
        return NOOP_SPAN
    return _DEFAULT.trace(name, trace_id=trace_id, **attrs)
