"""Zero-dependency observability: tracing spans, metric families
(:mod:`repro.obs.metrics`) and structured logs.

The package has no imports from the rest of :mod:`repro` so every
layer — engine, store, replication, sharding, server — can hook into
it without creating cycles.  Tracing is off by default and the
module-level :func:`span` helper returns a shared no-op span in that
case, so instrumented hot paths pay only one attribute load and one
``is-enabled`` check.
"""

from .logfmt import JsonLogFormatter, enable_json_logs
from .trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    child_span,
    configure,
    current_span,
    default_tracer,
    new_trace_id,
    span,
    trace,
    tracing_enabled,
)

__all__ = [
    "JsonLogFormatter",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "child_span",
    "configure",
    "current_span",
    "default_tracer",
    "enable_json_logs",
    "new_trace_id",
    "span",
    "trace",
    "tracing_enabled",
]
