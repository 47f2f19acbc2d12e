"""Benchmark-owned spans around calls into the program's public functions.

A :class:`Recorder` wraps a function so that every call records one
span: name, start, end, parent span and request id, plus optional
attributes computed from the call's result. Parents come from a context
variable, so they follow the server's executor hops (the server copies
the request's context into the worker thread). Spans stay in memory
until :meth:`Recorder.dump` writes them out.

:class:`Totals` turns a span list into per-name totals of duration and
*self time*: a span's duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
import time
from collections import defaultdict

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)

# span record layout: [name, start, end, parent index, request id, attrs]
NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


class Recorder:
    """Collects spans for one process."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._lock = threading.Lock()

    def _enter(self, name: str, request=None):
        parent = _CURRENT.get()
        with self._lock:
            if request is None and parent is not None:
                request = self.spans[parent][REQUEST]
            index = len(self.spans)
            record = [name, time.perf_counter(), None, parent, request, None]
            self.spans.append(record)
        return _CURRENT.set(index), record

    def wrap(self, fn, name: str, attrs=None, request=None, result_request=None):
        """Time every call of *fn* as a span called *name*.

        *attrs(result, args, kwargs)* returns the span's attributes;
        *request(args, kwargs)* names the request a root span belongs to,
        or *result_request(result)* does once the call has returned.
        """

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            token, record = self._enter(name, request(args, kwargs) if request else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                _CURRENT.reset(token)
            if attrs is not None:
                record[ATTRS] = attrs(result, args, kwargs)
            if result_request is not None:
                record[REQUEST] = result_request(result)
            return result

        return timed

    def wrap_async(self, fn, name: str, attrs=None, request=None, result_request=None):
        """:meth:`wrap` for a coroutine function."""

        @functools.wraps(fn)
        async def timed(*args, **kwargs):
            token, record = self._enter(name, request(args, kwargs) if request else None)
            try:
                result = await fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                _CURRENT.reset(token)
            if attrs is not None:
                record[ATTRS] = attrs(result, args, kwargs)
            if result_request is not None:
                record[REQUEST] = result_request(result)
            return result

        return timed

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load(path) -> "list[list]":
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def self_times(spans: "list[list]") -> "list[float]":
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[k][START], spans[k][END]) for k in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Totals:
    """Per-name sums over the spans of a chosen set of requests."""

    def __init__(self, spans: "list[list]", keep) -> None:
        selfs = self_times(spans)
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self = defaultdict(float)
        self.attrs = defaultdict(lambda: defaultdict(float))
        for index, span in enumerate(spans):
            if span[END] is None or not keep(span[REQUEST]):
                continue
            name = span[NAME]
            self.count[name] += 1
            self.total[name] += span[END] - span[START]
            self.self[name] += selfs[index]
            for key, value in (span[ATTRS] or {}).items():
                if isinstance(value, (int, float)):
                    self.attrs[name][key] += value
