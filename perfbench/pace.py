"""The host's pace: a fixed slice of interpreter work, timed next to the
program's requests, so that each timing can be read at the speed the
machine ran at while it was taken.

On a shared host the same work runs at different speeds from one moment
to the next, with other tenants' load on the same cores. On a 2-CPU VM a
fixed pure-Python loop switches between two speeds ~1.65x apart, each
held for seconds, and the share of slow time drifts over minutes; raw
latencies of the same code then differ by half between runs. Every
benchmark process is pinned to one CPU (:func:`pin`) and the server
inherits the pin, so a probe taken in the client just before a request
runs on the CPU the server then uses, at the speed it then has.

A paced timing is ``measured * NOMINAL_S / probe``: the time the work
would take on a machine where the probe takes ``NOMINAL_S``. The code
under test never runs the probe, so a change to the program moves paced
timings as it moves measured ones, while the host's speed cancels out.
"""

from __future__ import annotations

import json
import os
import statistics
import time

NOMINAL_S = 0.0025
"""What :func:`probe` takes on the nominal machine."""
SLICES = 6
"""Slices of work per probe: about 2.5 ms on a 2-CPU VM."""
PHASE_PROBES = 3
"""Probes on each side of a phase (:func:`paced`)."""


def pin() -> "int | None":
    """Pin this process, and every process it starts, to its lowest CPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _slice() -> int:
    # the kinds of work a request costs the server: string assembly and
    # splitting, dict and list churn, a JSON round trip
    nodes = {}
    for i in range(300):
        nodes[f"n{i}"] = f"Nop.patient#n{i}(Nop.name#m{i}, Nop.room#r{i})"
    parts = ", ".join(nodes.values()).split(", ")
    parts.sort()
    decoded = json.loads(json.dumps({"op": "propagate", "update": parts[:200]}))
    return len(decoded["update"])


def probe() -> float:
    """Seconds a fixed amount of work takes now."""
    start = time.perf_counter()
    for _ in range(SLICES):
        _slice()
    return time.perf_counter() - start


def scale(seconds: float, probe_s: float) -> float:
    """*seconds* measured when a probe took *probe_s*, at nominal pace."""
    return seconds * NOMINAL_S / probe_s


def around(seconds: float, before: float) -> float:
    """*seconds* of a request with a probe of *before* just ahead of it,
    at nominal pace: a second probe is taken now, and the two stand for
    the speed in between, which may have switched."""
    return scale(seconds, (before + probe()) / 2)


def paced(timed) -> "tuple[float, float]":
    """Run *timed*, which returns the seconds it measured, between probes;
    returns those seconds and the same at nominal pace. A phase lasts up
    to a few seconds, within which the host's speed mostly holds; the
    median of the probes on both sides stands for it."""
    probes = [probe() for _ in range(PHASE_PROBES)]
    seconds = timed()
    probes += [probe() for _ in range(PHASE_PROBES)]
    return seconds, scale(seconds, statistics.median(probes))
