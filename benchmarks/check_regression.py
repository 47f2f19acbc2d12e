"""Fail when a fresh benchmark run regresses against the checked-in baseline.

CI's ``bench-smoke`` job runs::

    python benchmarks/bench_end_to_end.py --json /tmp/bench.json --smoke
    python benchmarks/check_regression.py \\
        --baseline BENCH_PR10.json --candidate /tmp/bench.json

Absolute times are machine-bound and useless across runners, so only
**ratio** metrics are compared (``RATIO_METRICS``): the
session-vs-transient speedup of the streaming workload, sharded size
independence, the served and traced efficiencies, and a followed
standby's convergence. A candidate ratio more than ``--tolerance``
(default 25%) below the baseline's fails the job. The baseline file
carries a dedicated ``smoke_reference`` section (per-metric minimum of
several smoke runs on the baseline machine); a smoke candidate is
compared against that, a full run against the root workloads.

The report names the baseline file and the section it compared
against, prints both runs' ``meta``, and shows beside each ratio the two
absolute values it divides, for candidate and baseline — a same-machine
drift report that the ratios alone hide.
"""

from __future__ import annotations

import argparse
import json
import sys

# (section, ratio metric, numerator, denominator): the two absolute
# values each ratio divides, printed beside it so a ratio that fell
# because its denominator got faster reads differently from one that
# fell because its numerator got slower
RATIO_METRICS = (
    (
        "streaming", "session_speedup_vs_transient",
        "transient_ms_per_update", "session_ms_per_update",
    ),
    # sharded serving: small-document latency / large-document latency —
    # 1.0 is perfect size independence, the PR-6 acceptance line is 0.5
    (
        "sharded_streaming", "size_independence",
        "sharded_small_ms_per_update", "sharded_large_ms_per_update",
    ),
    # served streaming: in-process time / wire-served time — bounds the
    # per-update overhead the serving front-end adds (PR-7)
    (
        "served_streaming", "served_efficiency",
        "in_process_ms_per_update", "served_ms_per_update",
    ),
    # untraced served time / fully-traced served time — bounds the cost
    # of turning request tracing on (PR-8)
    (
        "served_streaming", "tracing_enabled_efficiency",
        "served_ms_per_update", "traced_ms_per_update",
    ),
    # 1/(1 + steady-state lag) of a followed standby after the stream
    # stops — 1.0 iff the live feed converged to zero lag (PR-10)
    ("replication", "follow_lag_bounded", None, "follow_steady_lag"),
)

# Smoke workloads are microsecond-scale, so even their *ratios* wobble
# with scheduler noise on shared runners. Caps bound what the smoke gate
# may demand: the baseline box's 2.7x smoke session speedup on
# wide_schema still only requires 1x (minus tolerance) in CI — enough to
# prove the session's caches are alive without tripping on a 20 µs
# hiccup. Full-mode comparisons are uncapped.
SMOKE_EXPECTATION_CAPS = {
    "session_speedup_vs_transient": 1.0,
    "size_independence": 0.5,
    # 2-update smoke streams are dominated by per-request wire fixed
    # costs; only require the served path to stay within ~20x of the
    # in-process path (full mode compares the real ratio, uncapped)
    "served_efficiency": 0.05,
    # tracing's per-span cost is nanoseconds against microsecond-noise
    # smoke rounds; only require traced serving within 2x of untraced
    "tracing_enabled_efficiency": 0.5,
    # convergence is binary — a followed standby must reach zero lag in
    # smoke runs too, so the cap changes nothing and stays at 1.0
    "follow_lag_bounded": 1.0,
}


def _absolutes(data: dict, numerator: "str | None", denominator: str) -> str:
    """``numerator/denominator`` as measured, e.g. ``16.80/0.019``."""
    values = [data.get(key) for key in (numerator, denominator) if key is not None]
    return "/".join("?" if value is None else f"{value:.3g}" for value in values)


def check(
    baseline: dict, candidate: dict, tolerance: float, baseline_name: str = "baseline"
) -> "list[str]":
    mode = candidate.get("meta", {}).get("mode", "full")
    if mode == "smoke" and "smoke_reference" in baseline:
        section_name = "smoke_reference"
        reference = baseline["smoke_reference"]["workloads"]
    else:
        section_name = "workloads"
        reference = baseline["workloads"]
    print(f"baseline: {baseline_name}, compared against its {section_name!r} section")
    if "note" in baseline.get(section_name, {}):
        print(f"baseline {section_name} note: {baseline[section_name]['note']}")
    print(f"baseline meta: {json.dumps(baseline.get('meta', {}), sort_keys=True)}")
    print(f"candidate meta: {json.dumps(candidate.get('meta', {}), sort_keys=True)}")
    failures: "list[str]" = []
    for family, sections in candidate["workloads"].items():
        if family not in reference:
            continue
        for section, metric, numerator, denominator in RATIO_METRICS:
            expected_data = reference[family].get(section, {})
            actual_data = sections.get(section, {})
            expected = expected_data.get(metric)
            actual = actual_data.get(metric)
            if expected is None or actual is None:
                continue
            if mode == "smoke" and metric in SMOKE_EXPECTATION_CAPS:
                expected = min(expected, SMOKE_EXPECTATION_CAPS[metric])
            floor = expected * (1.0 - tolerance)
            status = "ok" if actual >= floor else "REGRESSION"
            print(
                f"{family}.{section}.{metric}: candidate {actual:.2f}x vs "
                f"baseline {expected:.2f}x (floor {floor:.2f}x) [{status}]; "
                f"{'/'.join(k for k in (numerator, denominator) if k)}: "
                f"candidate {_absolutes(actual_data, numerator, denominator)}, "
                f"baseline {_absolutes(expected_data, numerator, denominator)}"
            )
            if actual < floor:
                failures.append(
                    f"{family}.{section}.{metric}: {actual:.2f}x < "
                    f"{floor:.2f}x (baseline {expected:.2f}x - {tolerance:.0%})"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--candidate", required=True)
    parser.add_argument("--tolerance", type=float, default=0.25)
    args = parser.parse_args(argv)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(args.candidate, encoding="utf-8") as handle:
        candidate = json.load(handle)
    failures = check(baseline, candidate, args.tolerance, args.baseline)
    if failures:
        print("\nperformance regression vs checked-in baseline:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nno regression beyond tolerance — baseline holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
