"""Fast self-test of the benchmark: every workload at tiny sizes.

    python3 -m pytest perfbench

Each workload, including those ``BENCHMARK.json`` leaves out, runs
untraced and traced for a fraction of a second on a tiny document. The test asserts that every metric ``BENCHMARK.json``
names is emitted with its unit and sample count, that every correctness
check ran and passed, and that the last line follows the result format.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from run import WORKLOADS  # noqa: E402

CHECKOUT = BENCH_DIR.parent
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
CHECKS = {
    "scripts_match_reference", "final_load_matches_reference", "verify_sample",
    "final_view_matches", "standby_wal_identical", "node_count_stationary",
}


def _run(workload: str, trace: int) -> "tuple[dict, dict]":
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=str(CHECKOUT), timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    detail = next(line for line in lines if line.startswith("perfbench-detail "))
    return json.loads(detail.split(" ", 1)[1]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_metric(workload: str, trace: int) -> None:
    detail, last = _run(workload, trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = last["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert detail["samples"][metric["name"]] >= 1
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    assert CHECKS <= set(detail["checks"])
    # only the final view cannot be checked, and only on the sharded book
    not_applicable = {"final_view_matches"} if workload == "sharded_huge" else set()
    for name, check in detail["checks"].items():
        assert check["ok"] is (None if name in not_applicable else True), (name, check)
    assert detail["meta"]["fsync"] == "always"
    if trace:
        assert detail["tracing_overhead"]["untraced_p50_ms"] > 0
        assert len(detail["obs_comparison"]) == 4
    else:
        # every timing is reported paced, with its measured value kept
        timings = {m["name"] for m in declared if m["unit"] in ("ms", "s", "1/s")}
        assert set(detail["measured"]) == timings
        assert all(value > 0 for value in detail["measured"].values())


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((CHECKOUT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edit_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
