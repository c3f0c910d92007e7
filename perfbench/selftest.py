"""Self-test of the benchmark on the tiny ladder (z2, s3_k01).

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload untraced and traced with ``--ladder tiny``, which
goes through every code path of the full workloads in a few seconds each,
and checks that:

* each run exits 0, reports ``correct`` and prints every metric that
  ``BENCHMARK.json`` names, with its unit, as a ``metric`` line and in the
  final JSON line;
* the text report carries the figures each workload owes (``verify_s``,
  ``eval_*``, ``failed_frac``);
* one deliberately wrong pinned invariant makes the gate fail the run;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = "7"
OWED = {
    "build-s5": ["setup_s", "peak_rss_mb", "failed_frac"],
    "verify-ladder": ["setup_s", "verify_s", "peak_rss_mb", "failed_frac"],
    "hurwitz-batch": ["setup_s", "eval_per_s", "eval_ms_p50", "eval_ms_p99", "peak_rss_mb", "failed_frac"],
}


def bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", SEED, "--seconds", "0.5", "--ladder", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_run(problems: list[str], workload: str, trace: int, expected: dict[str, str]) -> None:
    label = f"{workload} --trace {trace}"
    completed = bench("--workload", workload, "--trace", str(trace))
    result = last_json(completed.stdout)
    if completed.returncode != 0 or result is None:
        problems.append(f"{label}: exit {completed.returncode}, stderr {completed.stderr[-500:]!r}")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}")
    lines = completed.stdout.splitlines()
    for name, unit in expected.items():
        metric = metrics.get(name, {})
        value = metric.get("value")
        if metric.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {metric.get('unit')!r}, want {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r} is not a finite number")
        if not any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}") for line in lines):
            problems.append(f"{label}: no 'metric {name} = ... {unit}' line")
    if trace == 0:
        for name in OWED[workload]:
            if not any(line.split()[1:2] == [name] for line in lines if line.split()[:1] in (["metric"], ["report"])):
                problems.append(f"{label}: the report does not name {name}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [entry["name"] for entry in spec["workloads"]]
    problems: list[str] = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {entry["name"]: entry["unit"] for entry in spec[key]}
        for workload in workloads:
            check_run(problems, workload, trace, expected)

    tripped = bench("--workload", "build-s5", "--pin", "z2.dim_B=5")
    result = last_json(tripped.stdout)
    if tripped.returncode == 0 or result is None or result["correct"] or result["failed"] < 1:
        problems.append(f"wrong pin z2.dim_B=5 did not trip the gate (exit {tripped.returncode})")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    alone = bench("--workload", workloads[0], "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if alone.returncode == 0 or last_json(alone.stdout) is not None:
        problems.append(f"without src/ the benchmark exited {alone.returncode} with output {alone.stdout[-200:]!r}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
