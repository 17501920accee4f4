"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload once, untraced and traced, at its smallest size (one
second, so one round), and checks that:

* every metric BENCHMARK.json names is printed with its unit;
* every failure is a catalogued known defect: the default loading-rate
  pair runs in cli_session only and fails every time, and the traced runs
  at seed 1 fail exactly as often as recorded below;
* the traced spans nest inside their parents and operations, and cover at
  least 90 % of operation wall time;
* in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from tracer import nesting_errors

SEED = 1
# Failures of the traced run (fixed rounds) at seed 1, by known defect.
EXPECTED_TRACED_FAILURES = {
    "cli_session": {"loading_rate_window": 2},
    "sweep_grid": {},
    "fit_batch": {"decay_fit_at_bound": 18},
}


def check_run(spec: dict, name: str, trace: int) -> list[str]:
    args = argparse.Namespace(workload=name, seed=SEED, seconds=1.0,
                              trace=trace)
    result, meta, tracer = run.run(args)
    label = f"{name} --trace {trace}"
    problems = []
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"),
                                                          float):
            problems.append(f"{label}: {m['name']} missing or wrong unit")
    if not result["correct"]:
        problems.append(f"{label}: unexpected failures "
                        f"{meta['unexpected_failures']}")
    known = meta["known_defect_failures"]
    if result["failed"] != sum(known.values()):
        problems.append(f"{label}: failed {result['failed']} != known {known}")
    want_loading = meta["op_count_by_kind"].get("fit_loading_rate", 0)
    if (name == "cli_session") != (want_loading > 0) or known.get(
            "loading_rate_window", 0) != want_loading:
        problems.append(f"{label}: loading-rate pair failed "
                        f"{known.get('loading_rate_window', 0)} times, "
                        f"expected {want_loading}")
    if trace:
        for defect, count in EXPECTED_TRACED_FAILURES[name].items():
            if known.get(defect, 0) != count:
                problems.append(f"{label}: {defect} failed "
                                f"{known.get(defect, 0)} times, expected {count}")
        problems += [f"{label}: {e}" for e in nesting_errors(tracer)[:5]]
        if metrics["trace.uncovered_pct"]["value"] > 10.0:
            problems.append(f"{label}: spans cover less than 90 % of "
                            "operation wall time")
    print(f"{label}: attempted {result['attempted']}, failed "
          f"{result['failed']} {known}", flush=True)
    return problems


def check_bare_directory() -> list[str]:
    """The benchmark must refuse to run without the program's sources."""
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "fit_batch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["bare directory: the benchmark ran without the program"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.load_program()
    problems = check_bare_directory()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
