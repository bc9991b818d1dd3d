"""Steadiness report: how much each end-to-end metric moves between runs.

Runs ``run.py`` repeatedly per workload, with seeds 1, 2, ... and the
``run_seconds`` of ``BENCHMARK.json``, and prints for every end-to-end
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread -- the quartile distance as a share of the median -- next
to the metric's bound from ``BENCHMARK.json``.  A metric is ``ok`` when its
spread is within its bound, the acceptance rule the bounds were set by;
``setup_s`` is reported but, like that rule, not judged.  Exits 1 if any
metric is ``WIDE``.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} incorrect:\n{completed.stderr}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument(
        "--workload", action="append",
        choices=[workload["name"] for workload in benchmark["workloads"]],
    )
    arguments = parser.parse_args()
    names = arguments.workload or [w["name"] for w in benchmark["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}

    steady = True
    for workload in names:
        runs = []
        for seed in range(1, arguments.runs + 1):
            runs.append(run_once(workload, seed, benchmark["run_seconds"]))
            print(f"{workload} seed {seed}: " + json.dumps(runs[-1]), flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if name == "setup_s":
                verdict = "-"
            elif spread <= bound:
                verdict = "ok"
            else:
                verdict = "WIDE"
                steady = False
            print(f"  {name:<16}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.3f}{bound:>7.2f}  {verdict}")
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
