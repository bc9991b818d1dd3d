"""Compare pytest-benchmark JSON artifacts across runs and flag regressions.

The nightly workflow uploads one ``BENCH_<date>_<run>.json`` per night; this
tool turns a pile of such files into a trend report: for every benchmark it
compares the latest run against the median of the earlier runs and flags
mean-time regressions beyond ``--threshold`` (default 10 %).

Examples
--------
Compare the newest file in a directory against all older ones::

    python scripts/bench_trends.py artifacts/

Gate a CI job on the comparison (non-zero exit on any regression)::

    python scripts/bench_trends.py artifacts/ --strict

Name the candidate file explicitly::

    python scripts/bench_trends.py baseline-dir/ --latest bench-results.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

DEFAULT_THRESHOLD = 0.10


def load_metrics(path: Path) -> Dict[str, tuple]:
    """All comparable metrics of one benchmark JSON file.

    Returns ``name -> (value, higher_is_better, unit)``.  Besides each
    benchmark's mean time, numeric ``extra_info`` columns are compared too:
    the kernel benchmarks record per-path wall clocks (keys ending in
    ``_seconds``, lower is better), measured ``speedup`` columns (higher
    is better) and relative-cost columns (keys ending in ``_fraction``,
    lower is better — e.g. the response runner's no-alarm overhead), so a
    path that silently loses its edge flags a regression even when the
    overall mean stays flat.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    metrics: Dict[str, tuple] = {}
    for benchmark in payload.get("benchmarks", ()):
        name = benchmark.get("fullname") or benchmark.get("name")
        if not name:
            continue
        stats = benchmark.get("stats") or {}
        if isinstance(stats.get("mean"), (int, float)):
            metrics[str(name)] = (float(stats["mean"]), False, "s")
        extra = benchmark.get("extra_info") or {}
        for key, value in extra.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if key.endswith("_seconds"):
                metrics[f"{name}::{key}"] = (float(value), False, "s")
            elif "speedup" in key:
                metrics[f"{name}::{key}"] = (float(value), True, "x")
            elif key.endswith("_fraction"):
                metrics[f"{name}::{key}"] = (float(value), False, "")
    return metrics


def collect_files(paths) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(path.glob("BENCH_*.json"))
            files.extend(path.glob("bench-results.json"))
        elif path.exists():
            files.append(path)
        else:
            raise SystemExit(f"no such file or directory: {path}")
    # Nightly artifacts are named BENCH_<YYYYMMDD>_<run>.json, so name order
    # is chronological; ties and foreign names fall back to mtime.
    unique = sorted(set(files), key=lambda f: (f.name, f.stat().st_mtime))
    return unique


def compare(
    baseline_files: List[Path],
    latest_file: Path,
    threshold: float,
) -> Dict[str, List[Dict[str, object]]]:
    """Classify every benchmark of the latest run against the baseline.

    The baseline value of a benchmark is the **median** of its mean times
    over the earlier files — robust to one noisy night.  Time-like metrics
    regress upward; ``speedup`` columns regress downward.
    """
    history: Dict[str, List[float]] = {}
    for path in baseline_files:
        for name, (value, _, _) in load_metrics(path).items():
            history.setdefault(name, []).append(value)
    latest = load_metrics(latest_file)

    report: Dict[str, List[Dict[str, object]]] = {
        "regressions": [],
        "improvements": [],
        "stable": [],
        "new": [],
        "missing": [],
    }
    for name, (value, higher_is_better, unit) in sorted(latest.items()):
        if name not in history:
            report["new"].append({"name": name, "latest": value, "unit": unit})
            continue
        baseline = statistics.median(history[name])
        delta = (value - baseline) / baseline if baseline > 0 else 0.0
        entry = {
            "name": name,
            "baseline": baseline,
            "latest": value,
            "delta": delta,
            "n_history": len(history[name]),
            "unit": unit,
        }
        worsened = -delta if higher_is_better else delta
        if worsened > threshold:
            report["regressions"].append(entry)
        elif worsened < -threshold:
            report["improvements"].append(entry)
        else:
            report["stable"].append(entry)
    for name in sorted(set(history) - set(latest)):
        report["missing"].append({"name": name})
    return report


def print_report(
    report: Dict[str, List[Dict[str, object]]],
    latest_file: Path,
    n_baseline: int,
    threshold: float,
) -> None:
    print(
        f"bench trend: {latest_file.name} vs median of {n_baseline} earlier "
        f"run(s), threshold {threshold:.0%}\n"
    )
    for kind, symbol in (
        ("regressions", "▲"),
        ("improvements", "▼"),
        ("stable", "="),
    ):
        for entry in report[kind]:
            unit = entry.get("unit", "s")
            print(
                f"  {symbol} {entry['name']}: {entry['baseline']:.4f}{unit} -> "
                f"{entry['latest']:.4f}{unit} ({entry['delta']:+.1%}, "
                f"n={entry['n_history']})"
            )
    for entry in report["new"]:
        unit = entry.get("unit", "s")
        print(f"  + {entry['name']}: {entry['latest']:.4f}{unit} (no history)")
    for entry in report["missing"]:
        print(f"  - {entry['name']}: present in history, absent from latest")
    print(
        f"\n{len(report['regressions'])} regression(s), "
        f"{len(report['improvements'])} improvement(s), "
        f"{len(report['stable'])} stable, {len(report['new'])} new, "
        f"{len(report['missing'])} missing"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "paths",
        nargs="+",
        help="benchmark JSON files and/or directories holding BENCH_*.json",
    )
    parser.add_argument(
        "--latest",
        type=Path,
        default=None,
        help="the candidate file (default: the newest collected file)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative mean-time slowdown flagged as a regression "
        "(default: 0.10 = 10%%)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any regression is flagged",
    )
    arguments = parser.parse_args(argv)

    files = collect_files(arguments.paths)
    latest: Optional[Path] = arguments.latest
    if latest is not None:
        latest = Path(latest)
        if not latest.exists():
            raise SystemExit(f"no such file: {latest}")
        files = [f for f in files if f.resolve() != latest.resolve()]
    else:
        if not files:
            raise SystemExit("no benchmark files found")
        latest = files[-1]
        files = files[:-1]

    if not files:
        print(
            f"bench trend: {latest.name} has no earlier runs to compare "
            "against; nothing to do"
        )
        return 0

    report = compare(files, latest, arguments.threshold)
    print_report(report, latest, len(files), arguments.threshold)
    if arguments.strict and report["regressions"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
