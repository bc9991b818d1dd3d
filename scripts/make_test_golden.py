"""Regenerate ``tests/golden/campaign_smoke.json``, the checked-in anchor of
the campaign tables, the run trajectories and the lockstep step count.

One :class:`~repro.api.Session` runs ``examples/specs/batch_paper.toml`` at
the smoke shape (3 calibration runs, 2 runs per scenario, 14 h at 30
samples/h, anomaly onset at hour 6, root seed 2016, one worker, a fresh
cache directory), with the ``[live]`` section of
``examples/specs/live_paper.toml``.  The session runs three times, in this
order:

1. ``run(streaming=True)`` on the fresh cache, counting the
   ``BatchTEPlant.step_batch`` calls it makes (calibration included);
2. ``run(streaming=False)``, which replays that cache and retains every run;
3. ``run_live()``.

The record holds the sha256 of each run's tables (canonical JSON), one
sha256 over every run the second call retains (both data views, their
timestamps and the shutdown time), the same digest per retained run keyed
``scenario/index`` (so a mismatch names the run), a sha256 of the
calibration matrices the models were fitted on (values and timestamps of
both views), the step count, and the numpy, scipy and Python versions the
digests hold on.

A second session runs ``examples/specs/response_paper.toml`` at the same
smoke shape and root seed through ``run_response()``, without a result
cache.  Its ``response`` entry holds the sha256 of the recovery table and
one sha256 per run report (canonical JSON of ``ResponseReport.to_mapping``),
keyed ``scenario/index``.

``tests/test_golden_campaign.py`` repeats the same measurement and compares.
Regenerate only when a change is meant to alter these values.  ``--check``
measures and prints each key whose value differs from the checked-in record
(nested keys joined by dots), writes nothing, and exits 1 on any difference:
run it first to see what a change moves.

    PYTHONPATH=src python scripts/make_test_golden.py [--check]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy

from repro import api
from repro.common.config import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "examples" / "specs"
GOLDEN = ROOT / "tests" / "golden" / "campaign_smoke.json"
ROOT_SEED = 2016


def versions() -> Dict[str, str]:
    """The library versions a digest is only promised to hold on."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def smoke_shaped(spec: api.CampaignSpec, cache_dir: Optional[Path]) -> api.CampaignSpec:
    """``spec`` at the smoke shape and root seed, on one worker."""
    smoke = ExperimentConfig.smoke(seed=ROOT_SEED)
    experiment = replace(
        spec.experiment,
        n_calibration_runs=smoke.n_calibration_runs,
        n_runs_per_scenario=smoke.n_runs_per_scenario,
        anomaly_start_hour=smoke.anomaly_start_hour,
        simulation=replace(
            spec.experiment.simulation,
            duration_hours=smoke.simulation.duration_hours,
            samples_per_hour=smoke.simulation.samples_per_hour,
            seed=smoke.simulation.seed,
        ),
        parallel=replace(
            spec.experiment.parallel,
            n_workers=1,
            cache_dir=None if cache_dir is None else str(cache_dir),
        ),
        seed=smoke.seed,
    )
    return spec.with_experiment(experiment)


def golden_spec(cache_dir: Path) -> api.CampaignSpec:
    """The smoke-shaped batch campaign, armed with the live section."""
    spec = smoke_shaped(api.load_spec(SPECS / "batch_paper.toml"), cache_dir)
    live = api.load_spec(SPECS / "live_paper.toml").live
    return replace(spec, live=live)


def response_spec() -> api.CampaignSpec:
    """The smoke-shaped response campaign, without a result cache."""
    return smoke_shaped(api.load_spec(SPECS / "response_paper.toml"), None)


def table_digest(tables) -> str:
    """sha256 of a table mapping's canonical JSON."""
    text = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _update_views(digest, controller_data, process_data) -> None:
    """Feed both data views' values and timestamps into ``digest``."""
    for view in (controller_data, process_data):
        for array in (view.values, view.timestamps):
            array = np.ascontiguousarray(array, dtype=np.float64)
            digest.update(repr(array.shape).encode("ascii"))
            digest.update(array.tobytes())


def _update_run(digest, name: str, run) -> None:
    """Feed one retained run (views and shutdown time) into ``digest``."""
    digest.update(name.encode("utf-8"))
    _update_views(digest, run.controller_data, run.process_data)
    digest.update(repr(run.shutdown_time_hours).encode("ascii"))


def trajectory_digest(result: api.CampaignResult) -> str:
    """One sha256 over every retained run, in scenario and run order."""
    digest = hashlib.sha256()
    for records in result.per_seed.values():
        for name, record in records.items():
            for run in record.results:
                _update_run(digest, name, run)
    return digest.hexdigest()


def run_digests(result: api.CampaignResult) -> Dict[str, str]:
    """The sha256 of each retained run, keyed ``scenario/index``."""
    digests: Dict[str, str] = {}
    for records in result.per_seed.values():
        for name, record in records.items():
            for index, run in enumerate(record.results):
                digest = hashlib.sha256()
                _update_run(digest, name, run)
                digests[f"{name}/{index}"] = digest.hexdigest()
    return digests


def calibration_digest(session: api.Session) -> str:
    """sha256 of the calibration matrices the root seed's models were
    fitted on: values and timestamps of both views."""
    calibration = session.evaluation(ROOT_SEED).calibration
    digest = hashlib.sha256()
    _update_views(digest, calibration.controller_data, calibration.process_data)
    return digest.hexdigest()


def measure_response() -> Dict[str, object]:
    """Run the response campaign; digest its table and every run report."""
    result = api.Session(response_spec()).run_response()
    reports: Dict[str, str] = {}
    for records in result.per_seed.values():
        for name, record in records.items():
            for index, report in enumerate(record.reports):
                reports[f"{name}/{index}"] = table_digest(report.to_mapping())
    return {"tables": table_digest(result.tables()), "reports": reports}


@contextmanager
def counted_steps() -> Iterator[Dict[str, int]]:
    """Count ``BatchTEPlant.step_batch`` calls while the block runs."""
    from repro.te.batch import BatchTEPlant

    original = BatchTEPlant.step_batch
    count = {"calls": 0}

    def step_batch(self, *args, **kwargs):
        count["calls"] += 1
        return original(self, *args, **kwargs)

    BatchTEPlant.step_batch = step_batch
    try:
        yield count
    finally:
        BatchTEPlant.step_batch = original


def measure(cache_dir: Path) -> Dict[str, object]:
    """Run the three campaign calls on a fresh cache and record them."""
    session = api.Session(golden_spec(cache_dir))
    with counted_steps() as steps:
        streaming = session.run(streaming=True)
    eager = session.run(streaming=False)
    live = session.run_live()
    return {
        "versions": versions(),
        "step_batch_calls": steps["calls"],
        "tables": {
            "streaming": table_digest(streaming.tables()),
            "eager": table_digest(eager.tables()),
            "live": table_digest(live.tables()),
        },
        "trajectories": trajectory_digest(eager),
        "runs": run_digests(eager),
        "calibration": calibration_digest(session),
        "response": measure_response(),
    }


def differences(
    measured: object, golden: object, key: str = ""
) -> List[Tuple[str, object, object]]:
    """``(key, golden, measured)`` for every leaf whose value differs; the
    keys of nested mappings are joined by dots."""
    if isinstance(measured, dict) and isinstance(golden, dict):
        found: List[Tuple[str, object, object]] = []
        for name in sorted(set(measured) | set(golden)):
            found += differences(
                measured.get(name), golden.get(name), f"{key}.{name}" if key else name
            )
        return found
    return [] if measured == golden else [(key, golden, measured)]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="print the keys that differ from the golden record; write nothing",
    )
    arguments = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        record = measure(Path(scratch) / "cache")
    if arguments.check:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        found = differences(record, golden)
        for key, expected, actual in found:
            print(f"{key}: {expected!r} -> {actual!r}")
        if not found:
            print(f"no difference from {GOLDEN.relative_to(ROOT)}")
        return 1 if found else 0
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
