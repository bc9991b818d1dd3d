"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one figure or table of the paper's
evaluation (Section V).  The underlying campaign is run once per pytest
session at reduced scale (the ``REPRO_BENCH_SCALE`` environment variable
selects ``fast`` — the default — ``smoke`` for the minimal CI-friendly
settings, or ``paper`` for the full-fidelity settings) and the per-figure
benchmarks then measure and validate the generation of their artefact from
that shared campaign.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.config import ExperimentConfig
from repro.experiments.evaluation import Evaluation
from repro.experiments.scenarios import paper_scenarios


def _bench_config() -> ExperimentConfig:
    scale = os.environ.get("REPRO_BENCH_SCALE", "fast").lower()
    if scale == "paper":
        return ExperimentConfig.paper_settings(seed=2016)
    if scale == "smoke":
        # The smallest campaign on which every figure/table benchmark still
        # reproduces the paper's qualitative claims — used by the CI bench job.
        return replace(
            ExperimentConfig.smoke(seed=2016),
            n_calibration_runs=2,
            n_runs_per_scenario=1,
        )
    # Bench "fast" (the historical default) maps to ExperimentConfig.smoke():
    # these exact settings predate the preset and are intentionally smaller
    # than ExperimentConfig.fast(), whose 60 samples/h would slow every bench
    # session.  The CLI's --scale flag uses the presets by their own names.
    return ExperimentConfig.smoke(seed=2016)


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The campaign configuration used by every benchmark."""
    return _bench_config()


@pytest.fixture(scope="session")
def calibrated_evaluation(bench_config) -> Evaluation:
    """A calibrated evaluation campaign shared by all benchmark modules."""
    evaluation = Evaluation(bench_config)
    evaluation.calibrate()
    return evaluation


@pytest.fixture(scope="session")
def scenario_evaluations(calibrated_evaluation):
    """Results of the paper's four scenarios, evaluated once per session."""
    return calibrated_evaluation.evaluate_all(paper_scenarios())


@pytest.fixture
def emit_bench_json(benchmark):
    """Write the requesting benchmark's ``BENCH_<name>.json``.

    ``<name>`` is the module name after ``test_bench_``.  The nightly trend
    (``scripts/bench_trends.py``) then always has this benchmark's
    trajectory, independently of pytest-benchmark's ``--benchmark-json``.
    Call the fixture with the ``extra_info`` key whose value the trend
    tracks as the benchmark's mean, once ``extra_info`` is complete.
    """

    def emit(mean_key: str) -> None:
        module = Path(benchmark.fullname.split("::")[0]).stem
        payload = {
            "benchmarks": [
                {
                    "name": benchmark.name,
                    "fullname": benchmark.fullname,
                    "stats": {"mean": benchmark.extra_info[mean_key]},
                    "extra_info": dict(benchmark.extra_info),
                }
            ]
        }
        path = Path(f"BENCH_{module.removeprefix('test_bench_')}.json")
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")

    return emit
