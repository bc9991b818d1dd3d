"""Serial vs. sharded analysis — the streaming stage's wall-clock case.

Builds a cached campaign of synthetic runs (one NPZ per run, as the result
cache stores them), then analyses it twice: once serially in-process and once
fanned out over the analysis pool, where each worker loads its run from the
NPZ cache itself.  Both the decompression and the MSPC scoring + oMEDA
diagnosis parallelize, the verdicts must be identical, and the measured
speedup is recorded.  As with the campaign-engine benchmark, the speedup
becomes a hard >= 1.5x gate only when ``REPRO_BENCH_STRICT=1`` on a
multi-core machine, so wall-clock noise cannot fail the tier-1 jobs.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.anomaly.diagnosis import DualLevelAnalyzer
from repro.common.config import MSPCConfig, ParallelConfig, SimulationConfig
from repro.datasets.generator import make_latent_structure_dataset
from repro.datasets.io import save_result_npz
from repro.experiments.analysis import AnalysisEngine
from repro.process.simulator import SimulationResult

N_RUNS = 8
MIN_SPEEDUP = 1.5
N_CALIBRATION = 2000


def _n_observations() -> int:
    # Sized so one run's load + score is a few hundred milliseconds: long
    # enough that pool spin-up and the per-task pickling are a small
    # fraction of the sharded wall-clock, short enough for tier-1.
    scale = os.environ.get("REPRO_BENCH_SCALE", "fast").lower()
    return 60_000 if scale == "paper" else 30_000


def _build_cached_campaign(tmp_path):
    """A fitted analyzer plus one NPZ cache entry per synthetic run."""
    n_obs = _n_observations()
    analyzer = DualLevelAnalyzer(MSPCConfig(n_components=4))
    calibration = make_latent_structure_dataset(
        n_observations=N_CALIBRATION, n_variables=24, n_latent=4,
        noise_scale=0.1, seed=100,
    )
    analyzer.fit(calibration, calibration.copy())

    paths = []
    for index in range(N_RUNS):
        fresh = make_latent_structure_dataset(
            n_observations=n_obs, n_variables=24, n_latent=4,
            noise_scale=0.1, seed=200 + index,
        )
        result = SimulationResult(
            controller_data=fresh,
            process_data=fresh.copy(),
            shutdown_time_hours=None,
            shutdown_reason=None,
            config=SimulationConfig(duration_hours=10.0, samples_per_hour=100),
            metadata={"run": index},
        )
        paths.append(save_result_npz(result, tmp_path / f"run_{index}.npz"))
    return analyzer, paths


def _assert_verdicts_identical(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.diagnosis.classification is b.diagnosis.classification
        assert a.diagnosis.detection_time_hours == b.diagnosis.detection_time_hours
        assert a.shutdown_time_hours == b.shutdown_time_hours
        for view in ("controller_omeda", "process_omeda"):
            omeda_a, omeda_b = getattr(a.diagnosis, view), getattr(b.diagnosis, view)
            assert (omeda_a is None) == (omeda_b is None)
            if omeda_a is not None:
                assert np.array_equal(
                    np.asarray(omeda_a.contributions),
                    np.asarray(omeda_b.contributions),
                )


@pytest.mark.benchmark(group="sharded-analysis")
def test_sharded_analysis_speedup(benchmark, tmp_path):
    analyzer, paths = _build_cached_campaign(tmp_path)
    n_cpus = os.cpu_count() or 1
    n_workers = min(N_RUNS, n_cpus)

    serial_engine = AnalysisEngine(analyzer, ParallelConfig.serial())
    started = time.perf_counter()
    serial_verdicts = list(serial_engine.map(paths))
    serial_seconds = time.perf_counter() - started

    with AnalysisEngine(
        analyzer, ParallelConfig(n_workers=n_workers)
    ) as sharded_engine:
        sharded_verdicts = benchmark.pedantic(
            lambda: list(sharded_engine.map(paths)), rounds=1, iterations=1
        )
        sharded_seconds = sharded_engine.last_stats.wall_seconds

    # Identical verdicts whichever engine scored the campaign.
    _assert_verdicts_identical(serial_verdicts, sharded_verdicts)

    speedup = serial_seconds / sharded_seconds if sharded_seconds > 0 else 1.0
    benchmark.extra_info["n_runs"] = N_RUNS
    benchmark.extra_info["n_observations"] = _n_observations()
    benchmark.extra_info["n_workers"] = n_workers
    benchmark.extra_info["n_cpus"] = n_cpus
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["sharded_seconds"] = round(sharded_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    print()
    print("Sharded analysis stage")
    print(
        f"  {N_RUNS} cached runs x {_n_observations()} observations, "
        f"{n_workers} workers on {n_cpus} CPUs"
    )
    print(f"  serial   {serial_seconds:7.2f} s")
    print(f"  sharded  {sharded_seconds:7.2f} s   speedup {speedup:.2f}x")

    strict = os.environ.get("REPRO_BENCH_STRICT") == "1"
    if strict and n_cpus >= 2 and n_workers >= 2:
        assert speedup >= MIN_SPEEDUP, (
            f"sharded analysis only {speedup:.2f}x faster than serial "
            f"(expected >= {MIN_SPEEDUP}x with {n_workers} workers)"
        )
