"""Serial vs. parallel campaign execution — the engine's wall-clock case.

Runs the same 4-run calibration campaign twice, once through the serial
kernel, run by run (``run_scenario``), and once through the campaign engine
at its default batch size, which splits the runs evenly over a process pool;
asserts the two result sets are bitwise identical, and records the measured
speedup.  The speedup is
always reported (``extra_info``); it becomes a hard >= 1.5x gate only when
``REPRO_BENCH_STRICT=1`` (set by the CI bench-smoke job, which runs on a
multi-core runner) so that wall-clock noise on loaded machines cannot fail
the correctness-focused tier-1 jobs.  Single-core machines always skip the
gate.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.common.config import ExperimentConfig, MSPCConfig, ParallelConfig, SimulationConfig
from repro.experiments.parallel import CampaignEngine, calibration_specs
from repro.experiments.runner import run_scenario

N_RUNS = 4
MIN_SPEEDUP = 1.5


def _campaign_specs():
    # Runs long enough (~0.5 s each) that pool spin-up and result pickling
    # are a small fraction of the parallel wall-clock.
    config = ExperimentConfig(
        n_calibration_runs=N_RUNS,
        n_runs_per_scenario=1,
        anomaly_start_hour=4.0,
        simulation=SimulationConfig(duration_hours=14.0, samples_per_hour=40, seed=97),
        mspc=MSPCConfig(),
        seed=97,
    )
    return calibration_specs(config)


@pytest.mark.benchmark(group="parallel-campaign")
def test_parallel_campaign_speedup(benchmark):
    specs = _campaign_specs()
    n_cpus = os.cpu_count() or 1
    n_workers = min(N_RUNS, n_cpus)

    started = time.perf_counter()
    serial_results = [
        run_scenario(
            spec.scenario, spec.simulation, anomaly_start_hour=spec.anomaly_start_hour
        )
        for spec in specs
    ]
    serial_seconds = time.perf_counter() - started

    # The engine splits the four pending runs evenly over the workers.
    parallel_engine = CampaignEngine(ParallelConfig(n_workers=n_workers))
    parallel_results = benchmark.pedantic(
        parallel_engine.run, args=(specs,), rounds=1, iterations=1
    )
    parallel_seconds = parallel_engine.last_stats.wall_seconds

    # Identical datasets whichever kernel executed the campaign.
    for serial_result, parallel_result in zip(serial_results, parallel_results):
        assert np.array_equal(
            serial_result.controller_data.values,
            parallel_result.controller_data.values,
        )
        assert np.array_equal(
            serial_result.process_data.values,
            parallel_result.process_data.values,
        )
        assert serial_result.metadata == parallel_result.metadata

    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else 1.0
    benchmark.extra_info["n_runs"] = N_RUNS
    benchmark.extra_info["n_workers"] = n_workers
    benchmark.extra_info["n_cpus"] = n_cpus
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["parallel_seconds"] = round(parallel_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    print()
    print("Parallel campaign engine")
    print(f"  {N_RUNS} runs, {n_workers} workers on {n_cpus} CPUs")
    print(f"  serial   {serial_seconds:7.2f} s")
    print(f"  parallel {parallel_seconds:7.2f} s   speedup {speedup:.2f}x")

    strict = os.environ.get("REPRO_BENCH_STRICT") == "1"
    if strict and n_cpus >= 2 and n_workers >= 2:
        assert speedup >= MIN_SPEEDUP, (
            f"parallel campaign only {speedup:.2f}x faster than serial "
            f"(expected >= {MIN_SPEEDUP}x with {n_workers} workers)"
        )
