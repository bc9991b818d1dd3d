"""Batched vectorized simulation — the wall-clock case for ``repro.batch``.

Runs the simulation stage of the paper's five-scenario campaign twice on a
single core: once through the serial kernel, run by run (``run_scenario``,
one interpreter pass per run), and once through the campaign engine (the
whole campaign stepped as lockstep ``(B, ...)`` arrays).  Asserts the
per-run results are bitwise-identical and records the measured speedup.  The speedup is always reported
(``extra_info`` and ``BENCH_batch.json``); it becomes a hard >= 3x gate only
when ``REPRO_BENCH_STRICT=1`` (the CI bench jobs).

Unlike the figure benchmarks this one sizes its own campaign: the batch
kernel's win grows with the rows it can step together, so the run counts
are floored to fill one default-sized batch even at smoke scale.

Not every batch is full: the last batch of a split group, or of a partly
warm cache, can hold one or two rows (a lone pending run takes the serial
kernel).  So the test also reports the CPU cost per step of one short run
on the serial kernel and on the batch kernel at B=1 and B=2 (the narrow
regime: ``serial_step_seconds``, ``batch_b1_step_seconds``,
``batch_b2_step_seconds``) and at B=8, the width campaigns step at
(``batch_b8_step_seconds``).  Under ``REPRO_BENCH_STRICT=1`` a B=1 step must
cost at most 1.0x a serial one and a B=8 step at most 1.05x: each kernel
builds its step per width as closures over bound buffers, which put the two
ratios at 0.71x and 0.76x (medians of 12 runs on a 2-core VM; 0.685-0.817x
and 0.745-0.894x), so each ceiling sits above the slowest run by more than
the whole spread.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.batch import run_specs_batched
from repro.common.config import ParallelConfig, SimulationConfig
from repro.experiments.parallel import (
    CampaignEngine,
    RunSpec,
    calibration_specs,
    scenario_specs,
)
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import normal_scenario, paper_scenarios

MIN_SPEEDUP = 3.0
#: Strict-mode ceilings on a B=1 and a B=8 batch step, in serial steps.
MAX_B1_STEP_RATIO = 1.0
MAX_B8_STEP_RATIO = 1.05
#: One short run of the narrow-regime timing: 60 samples, 240 steps.
NARROW_RUN = SimulationConfig(duration_hours=2.0, samples_per_hour=30, seed=0)


def campaign_specs(bench_config):
    """Simulation specs of the five-scenario campaign, batch-sized.

    Calibration and per-scenario repeats are floored so the campaign holds
    at least one default batch worth of runs even at smoke scale — the
    regime the kernel is built for.
    """
    config = replace(
        bench_config,
        # 6 calibration runs + 5 scenarios x 2 = 16 runs: one full default
        # batch, the regime the kernel is built for.
        n_calibration_runs=max(bench_config.n_calibration_runs, 6),
        n_runs_per_scenario=max(bench_config.n_runs_per_scenario, 2),
    )
    specs = list(calibration_specs(config))
    for scenario in [normal_scenario(), *paper_scenarios()]:
        specs.extend(scenario_specs(config, scenario))
    return specs


def batch_step_seconds(rounds: int = 3):
    """CPU seconds per step of one short normal run: serial kernel, batch
    kernel at B=1, B=2 and B=8 (one step advances every row).

    The four runs are interleaved and each keeps its minimum over
    ``rounds``, so a slow spell of the host hits all of them alike.
    """
    scenario = normal_scenario()
    specs = [
        RunSpec(scenario=scenario, simulation=NARROW_RUN.with_seed(seed))
        for seed in range(1, 9)
    ]
    runs = {
        "serial_step_seconds": lambda: run_scenario(scenario, specs[0].simulation),
        "batch_b1_step_seconds": lambda: run_specs_batched(specs[:1]),
        "batch_b2_step_seconds": lambda: run_specs_batched(specs[:2]),
        "batch_b8_step_seconds": lambda: run_specs_batched(specs),
    }
    best = dict.fromkeys(runs, math.inf)
    for _ in range(rounds):
        for name, run in runs.items():
            started = time.process_time()
            run()
            best[name] = min(best[name], time.process_time() - started)
    steps = NARROW_RUN.total_samples * NARROW_RUN.integration_steps_per_sample
    return {name: seconds / steps for name, seconds in best.items()}


@pytest.mark.benchmark(group="batch-campaign")
def test_batch_backend_speedup(benchmark, bench_config, emit_bench_json):
    specs = campaign_specs(bench_config)

    started = time.perf_counter()
    serial_results = [
        run_scenario(
            spec.scenario, spec.simulation, anomaly_start_hour=spec.anomaly_start_hour
        )
        for spec in specs
    ]
    serial_seconds = time.perf_counter() - started

    batch_engine = CampaignEngine(ParallelConfig.serial())
    batch_results = benchmark.pedantic(
        batch_engine.run, args=(specs,), rounds=1, iterations=1
    )
    batch_seconds = benchmark.stats.stats.mean

    # Equivalence anchor: per-run results identical across kernels — data
    # views, timestamps, shutdown truncation, metadata.
    assert len(serial_results) == len(batch_results)
    for serial_run, batch_run in zip(serial_results, batch_results):
        assert np.array_equal(
            serial_run.controller_data.values, batch_run.controller_data.values
        )
        assert np.array_equal(
            serial_run.process_data.values, batch_run.process_data.values
        )
        assert np.array_equal(
            serial_run.controller_data.timestamps,
            batch_run.controller_data.timestamps,
        )
        assert serial_run.metadata == batch_run.metadata
        assert serial_run.shutdown_time_hours == batch_run.shutdown_time_hours

    # The campaign horizon is long enough that anomalous runs really trip,
    # so the gate covers per-row truncation, not just the happy path.
    assert any(run.shutdown_time_hours is not None for run in serial_results)

    speedup = serial_seconds / batch_seconds if batch_seconds > 0 else 1.0
    step_seconds = batch_step_seconds()
    b1_ratio = step_seconds["batch_b1_step_seconds"] / step_seconds["serial_step_seconds"]
    b8_ratio = step_seconds["batch_b8_step_seconds"] / step_seconds["serial_step_seconds"]
    benchmark.extra_info["n_runs"] = len(specs)
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["batch_seconds"] = round(batch_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    for name, seconds in step_seconds.items():
        benchmark.extra_info[name] = round(seconds, 7)
    emit_bench_json("batch_seconds")

    print()
    print("Batched vectorized campaign (five paper scenarios, single core)")
    print(f"  serial kernel  {serial_seconds:7.2f} s   ({len(specs)} runs)")
    print(f"  batch engine   {batch_seconds:7.2f} s   speedup {speedup:.2f}x")
    print("CPU per step of one short run")
    print(f"  serial kernel  {step_seconds['serial_step_seconds'] * 1e3:7.3f} ms")
    print(
        f"  batch B=1      {step_seconds['batch_b1_step_seconds'] * 1e3:7.3f} ms"
        f"   {b1_ratio:.2f}x serial"
    )
    print(f"  batch B=2      {step_seconds['batch_b2_step_seconds'] * 1e3:7.3f} ms")
    print(
        f"  batch B=8      {step_seconds['batch_b8_step_seconds'] * 1e3:7.3f} ms"
        f"   {b8_ratio:.2f}x serial"
    )

    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert speedup >= MIN_SPEEDUP, (
            f"batched campaign only {speedup:.2f}x faster than serial "
            f"(expected >= {MIN_SPEEDUP}x)"
        )
        assert b1_ratio <= MAX_B1_STEP_RATIO, (
            f"a B=1 batch step costs {b1_ratio:.2f}x a serial step "
            f"(expected <= {MAX_B1_STEP_RATIO}x)"
        )
        assert b8_ratio <= MAX_B8_STEP_RATIO, (
            f"a B=8 batch step costs {b8_ratio:.2f}x a serial step "
            f"(expected <= {MAX_B8_STEP_RATIO}x)"
        )
