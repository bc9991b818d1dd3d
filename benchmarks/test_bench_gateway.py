"""Cross-stream batched scoring — the throughput case for ``repro.gateway``.

Feeds the same recorded plant run into 64 concurrent streams twice: once
per-stream sequential (one :class:`LiveMonitor` per stream, every sample
scored alone — what serving N plants without the gateway costs) and once
through the :class:`MonitorPool`, which packs the due samples of all
streams into ``(B, M)`` scoring batches.  Asserts the pooled reports are
bitwise-identical to the sequential ones and records the measured speedup
and the implied real-time streams-per-core capacity.  The speedup is
always reported (``extra_info`` and ``BENCH_gateway.json``); it becomes a
hard >= 2x gate only when ``REPRO_BENCH_STRICT=1`` (the CI bench jobs).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.common.config import GatewayConfig
from repro.experiments.registry import get_scenario
from repro.experiments.runner import run_scenario
from repro.gateway.pool import MonitorPool
from repro.live.monitor import LiveMonitor

MIN_SPEEDUP = 2.0
N_STREAMS = 64
#: Rounds of interleaved feeding between pool flushes: each flush then
#: scores N_STREAMS x FLUSH_EVERY rows per view in batches of 256.
FLUSH_EVERY = 4
#: Per-stream sample cap so the sequential baseline stays bounded even at
#: ``REPRO_BENCH_SCALE=paper``.
MAX_SAMPLES = 240


@pytest.fixture(scope="module")
def recorded_run(bench_config):
    """One recorded anomalous plant run every stream replays."""
    return run_scenario(
        get_scenario("attack_xmv3"),
        bench_config.simulation,
        anomaly_start_hour=bench_config.anomaly_start_hour,
    )


@pytest.mark.benchmark(group="gateway-streams")
def test_gateway_batched_scoring_speedup(
    benchmark, bench_config, calibrated_evaluation, recorded_run, emit_bench_json
):
    analyzer = calibrated_evaluation.analyzer
    onset = bench_config.anomaly_start_hour
    controller = recorded_run.controller_data
    process = recorded_run.process_data
    n_samples = min(controller.n_observations, MAX_SAMPLES)
    samples = [
        (controller.values[i], process.values[i], float(controller.timestamps[i]))
        for i in range(n_samples)
    ]

    # Baseline: N independent monitors, every sample scored alone — the
    # per-stream sequential path the gateway replaces.
    started = time.perf_counter()
    monitors = [
        LiveMonitor(analyzer, anomaly_start_hour=onset) for _ in range(N_STREAMS)
    ]
    for values in samples:
        for monitor in monitors:
            monitor.observe(*values)
    sequential_seconds = time.perf_counter() - started
    sequential_reports = [
        json.dumps(monitor.report().to_mapping(), sort_keys=True)
        for monitor in monitors
    ]

    def run_pooled():
        pool = MonitorPool(
            analyzer,
            GatewayConfig(port=0, ingest_port=0, max_pending_samples=4096),
        )
        for stream in range(N_STREAMS):
            pool.open_stream(f"plant-{stream}", onset)
        for index, values in enumerate(samples):
            for stream in range(N_STREAMS):
                pool.feed(f"plant-{stream}", *values)
            if index % FLUSH_EVERY == FLUSH_EVERY - 1:
                pool.flush()
        return [
            pool.close_stream(f"plant-{stream}") for stream in range(N_STREAMS)
        ]

    pooled_reports = benchmark.pedantic(run_pooled, rounds=1, iterations=1)
    batched_seconds = benchmark.stats.stats.mean

    # Equivalence anchor: every pooled stream's report is bitwise-identical
    # to its sequential twin — batching changes wall-clock, never verdicts.
    for stream in range(N_STREAMS):
        pooled = json.dumps(pooled_reports[stream], sort_keys=True)
        assert pooled == sequential_reports[stream], f"stream {stream} diverged"

    total = N_STREAMS * n_samples
    speedup = sequential_seconds / batched_seconds if batched_seconds > 0 else 1.0
    # How many real-time plant streams one core sustains: gateway sample
    # throughput over the rate one plant emits at.
    samples_per_second = total / batched_seconds if batched_seconds > 0 else 0.0
    stream_rate = bench_config.simulation.samples_per_hour / 3600.0
    streams_per_core = samples_per_second / stream_rate if stream_rate else 0.0

    benchmark.extra_info["n_streams"] = N_STREAMS
    benchmark.extra_info["samples_per_stream"] = n_samples
    benchmark.extra_info["sequential_seconds"] = round(sequential_seconds, 3)
    benchmark.extra_info["batched_seconds"] = round(batched_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["samples_per_second"] = round(samples_per_second, 1)
    benchmark.extra_info["streams_per_core"] = round(streams_per_core)
    emit_bench_json("batched_seconds")

    print()
    print(f"Gateway cross-stream batched scoring ({N_STREAMS} streams)")
    print(
        f"  sequential {sequential_seconds:7.2f} s   "
        f"({total} samples scored one by one)"
    )
    print(
        f"  batched    {batched_seconds:7.2f} s   speedup {speedup:.2f}x, "
        f"{samples_per_second:,.0f} samples/s, "
        f"~{streams_per_core:,.0f} real-time streams/core"
    )

    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert speedup >= MIN_SPEEDUP, (
            f"batched gateway scoring only {speedup:.2f}x faster than "
            f"per-stream sequential (expected >= {MIN_SPEEDUP}x)"
        )
