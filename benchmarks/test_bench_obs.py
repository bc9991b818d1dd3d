"""Observability overhead — the "zero-impact when disabled" contract.

Runs the five-scenario campaign (normal + the paper's four) twice per
round: once with the ``[obs]`` defaults (tracing off, logging off — the
path every existing campaign takes) and once fully instrumented (an
enabled :class:`~repro.obs.trace.Tracer` plus JSON logging into an
in-memory sink).  The two variants run *interleaved* and each takes its
min over ``ROUNDS``, so machine drift cancels out of the comparison.

Two things are asserted:

* **bitwise identity** — the instrumented campaign's scenario summaries
  must serialize identically to the plain ones (spans and log lines may
  observe the campaign, never perturb it);
* **bounded overhead** — the instrumented/plain wall-time ratio is always
  reported (``extra_info`` and ``BENCH_obs.json``) and becomes a hard
  < 2 % gate when ``REPRO_BENCH_STRICT=1`` (the CI bench jobs).  Since
  the disabled path does strictly less work than the enabled one (a
  single attribute check per span site), this also bounds the
  disabled-mode cost of the instrumentation itself.
"""

from __future__ import annotations

import io
import json
import os
import time

import pytest

from repro.experiments.analysis import build_arl_table
from repro.experiments.evaluation import Evaluation
from repro.experiments.scenarios import normal_scenario, paper_scenarios
from repro.obs.logs import configure_logging
from repro.obs.trace import Tracer, set_tracer

MAX_OVERHEAD = 0.02
ROUNDS = 5


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_overhead(benchmark, bench_config, emit_bench_json):
    scenarios = [normal_scenario(), *paper_scenarios()]

    def run_campaign() -> str:
        evaluation = Evaluation(bench_config)
        evaluation.calibrate(keep_results=False)
        summaries = evaluation.evaluate_all_streaming(scenarios)
        return json.dumps(build_arl_table(summaries), sort_keys=True)

    def run_plain() -> str:
        # The default state of every campaign: disabled tracer, no logging.
        set_tracer(Tracer(enabled=False))
        configure_logging(enabled=False)
        return run_campaign()

    def run_instrumented():
        tracer = set_tracer(Tracer(enabled=True, process="bench"))
        configure_logging(enabled=True, level="info", stream=io.StringIO())
        try:
            return run_campaign(), tracer
        finally:
            set_tracer(Tracer(enabled=False))
            configure_logging(enabled=False)

    state = {"plain": [], "enabled": []}

    def round_pair():
        started = time.perf_counter()
        state["plain_tables"] = run_plain()
        state["plain"].append(time.perf_counter() - started)
        started = time.perf_counter()
        state["enabled_tables"], state["tracer"] = run_instrumented()
        state["enabled"].append(time.perf_counter() - started)

    round_pair()  # warm-up: imports, allocator, branch caches
    state["plain"].clear()
    state["enabled"].clear()
    benchmark.pedantic(round_pair, rounds=ROUNDS, iterations=1)

    plain_seconds = min(state["plain"])
    enabled_seconds = min(state["enabled"])
    tracer = state["tracer"]

    # Equivalence anchor: instrumentation observes, never perturbs.
    assert state["enabled_tables"] == state["plain_tables"]
    # The instrumented campaign actually traced its stages.
    assert tracer.n_spans > 0

    overhead = (
        (enabled_seconds - plain_seconds) / plain_seconds
        if plain_seconds > 0
        else 0.0
    )
    benchmark.extra_info["n_spans"] = tracer.n_spans
    benchmark.extra_info["plain_seconds"] = round(plain_seconds, 3)
    benchmark.extra_info["enabled_seconds"] = round(enabled_seconds, 3)
    benchmark.extra_info["obs_overhead_fraction"] = round(overhead, 4)
    emit_bench_json("enabled_seconds")

    print()
    print("Observability overhead (five-scenario campaign)")
    print(f"  obs disabled (default) {plain_seconds:7.2f} s")
    print(
        f"  tracing + JSON logs    {enabled_seconds:7.2f} s   "
        f"overhead {overhead:+.1%}  ({tracer.n_spans} spans)"
    )

    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert overhead < MAX_OVERHEAD, (
            f"full instrumentation costs {overhead:.1%} over the disabled "
            f"path (expected < {MAX_OVERHEAD:.0%})"
        )
