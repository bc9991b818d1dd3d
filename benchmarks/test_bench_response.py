"""Response-runner overhead — the "free when idle" case for ``repro.response``.

Runs the ``normal`` scenario twice: once with plain live monitoring (a
:class:`LiveRunObserver` feeding a :class:`LiveMonitor`) and once with a
:class:`ResponseRunner` riding behind it, armed with a rule that can never
match (its ``variables`` constraint names no real TE variable).  The runner
then does all of its per-sample bookkeeping — alarm-event tracking,
detection gating, recovery streaks — without ever mutating the loop, so
the monitor reports must stay bitwise-identical and zero actions fire.
The two variants run *interleaved* (plain, response, plain, response, ...)
and each takes its min over ``ROUNDS`` — back-to-back blocks would fold
machine drift into the comparison, which at sub-second run times dwarfs
the per-sample cost being measured.  The measured overhead is always
reported (``extra_info`` and ``BENCH_response.json``) and becomes a hard
< 5 % gate only when ``REPRO_BENCH_STRICT=1`` (the CI bench jobs).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.experiments.registry import get_scenario
from repro.experiments.runner import run_scenario
from repro.live.monitor import LiveMonitor
from repro.live.observer import LiveRunObserver
from repro.response import ActionSpec, ResponsePolicy, ResponseRunner

MAX_OVERHEAD = 0.05
ROUNDS = 5


def _never_matching_policy() -> ResponsePolicy:
    """Armed, but constrained to a variable no oMEDA snapshot can implicate."""
    return ResponsePolicy(
        enabled=True,
        rules=(
            ActionSpec(
                action="quarantine_channel",
                channel="actuators",
                variables=("NEVER-MATCHES",),
            ),
        ),
    )


@pytest.mark.benchmark(group="response-overhead")
def test_response_runner_overhead(
    benchmark, bench_config, calibrated_evaluation, emit_bench_json
):
    analyzer = calibrated_evaluation.analyzer
    scenario = get_scenario("normal")
    simulation = bench_config.simulation
    policy = _never_matching_policy()

    def run_plain():
        monitor = LiveMonitor(analyzer, anomaly_start_hour=None)
        run_scenario(
            scenario,
            simulation,
            anomaly_start_hour=bench_config.anomaly_start_hour,
            observers=[LiveRunObserver(monitor)],
        )
        return monitor.report()

    def run_with_runner():
        monitor = LiveMonitor(analyzer, anomaly_start_hour=None)
        runner = ResponseRunner(monitor, policy)
        run_scenario(
            scenario,
            simulation,
            anomaly_start_hour=bench_config.anomaly_start_hour,
            observers=[LiveRunObserver(monitor)],
            observer_factories=[runner.bind],
        )
        return monitor.report(), runner

    state = {"plain": [], "response": []}

    def round_pair():
        started = time.perf_counter()
        state["plain_report"] = run_plain()
        state["plain"].append(time.perf_counter() - started)
        started = time.perf_counter()
        state["response_report"], state["runner"] = run_with_runner()
        state["response"].append(time.perf_counter() - started)

    round_pair()  # warm-up: imports, allocator, branch caches
    state["plain"].clear()
    state["response"].clear()
    benchmark.pedantic(round_pair, rounds=ROUNDS, iterations=1)

    plain_report = state["plain_report"]
    response_report, runner = state["response_report"], state["runner"]
    plain_seconds = min(state["plain"])
    response_seconds = min(state["response"])

    # Equivalence anchor: the armed-but-never-matching runner must not
    # perturb the run — identical monitor reports, zero actions applied.
    assert runner.actions == ()
    assert json.dumps(
        response_report.to_mapping(), sort_keys=True
    ) == json.dumps(plain_report.to_mapping(), sort_keys=True)

    overhead = (
        (response_seconds - plain_seconds) / plain_seconds
        if plain_seconds > 0
        else 0.0
    )
    benchmark.extra_info["n_samples"] = response_report.n_samples
    benchmark.extra_info["plain_seconds"] = round(plain_seconds, 3)
    benchmark.extra_info["response_seconds"] = round(response_seconds, 3)
    benchmark.extra_info["overhead_fraction"] = round(overhead, 4)
    emit_bench_json("response_seconds")

    print()
    print("Response runner overhead (normal scenario, no action fires)")
    print(f"  plain live monitoring  {plain_seconds:7.2f} s")
    print(
        f"  with response runner   {response_seconds:7.2f} s   "
        f"overhead {overhead:+.1%}"
    )

    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert overhead < MAX_OVERHEAD, (
            f"response runner costs {overhead:.1%} over plain live "
            f"monitoring when idle (expected < {MAX_OVERHEAD:.0%})"
        )
