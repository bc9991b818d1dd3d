"""Journal overhead — the "durability is nearly free" contract.

Runs the five-scenario campaign (normal + the paper's four) through the
service protocol twice per round: once with a journalless coordinator
(the path every pre-journal deployment took) and once with a durable
:class:`~repro.service.journal.CoordinatorJournal` under it, fsyncing on
every append.  The two variants run *interleaved* over separately warmed
caches and each takes its min over ``ROUNDS``, so machine drift cancels
out of the comparison.

Two things are asserted:

* **bitwise identity** — the journaled campaign's tables must serialize
  identically to the journalless ones (the journal observes scheduling,
  never perturbs results);
* **bounded overhead** — the journaled/journalless wall-time ratio is
  always reported (``extra_info`` and ``BENCH_faults.json``) and becomes
  a hard < 3 % gate when ``REPRO_BENCH_STRICT=1`` (the CI bench jobs).

Every round simulates from a fresh cache, so the denominator is the real
campaign (the quantity an operator experiences), not a cache-hot protocol
replay.  A fresh journal file per round keeps replay cost out of the
append-path measurement; the append count is reported alongside so the
per-append cost can be derived from the trend.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.api.spec import CampaignSpec
from repro.common.config import ExperimentConfig, ParallelConfig, SimulationConfig
from repro.service import CampaignCoordinator, ChunkWorker

MAX_OVERHEAD = 0.03
ROUNDS = 5

# Journal appends scale with the chunk count, not the run length, so the
# run length sets how honest the ratio is: 12-hour runs keep the bench
# fast (~7 runs of ~250 ms) while the append cost stays the same absolute
# handful of fsyncs it would be on the full-fidelity campaign.
BENCH_EXPERIMENT = ExperimentConfig(
    n_calibration_runs=2,
    n_runs_per_scenario=1,
    anomaly_start_hour=2.0,
    simulation=SimulationConfig(duration_hours=12.0, samples_per_hour=20, seed=13),
    parallel=ParallelConfig.serial(),
    seed=13,
)

FIVE_SCENARIOS = ["normal", "idv6", "attack_xmv3", "attack_xmeas1", "dos_xmv3"]


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="bench-faults", scenarios=FIVE_SCENARIOS
    ).with_experiment(BENCH_EXPERIMENT)


@pytest.mark.benchmark(group="faults-overhead")
def test_journal_overhead(benchmark, tmp_path, emit_bench_json):
    def run_protocol(cache_dir: Path, journal) -> tuple:
        coordinator = CampaignCoordinator(cache_dir, journal=journal)
        campaign_id = coordinator.submit(_spec())
        ChunkWorker(coordinator, worker_id="bench").drain(campaign_id)
        tables = coordinator.tables(campaign_id)
        appends = (
            0
            if coordinator.journal is None
            else coordinator.journal.journal.appends
        )
        if coordinator.journal is not None:
            coordinator.journal.close()
        return json.dumps(tables, sort_keys=True), appends

    state = {"plain": [], "journaled": [], "round": 0}

    def round_pair():
        # Fresh caches per round: both variants simulate the whole
        # campaign, so the overhead is relative to real campaign work.
        index = state["round"] = state["round"] + 1
        started = time.perf_counter()
        state["plain_tables"], _ = run_protocol(
            tmp_path / f"plain-cache-{index}", None
        )
        state["plain"].append(time.perf_counter() - started)
        journal = tmp_path / f"round-{index}.journal"
        started = time.perf_counter()
        state["journaled_tables"], state["appends"] = run_protocol(
            tmp_path / f"journaled-cache-{index}", journal
        )
        state["journaled"].append(time.perf_counter() - started)

    round_pair()  # warm-up: imports, allocator, branch caches
    state["plain"].clear()
    state["journaled"].clear()
    benchmark.pedantic(round_pair, rounds=ROUNDS, iterations=1)

    plain_seconds = min(state["plain"])
    journaled_seconds = min(state["journaled"])

    # Equivalence anchor: the journal records scheduling, never results.
    assert state["journaled_tables"] == state["plain_tables"]
    # The journaled coordinator actually journaled its protocol.
    assert state["appends"] > 0

    overhead = (
        (journaled_seconds - plain_seconds) / plain_seconds
        if plain_seconds > 0
        else 0.0
    )
    benchmark.extra_info["journal_appends"] = state["appends"]
    benchmark.extra_info["plain_seconds"] = round(plain_seconds, 3)
    benchmark.extra_info["journaled_seconds"] = round(journaled_seconds, 3)
    benchmark.extra_info["faults_journal_overhead_fraction"] = round(overhead, 4)
    emit_bench_json("journaled_seconds")

    print()
    print("Journal overhead (five-scenario campaign, fresh caches)")
    print(f"  journalless coordinator {plain_seconds:7.2f} s")
    print(
        f"  fsync-always journal    {journaled_seconds:7.2f} s   "
        f"overhead {overhead:+.1%}  ({state['appends']} appends)"
    )

    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert overhead < MAX_OVERHEAD, (
            f"durable journaling costs {overhead:.1%} over the journalless "
            f"protocol (expected < {MAX_OVERHEAD:.0%})"
        )
