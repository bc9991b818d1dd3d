"""cProfile hotspot report for the simulation hot path.

Profiles two workloads so future performance PRs start from data instead of
guesses:

* **one run** — a single closed-loop simulation through the serial
  :class:`~repro.process.simulator.ClosedLoopSimulator` (the per-step
  Python costs: plant flows, PID updates, channel transmits, recording);
* **one campaign chunk** — a batch of runs through the
  :class:`~repro.experiments.parallel.CampaignEngine` with one worker, so
  its lockstep batches step in this process (what a worker process
  executes).

Each report prints the top-N functions by cumulative time (default 20).

Examples
--------
Profile the default smoke-scale workloads::

    PYTHONPATH=src python scripts/profile_campaign.py

Profile a chunk in lockstep batches of 4, top 30 functions::

    PYTHONPATH=src python scripts/profile_campaign.py --batch-size 4 --top 30

Profile only the single serial run, at higher fidelity::

    PYTHONPATH=src python scripts/profile_campaign.py --only run \
        --duration 20 --samples-per-hour 60

Emit the profile as a Chrome trace-event JSON (same format as
``run_campaign.py --trace``: real spans for each workload plus a synthetic
``cprofile`` lane holding the top functions by cumulative time; open in
Perfetto, or summarize with ``scripts/obs_report.py``)::

    PYTHONPATH=src python scripts/profile_campaign.py --trace profile.json
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

from repro.common.config import ExperimentConfig, ParallelConfig, SimulationConfig
from repro.experiments.parallel import (
    CampaignEngine,
    calibration_specs,
    scenario_specs,
)
from repro.experiments.registry import get_scenario
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import normal_scenario, paper_scenarios
from repro.obs.trace import Tracer, get_tracer, set_tracer, span


def _report(title: str, profiler: cProfile.Profile, top: int) -> None:
    print(f"\n=== {title}: top {top} by cumulative time ===")
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)


def _absorb_pstats(
    profiler: cProfile.Profile, top: int, lane: str
) -> None:
    """Lay the top functions by cumulative time onto a synthetic lane.

    cProfile has no per-call timestamps, so the functions are placed
    side by side (width = cumulative time) on a ``cprofile`` pid — the
    lane reads as a ranking, not a timeline, next to the real spans.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return
    stats = pstats.Stats(profiler)
    entries = sorted(
        stats.stats.items(), key=lambda item: -item[1][3]
    )[:top]
    import time as _time

    offset = _time.time()
    records = []
    for (filename, line, funcname), (_cc, ncalls, _tt, cumtime, _callers) in entries:
        label = f"{funcname} ({filename.rsplit('/', 1)[-1]}:{line})"
        records.append(
            {
                "name": label,
                "start": offset,
                "duration": float(cumtime),
                "process": "cprofile",
                "thread": lane,
                "attributes": {"ncalls": ncalls},
            }
        )
        offset += float(cumtime)
    tracer.absorb(records)


def profile_single_run(arguments: argparse.Namespace) -> None:
    """One serial closed-loop run of the requested scenario."""
    scenario = get_scenario(arguments.scenario)
    simulation = SimulationConfig(
        duration_hours=arguments.duration,
        samples_per_hour=arguments.samples_per_hour,
        seed=arguments.seed,
    )
    onset = arguments.onset
    if onset >= arguments.duration:
        onset = arguments.duration / 2.0
    profiler = cProfile.Profile()
    with span(
        "profile.run", scenario=scenario.name, duration_hours=arguments.duration
    ):
        profiler.enable()
        run_scenario(scenario, simulation, anomaly_start_hour=onset)
        profiler.disable()
    _absorb_pstats(profiler, arguments.top, lane="run")
    _report(
        f"one serial run ({scenario.name}, {arguments.duration:g} h)",
        profiler,
        arguments.top,
    )


def profile_campaign_chunk(arguments: argparse.Namespace) -> None:
    """One engine chunk of the five-scenario campaign, in-process."""
    config = ExperimentConfig.smoke(seed=arguments.seed)
    specs = list(calibration_specs(config))
    for scenario in [normal_scenario(), *paper_scenarios()]:
        specs.extend(scenario_specs(config, scenario))
    engine = CampaignEngine(
        ParallelConfig(n_workers=1, batch_size=arguments.batch_size)
    )
    batch_size = engine.config.batch_width(config.simulation)
    profiler = cProfile.Profile()
    with span("profile.chunk", n_runs=len(specs), batch_size=batch_size):
        profiler.enable()
        engine.run(specs)
        profiler.disable()
    _absorb_pstats(profiler, arguments.top, lane="chunk")
    _report(
        f"one campaign chunk ({len(specs)} runs, batch_size={batch_size})",
        profiler,
        arguments.top,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--only",
        choices=("run", "chunk"),
        default=None,
        help="profile only one of the two workloads",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="rows per lockstep batch of the campaign-chunk workload "
        "(default: 16)",
    )
    parser.add_argument(
        "--scenario", default="idv6", help="scenario of the single-run workload"
    )
    parser.add_argument("--seed", type=int, default=2016, help="root seed")
    parser.add_argument(
        "--duration", type=float, default=8.0, help="single-run duration, hours"
    )
    parser.add_argument(
        "--samples-per-hour", type=int, default=30, help="single-run sampling rate"
    )
    parser.add_argument(
        "--onset", type=float, default=4.0, help="single-run anomaly onset, hours"
    )
    parser.add_argument(
        "--top", type=int, default=20, help="functions shown per report (default 20)"
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="also write the profile as Chrome trace-event JSON (the "
        "run_campaign.py --trace format): real workload/engine spans plus "
        "a synthetic 'cprofile' lane of the top functions",
    )
    arguments = parser.parse_args(argv)

    tracer = None
    if arguments.trace is not None:
        tracer = set_tracer(Tracer(enabled=True, process="profile"))

    if arguments.only in (None, "run"):
        profile_single_run(arguments)
    if arguments.only in (None, "chunk"):
        profile_campaign_chunk(arguments)

    if tracer is not None:
        tracer.write_chrome_trace(
            arguments.trace,
            metadata={"tool": "profile_campaign.py", "top": arguments.top},
        )
        print(f"\ntrace: {tracer.n_spans} span(s) written to {arguments.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
