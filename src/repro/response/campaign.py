"""Response-enabled campaigns: per-scenario runs with the action runner on.

Response actions mutate the trajectory mid-run, so response-enabled runs
must never share NPZ cache entries with plain campaign runs.  This module
therefore executes them in-process, bypassing the result cache, whatever
the spec's worker count.  Every response run of a root seed forms one
ordered plan (scenario, then run index), taking each run's settings from the
engine's own :func:`~repro.experiments.parallel.scenario_specs`; the plan
steps through :meth:`~repro.batch.simulator.BatchSimulator.run_specs` in
lockstep batches of ``parallel.batch_width(simulation)`` rows.  Each row
carries its own :class:`~repro.live.monitor.LiveMonitor`,
:class:`~repro.live.observer.LiveRunObserver` and
:class:`~repro.response.runner.ResponseRunner`, and no trajectory is kept:
the reports are what the campaign returns.  The batch kernel is pinned
bit for bit to the serial one, so every report equals the one
:func:`~repro.experiments.runner.run_scenario` with the runner bound
produces, and a run the policy never touches is bitwise-identical to the
same run under the campaign engine.  Memory grows with the batch: each
row's monitor holds its run's observation window until the batch ends.
Early stopping is deliberately off: recovery has to stay observable after
the detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.experiments.evaluation import Evaluation
from repro.experiments.parallel import scenario_specs
from repro.experiments.scenarios import Scenario
from repro.live.monitor import LiveMonitor
from repro.live.observer import LiveRunObserver
from repro.response.metrics import ResponseReducer, ResponseSummary
from repro.response.policy import ResponsePolicy
from repro.response.runner import ResponseRunner
from repro.response.verify import ResponseReport

__all__ = [
    "ResponseScenarioResult",
    "evaluate_scenario_response",
    "evaluate_all_response",
]

#: Per-report progress callback: ``(scenario_name, run_index, report)``.
OnReport = Callable[[str, int, ResponseReport], None]


@dataclass(frozen=True)
class ResponseScenarioResult:
    """Every response report of one scenario, plus its aggregate."""

    scenario: Scenario
    reports: Tuple[ResponseReport, ...]

    @property
    def n_runs(self) -> int:
        """How many runs were executed."""
        return len(self.reports)

    def to_summary(self) -> ResponseSummary:
        """Replay the reports through a fresh :class:`ResponseReducer`."""
        reducer = ResponseReducer(self.scenario)
        for report in self.reports:
            reducer.update(report)
        return reducer.summary()

    def to_mapping(self) -> Dict[str, Any]:
        """A plain, JSON-safe mapping (summary plus per-run reports)."""
        return {
            "scenario": self.scenario.name,
            "summary": self.to_summary().to_mapping(),
            "reports": [report.to_mapping() for report in self.reports],
        }


def _response_stack(evaluation: Evaluation, spec, policy: ResponsePolicy):
    """One run's runner and the observer factory that attaches it.

    The factory returns the live observer, then the runner bound to the
    run's simulator: the serial order of ``observers=[LiveRunObserver]``
    followed by ``observer_factories=[runner.bind]``.
    """
    monitor = LiveMonitor(
        evaluation.analyzer,
        anomaly_start_hour=(
            spec.anomaly_start_hour if spec.scenario.is_anomalous else None
        ),
    )
    runner = ResponseRunner(monitor, policy)
    observer = LiveRunObserver(monitor)

    def attach(simulator) -> Tuple[Any, ...]:
        return (observer,) + runner.bind(simulator)

    return runner, attach


def evaluate_all_response(
    evaluation: Evaluation,
    scenarios: Iterable[Scenario],
    policy: ResponsePolicy,
    n_runs: Optional[int] = None,
    on_report: Optional[OnReport] = None,
) -> Dict[str, ResponseScenarioResult]:
    """Run every scenario response-enabled; results keyed by scenario name.

    ``evaluation`` must be calibrated (it is calibrated on demand
    otherwise, through the campaign engine, whose calibration runs step in
    the same lockstep batches).  Every run of every scenario steps in one
    ordered plan, in lockstep batches of ``parallel.batch_width`` rows for
    the campaign's simulation.
    ``on_report`` is called with ``(scenario_name, run_index, report)`` in
    plan order, as each batch completes.
    """
    # Imported lazily, so importing repro.api does not load the batch
    # kernel for callers that never run it.
    from repro.batch.simulator import BatchSimulator

    if not evaluation.is_calibrated:
        evaluation.calibrate(keep_results=False)
    config = evaluation.config
    scenarios = list(scenarios)
    reports: List[List[ResponseReport]] = [[] for _ in scenarios]
    plan = [
        (position, run_index, spec)
        for position, scenario in enumerate(scenarios)
        for run_index, spec in enumerate(scenario_specs(config, scenario, n_runs))
    ]
    batch_size = config.parallel.batch_width(config.simulation)
    simulator = BatchSimulator(batch_size=batch_size)
    for offset in range(0, len(plan), batch_size):
        chunk = plan[offset : offset + batch_size]
        stacks = [_response_stack(evaluation, spec, policy) for _, _, spec in chunk]
        simulator.run_specs(
            [spec for _, _, spec in chunk],
            observer_factories=[(attach,) for _, attach in stacks],
            trajectories=False,
        )
        for (position, run_index, _), (runner, _) in zip(chunk, stacks):
            report = runner.report()
            reports[position].append(report)
            if on_report is not None:
                on_report(scenarios[position].name, run_index, report)
    return {
        scenario.name: ResponseScenarioResult(
            scenario=scenario, reports=tuple(runs)
        )
        for scenario, runs in zip(scenarios, reports)
    }


def evaluate_scenario_response(
    evaluation: Evaluation,
    scenario: Scenario,
    policy: ResponsePolicy,
    n_runs: Optional[int] = None,
    on_report: Optional[OnReport] = None,
) -> ResponseScenarioResult:
    """Run one scenario ``n_runs`` times with the response runner attached.

    The one-scenario plan of :func:`evaluate_all_response`.  Runs follow
    the campaign engine's specs, so the pre-action prefix of every run
    matches the plain campaign bitwise.
    """
    return evaluate_all_response(
        evaluation, [scenario], policy, n_runs=n_runs, on_report=on_report
    )[scenario.name]
