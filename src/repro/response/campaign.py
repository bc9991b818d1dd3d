"""Response-enabled campaigns: per-scenario runs with the action runner on.

Response actions mutate the trajectory mid-run, so response-enabled runs
must never share NPZ cache entries with plain campaign runs.  This module
therefore executes them in-process through
:func:`~repro.experiments.runner.run_scenario` — bypassing the result
cache entirely — while taking each run's settings from the engine's own
:func:`~repro.experiments.parallel.scenario_specs`, so a run the policy
never touches is bitwise-identical to the same run under the
batch/parallel engine.  Early stopping is deliberately off: recovery has
to stay observable after the detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.experiments.evaluation import Evaluation
from repro.experiments.parallel import scenario_specs
from repro.experiments.runner import run_scenario
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


def evaluate_scenario_response(
    evaluation: Evaluation,
    scenario: Scenario,
    policy: ResponsePolicy,
    n_runs: Optional[int] = None,
    on_report: Optional[OnReport] = None,
) -> ResponseScenarioResult:
    """Run one scenario ``n_runs`` times with the response runner attached.

    ``evaluation`` must be calibrated (it is calibrated on demand
    otherwise).  Runs follow the campaign engine's specs, so the
    pre-action prefix of every run matches the plain campaign bitwise.
    """
    if not evaluation.is_calibrated:
        evaluation.calibrate(keep_results=False)
    config = evaluation.config
    reports = []
    for run_index, spec in enumerate(scenario_specs(config, scenario, n_runs)):
        monitor = LiveMonitor(
            evaluation.analyzer,
            anomaly_start_hour=(
                spec.anomaly_start_hour if scenario.is_anomalous else None
            ),
        )
        runner = ResponseRunner(monitor, policy)
        run_scenario(
            scenario,
            spec.simulation,
            anomaly_start_hour=spec.anomaly_start_hour,
            enable_safety=spec.enable_safety,
            observers=[LiveRunObserver(monitor)],
            observer_factories=[runner.bind],
        )
        report = runner.report()
        reports.append(report)
        if on_report is not None:
            on_report(scenario.name, run_index, report)
    return ResponseScenarioResult(scenario=scenario, reports=tuple(reports))


def evaluate_all_response(
    evaluation: Evaluation,
    scenarios: Iterable[Scenario],
    policy: ResponsePolicy,
    n_runs: Optional[int] = None,
    on_report: Optional[OnReport] = None,
) -> Dict[str, ResponseScenarioResult]:
    """Run every scenario response-enabled; results keyed by scenario name."""
    results: Dict[str, ResponseScenarioResult] = {}
    for scenario in scenarios:
        results[scenario.name] = evaluate_scenario_response(
            evaluation, scenario, policy, n_runs=n_runs, on_report=on_report
        )
    return results
