"""Campaign-level response metrics: the recovery table.

:class:`ResponseReducer` folds the :class:`~repro.response.verify.ResponseReport`
of every run of one scenario into a :class:`ResponseSummary`;
:func:`build_response_table` turns the per-scenario summaries into the
recovery table (actions taken, recovery rate, mean time-to-recovery,
trip-avoidance rate, residual alarm rate) printed by
``run_campaign.py --respond`` — the same reducer/summary/table shape as
:mod:`repro.experiments.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.codec import Mapped
from repro.experiments.scenarios import Scenario
from repro.response.verify import ResponseReport

__all__ = ["ResponseReducer", "ResponseSummary", "build_response_table"]


def _mean(values: Tuple[float, ...]) -> Optional[float]:
    return sum(values) / len(values) if values else None


@dataclass(frozen=True)
class ResponseSummary(Mapped, label="response_summary"):
    """Aggregated response outcome of one scenario's runs.

    ``recovery_rate`` and ``trip_avoidance_rate`` are taken over the runs
    in which at least one action fired (``n_responded``) — a run the
    policy never touched can neither recover nor avoid a trip on the
    response's account.
    """

    scenario_name: str
    title: str
    n_runs: int = 0
    n_detected: int = 0
    n_responded: int = 0
    n_actions: int = 0
    n_recovered: int = 0
    n_trips: int = 0
    n_trips_avoided: int = 0
    times_to_recovery_hours: Tuple[float, ...] = ()
    residual_alarm_rates: Tuple[float, ...] = ()

    @property
    def recovery_rate(self) -> float:
        """Fraction of responded runs that returned to in-control operation."""
        return self.n_recovered / self.n_responded if self.n_responded else 0.0

    @property
    def trip_avoidance_rate(self) -> float:
        """Fraction of responded runs that finished without a safety trip."""
        return (
            self.n_trips_avoided / self.n_responded if self.n_responded else 0.0
        )

    @property
    def mean_time_to_recovery_hours(self) -> Optional[float]:
        """Mean hours from first action to recovery, over recovered runs."""
        return _mean(self.times_to_recovery_hours)

    @property
    def mean_residual_alarm_rate(self) -> Optional[float]:
        """Mean post-action alarm rate, over responded runs."""
        return _mean(self.residual_alarm_rates)


class ResponseReducer:
    """Incrementally folds one scenario's response reports into a summary."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._n_runs = 0
        self._n_detected = 0
        self._n_responded = 0
        self._n_actions = 0
        self._n_recovered = 0
        self._n_trips = 0
        self._n_trips_avoided = 0
        self._times_to_recovery: List[float] = []
        self._residual_rates: List[float] = []

    def update(self, report: ResponseReport) -> None:
        """Fold one run's report in."""
        self._n_runs += 1
        self._n_detected += bool(report.detected)
        self._n_actions += report.n_actions
        if report.shutdown_time_hours is not None:
            self._n_trips += 1
        if report.responded:
            self._n_responded += 1
            if report.trip_avoided:
                self._n_trips_avoided += 1
            if report.recovered and report.time_to_recovery_hours is not None:
                self._n_recovered += 1
                self._times_to_recovery.append(report.time_to_recovery_hours)
            if report.residual_alarm_rate is not None:
                self._residual_rates.append(report.residual_alarm_rate)

    def summary(self) -> ResponseSummary:
        """The aggregate over every report folded in so far."""
        return ResponseSummary(
            scenario_name=self.scenario.name,
            title=self.scenario.title,
            n_runs=self._n_runs,
            n_detected=self._n_detected,
            n_responded=self._n_responded,
            n_actions=self._n_actions,
            n_recovered=self._n_recovered,
            n_trips=self._n_trips,
            n_trips_avoided=self._n_trips_avoided,
            times_to_recovery_hours=tuple(self._times_to_recovery),
            residual_alarm_rates=tuple(self._residual_rates),
        )


def build_response_table(
    summaries: Iterable[ResponseSummary],
) -> List[Dict[str, Any]]:
    """The per-scenario recovery table, one row per scenario."""
    rows = []
    for summary in summaries:
        rows.append(
            {
                "scenario": summary.scenario_name,
                "title": summary.title,
                "n_runs": summary.n_runs,
                "n_detected": summary.n_detected,
                "n_responded": summary.n_responded,
                "n_actions": summary.n_actions,
                "n_recovered": summary.n_recovered,
                "recovery_rate": summary.recovery_rate,
                "time_to_recovery_hours": summary.mean_time_to_recovery_hours,
                "n_trips": summary.n_trips,
                "trip_avoidance_rate": summary.trip_avoidance_rate,
                "residual_alarm_rate": summary.mean_residual_alarm_rate,
            }
        )
    return rows
