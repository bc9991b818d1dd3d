"""The live monitor: sample-by-sample MSPC scoring during a run.

:class:`LiveMonitor` is the online counterpart of
:class:`~repro.anomaly.diagnosis.DualLevelAnalyzer`: it consumes one
(controller-view, process-view) observation pair per simulated sample — fed
by the :class:`~repro.live.observer.LiveRunObserver` step tap while the run
is still simulating — and maintains, per view, the D/Q statistics, the
alarm state machine and the detection bookkeeping of the paper's
consecutive-violation rule.

Equivalence with the batch path is the design anchor: with early stopping
disabled, the accumulated statistic values are **bitwise-identical** to
:meth:`repro.mspc.model.MSPCMonitor.monitor` on the completed run (the PCA
projection is shape-stable, see :meth:`repro.mspc.pca.PCAModel.transform`),
detections fire at exactly the batch detection indices, and the on-alarm
oMEDA snapshot equals
:meth:`~repro.anomaly.diagnosis.DualLevelAnalyzer.analyze` on the same data
window — because diagnosis and classification literally run through
:meth:`~repro.anomaly.diagnosis.DualLevelAnalyzer.assemble`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.anomaly.diagnosis import DiagnosisSummary, DualLevelAnalyzer, DualLevelDiagnosis
from repro.common.codec import Mapped
from repro.common.config import EarlyStopPolicy
from repro.common.exceptions import NotFittedError
from repro.datasets.dataset import ProcessDataset
from repro.live.alarms import AlarmEvent, AlarmManager, ViolationStreak
from repro.mspc.charts import ControlChart
from repro.mspc.model import MonitoringResult, MSPCMonitor

__all__ = ["LiveViewMonitor", "LiveMonitor", "LiveRunReport"]


class _DetectionRule:
    """First firing of the consecutive-violation rule, optionally offset.

    Mirrors :meth:`repro.mspc.charts.ControlChart.detection_index`: only
    samples at or after ``start_time`` count (all of them when it is
    ``None``), and the first qualifying violation run's
    ``consecutive``-th sample is recorded.  The counting itself lives in
    :class:`~repro.live.alarms.ViolationStreak`, shared with the alarm
    state machine.
    """

    def __init__(self, consecutive: int, start_time: Optional[float] = None):
        self.start_time = None if start_time is None else float(start_time)
        self._streak = ViolationStreak(consecutive)
        self.fire_index: Optional[int] = None
        self.fire_time: Optional[float] = None

    def update(self, index: int, time_hours: float, violating: bool) -> bool:
        """Fold one sample in; return whether the rule fires at it."""
        if self.start_time is not None and time_hours < self.start_time:
            return False
        if self._streak.update(violating) and self.fire_index is None:
            self.fire_index = int(index)
            self.fire_time = float(time_hours)
            return True
        return False


class LiveViewMonitor:
    """Incremental D/Q scoring + alarms for one data view.

    Besides the alarm transitions it keeps the onset-restricted detection
    bookkeeping of the batch path (false alarms vs. counted detections).
    Both implementations of the consecutive-violation rule — the batch
    charts' and this one — are pinned against each other by the
    equivalence tests.

    Parameters
    ----------
    monitor:
        The view's fitted :class:`MSPCMonitor`.
    view:
        ``"controller"`` or ``"process"`` (reporting only).
    anomaly_start_hour:
        Known anomaly onset; detections before it are booked as false
        alarms, exactly like the batch
        :meth:`~repro.anomaly.diagnosis.DualLevelAnalyzer.analyze`.
    """

    def __init__(
        self,
        monitor: MSPCMonitor,
        view: str = "controller",
        anomaly_start_hour: Optional[float] = None,
    ):
        if not monitor.is_fitted:
            raise NotFittedError("the MSPCMonitor must be fitted before live use")
        self.monitor = monitor
        self.view = str(view)
        self.anomaly_start_hour = (
            None if anomaly_start_hour is None else float(anomaly_start_hour)
        )
        config = monitor.config
        self.d_limit = monitor.t2_limits.at(config.detection_confidence)
        self.q_limit = monitor.spe_limits.at(config.detection_confidence)
        self.consecutive = config.consecutive_violations
        self.reset()

    def reset(self) -> None:
        """Forget all streamed samples, detections and alarms."""
        self._rows: List[np.ndarray] = []
        self._times: List[float] = []
        self._t2: List[float] = []
        self._spe: List[float] = []
        self.alarms = AlarmManager(self.consecutive)
        # Unrestricted rules reproduce detection_time_after(None) (false
        # alarms); the onset-restricted ones reproduce
        # detection_time_after(anomaly_start_hour) — the detection the
        # run-length metrics count.  Without a known onset the two coincide.
        self._any_d = _DetectionRule(self.consecutive)
        self._any_q = _DetectionRule(self.consecutive)
        if self.anomaly_start_hour is None:
            self._after_d, self._after_q = self._any_d, self._any_q
        else:
            self._after_d = _DetectionRule(self.consecutive, self.anomaly_start_hour)
            self._after_q = _DetectionRule(self.consecutive, self.anomaly_start_hour)
        # The earliest onset-restricted fire, ``(index, time)``: set by the
        # first of the two rules to fire, since rules fire in sample order.
        self._detection: Tuple[Optional[int], Optional[float]] = (None, None)

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Number of samples streamed so far."""
        return len(self._times)

    @property
    def statistics(self) -> Dict[str, np.ndarray]:
        """Accumulated D/Q values and timestamps."""
        return {
            "D": np.array(self._t2),
            "Q": np.array(self._spe),
            "time": np.array(self._times),
        }

    @property
    def in_control(self) -> bool:
        """Whether the latest sample sits at or under both detection limits.

        O(1) — read every sample by the response subsystem's recovery
        tracker, so it must not rebuild the statistics arrays.  ``True``
        before any sample has been streamed.  The comparison uses the
        *current* ``d_limit`` / ``q_limit``, so escalated limits are
        honoured.
        """
        if not self._times:
            return True
        return self._t2[-1] <= self.d_limit and self._spe[-1] <= self.q_limit

    def _first_fire(self, rules) -> Tuple[Optional[int], Optional[float]]:
        fired = [
            (rule.fire_index, rule.fire_time)
            for rule in rules
            if rule.fire_index is not None
        ]
        if not fired:
            return None, None
        return min(fired)

    @property
    def detection_index(self) -> Optional[int]:
        """Sample index of the first detection at/after the anomaly onset."""
        return self._detection[0]

    @property
    def detection_time_hours(self) -> Optional[float]:
        """Time of the first detection at/after the anomaly onset."""
        return self._detection[1]

    @property
    def false_alarm_time_hours(self) -> Optional[float]:
        """First detection strictly before the anomaly onset (if any)."""
        if self.anomaly_start_hour is None:
            return None
        _, time = self._first_fire((self._any_d, self._any_q))
        if time is not None and time < self.anomaly_start_hour:
            return time
        return None

    # ------------------------------------------------------------------
    def observe(self, values, time_hours: float) -> Optional[AlarmEvent]:
        """Score one observation; return the alarm transition, if any."""
        t2_values, spe_values = self.monitor.statistics(
            np.asarray(values, dtype=float)
        )
        return self.ingest(
            values, time_hours, float(t2_values[0]), float(spe_values[0])
        )

    def ingest(
        self, values, time_hours: float, t2: float, spe: float
    ) -> Optional[AlarmEvent]:
        """Fold one already-scored observation into the monitor's state.

        The bookkeeping half of :meth:`observe`, split out so callers that
        score observations in bulk — the streaming gateway packs due samples
        from many concurrent streams into one ``(B, M)`` matrix and calls
        :meth:`MSPCMonitor.statistics` once — drive exactly the same state
        machines with the precomputed per-row values.  Because the PCA
        projection is shape-stable (see :meth:`repro.mspc.pca.PCAModel.
        transform`), a batched row's ``t2``/``spe`` equals the values
        :meth:`observe` would have computed, so the two entry points are
        interchangeable bit for bit.
        """
        t2 = float(t2)
        spe = float(spe)
        index = len(self._times)
        time_value = float(time_hours)

        self._rows.append(np.asarray(values, dtype=float).ravel())
        self._times.append(time_value)
        self._t2.append(t2)
        self._spe.append(spe)

        d_violating = t2 > self.d_limit
        q_violating = spe > self.q_limit
        # ``|`` rather than ``or``: every rule folds in every sample.
        fired = self._any_d.update(index, time_value, d_violating) | self._any_q.update(
            index, time_value, q_violating
        )
        if self._after_d is not self._any_d:
            fired = self._after_d.update(
                index, time_value, d_violating
            ) | self._after_q.update(index, time_value, q_violating)
        if fired and self._detection[0] is None:
            self._detection = (index, time_value)
        return self.alarms.update(
            index, time_value, t2, self.d_limit, spe, self.q_limit
        )

    # ------------------------------------------------------------------
    def dataset(self) -> ProcessDataset:
        """The streamed observations as a dataset (for oMEDA diagnosis)."""
        return ProcessDataset(
            np.vstack(self._rows),
            list(self.monitor.variable_names),
            np.array(self._times),
            {"view": self.view},
        )

    def monitoring_result(self) -> MonitoringResult:
        """The accumulated statistics as a batch :class:`MonitoringResult`.

        No re-scoring happens: the charts are built from the values already
        accumulated sample by sample, so everything downstream (detection
        indices, violation groups, oMEDA) sees exactly the live statistics.
        """
        timestamps = np.array(self._times)
        config = self.monitor.config
        return MonitoringResult(
            d_chart=ControlChart(
                "D", np.array(self._t2), self.monitor.t2_limits, timestamps
            ),
            q_chart=ControlChart(
                "Q", np.array(self._spe), self.monitor.spe_limits, timestamps
            ),
            detection_confidence=config.detection_confidence,
            consecutive_violations=config.consecutive_violations,
        )


@dataclass
class LiveRunReport(Mapped, label="live_report"):
    """What one live-monitored run produced, beyond the simulation data.

    Attributes
    ----------
    n_samples:
        Samples streamed (equals the run length in samples, truncated runs
        included).
    detection_index / detection_time_hours:
        First confirmed detection at/after the anomaly onset, across both
        views (``None`` when nothing was detected).
    detection_latency_hours:
        ``detection_time - anomaly_start`` (the run length the ARL tables
        aggregate); ``None`` without a known onset or a detection.
    false_alarm_time_hours:
        First detection strictly before the onset, across both views.
    snapshot / snapshot_time_hours / time_to_diagnosis_hours:
        The on-alarm oMEDA diagnosis summary taken the moment the detection
        was confirmed, its timestamp, and its distance from the onset.
    diagnosis:
        The final diagnosis summary over every streamed sample (equals the
        post-hoc verdict of the truncated window).
    alarm_events:
        Per-view alarm transitions (``"controller"`` / ``"process"``).
    stopped_early / stop_index / stop_time_hours:
        Whether, where and when the early-stop policy truncated the run.

    The mapping form writes every key (``None`` where a field is unset), so
    two reports that compare equal serialize to the same bytes under
    ``json.dumps(..., sort_keys=True)``; floats survive the wire
    bit-for-bit via their shortest round-trip repr.
    """

    n_samples: int
    detection_index: Optional[int]
    detection_time_hours: Optional[float]
    detection_latency_hours: Optional[float]
    false_alarm_time_hours: Optional[float]
    snapshot: Optional[DiagnosisSummary]
    snapshot_time_hours: Optional[float]
    time_to_diagnosis_hours: Optional[float]
    diagnosis: Optional[DiagnosisSummary]
    alarm_events: Dict[str, Tuple[AlarmEvent, ...]] = field(default_factory=dict)
    stopped_early: bool = False
    stop_index: Optional[int] = None
    stop_time_hours: Optional[float] = None

    @property
    def detected(self) -> bool:
        """Whether a detection was confirmed at/after the anomaly onset."""
        return self.detection_index is not None


class LiveMonitor:
    """Dual-view online monitoring with alarms, diagnosis and early stop.

    Parameters
    ----------
    analyzer:
        A fitted :class:`DualLevelAnalyzer` (both views calibrated) — the
        same object the batch evaluation uses, so live and post-hoc verdicts
        share models, limits and thresholds.
    anomaly_start_hour:
        Known anomaly onset of the monitored run (``None`` for normal runs
        or genuinely blind deployment).
    policy:
        Optional :class:`~repro.common.config.EarlyStopPolicy`;
        :meth:`should_stop` never returns ``True`` without one.
    diagnosis_group_size:
        Observations handed to oMEDA (the paper uses 3).
    """

    def __init__(
        self,
        analyzer: DualLevelAnalyzer,
        anomaly_start_hour: Optional[float] = None,
        policy: Optional[EarlyStopPolicy] = None,
        diagnosis_group_size: int = 3,
    ):
        if not analyzer.is_fitted:
            raise NotFittedError("DualLevelAnalyzer must be fitted before live use")
        self.analyzer = analyzer
        self.anomaly_start_hour = (
            None if anomaly_start_hour is None else float(anomaly_start_hour)
        )
        self.policy = policy
        self.diagnosis_group_size = int(diagnosis_group_size)
        self.reset()

    def reset(self) -> None:
        """Forget all streamed samples, alarms and snapshots."""
        self.controller_view = LiveViewMonitor(
            self.analyzer.controller_monitor, "controller", self.anomaly_start_hour
        )
        self.process_view = LiveViewMonitor(
            self.analyzer.process_monitor, "process", self.anomaly_start_hour
        )
        self._snapshot: Optional[DualLevelDiagnosis] = None
        self._snapshot_time: Optional[float] = None
        self._stop_index: Optional[int] = None
        self._stop_time: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def views(self) -> Dict[str, LiveViewMonitor]:
        """Both view monitors, keyed like the batch data views."""
        return {"controller": self.controller_view, "process": self.process_view}

    @property
    def n_samples(self) -> int:
        """Samples streamed so far."""
        return self.controller_view.n_samples

    def _earliest(self) -> Tuple[Optional[int], Optional[float]]:
        """The earlier of the two views' detections, ``(index, time)``."""
        controller = self.controller_view._detection
        process = self.process_view._detection
        if controller[0] is None:
            return process
        if process[0] is None:
            return controller
        return min(controller, process)

    @property
    def detection_index(self) -> Optional[int]:
        """Sample index of the earliest confirmed detection across views."""
        return self._earliest()[0]

    @property
    def detection_time_hours(self) -> Optional[float]:
        """Time of the earliest confirmed detection across views.

        Matches the batch
        :attr:`~repro.anomaly.diagnosis.DualLevelDiagnosis.detection_time_hours`
        on the same window: the minimum of the per-view detections at/after
        the anomaly onset.
        """
        return self._earliest()[1]

    @property
    def detected(self) -> bool:
        """Whether a detection has been confirmed (read on every sample by
        the response runner, so it only looks at the views' state)."""
        return (
            self.controller_view._detection[0] is not None
            or self.process_view._detection[0] is not None
        )

    @property
    def detection_latency_hours(self) -> Optional[float]:
        """Time from anomaly onset to the confirmed detection."""
        time = self.detection_time_hours
        if time is None or self.anomaly_start_hour is None:
            return None
        return time - self.anomaly_start_hour

    @property
    def false_alarm_time_hours(self) -> Optional[float]:
        """Earliest pre-onset detection across views (``None`` when clean)."""
        times = [
            view.false_alarm_time_hours
            for view in (self.controller_view, self.process_view)
        ]
        times = [time for time in times if time is not None]
        return min(times) if times else None

    @property
    def snapshot(self) -> Optional[DualLevelDiagnosis]:
        """The on-alarm diagnosis taken when the detection was confirmed."""
        return self._snapshot

    @property
    def stopped_early(self) -> bool:
        """Whether :meth:`mark_stopped` recorded an early termination."""
        return self._stop_index is not None

    # ------------------------------------------------------------------
    def observe(
        self, controller_values, process_values, time_hours: float
    ) -> List[AlarmEvent]:
        """Feed one sample of both views; return the alarm transitions."""
        events = []
        for view, values in (
            (self.controller_view, controller_values),
            (self.process_view, process_values),
        ):
            event = view.observe(values, time_hours)
            if event is not None:
                events.append(event)
        self._after_sample(time_hours)
        return events

    def ingest_scored(
        self,
        controller_values,
        process_values,
        time_hours: float,
        controller_stats: Tuple[float, float],
        process_stats: Tuple[float, float],
    ) -> List[AlarmEvent]:
        """Feed one already-scored sample of both views.

        ``controller_stats`` / ``process_stats`` are the ``(t2, spe)`` pairs
        for the sample, typically cut out of a cross-stream batched
        :meth:`MSPCMonitor.statistics` call.  Alarm state machines, detection
        bookkeeping and the on-alarm snapshot run through exactly the same
        code as :meth:`observe`, so a gateway stream fed through here is
        bitwise-identical to an in-process monitor fed through
        :meth:`observe`.
        """
        events = []
        for view, values, stats in (
            (self.controller_view, controller_values, controller_stats),
            (self.process_view, process_values, process_stats),
        ):
            event = view.ingest(values, time_hours, stats[0], stats[1])
            if event is not None:
                events.append(event)
        self._after_sample(time_hours)
        return events

    def _after_sample(self, time_hours: float) -> None:
        if self._snapshot is None and self.detected:
            # The on-alarm snapshot: diagnose the window available the
            # moment the detection is confirmed, before the run moves on.
            self._snapshot = self.diagnose()
            self._snapshot_time = float(time_hours)

    def diagnose(self) -> DualLevelDiagnosis:
        """Dual-level diagnosis of everything streamed so far.

        Runs :meth:`DualLevelAnalyzer.assemble` on the accumulated charts
        and observation buffers, so the result is exactly what
        :meth:`DualLevelAnalyzer.analyze` would produce on the same window.
        """
        return self.analyzer.assemble(
            self.controller_view.dataset(),
            self.process_view.dataset(),
            self.controller_view.monitoring_result(),
            self.process_view.monitoring_result(),
            diagnosis_group_size=self.diagnosis_group_size,
            anomaly_start_hour=self.anomaly_start_hour,
        )

    # ------------------------------------------------------------------
    def should_stop(self) -> bool:
        """Whether the early-stop policy allows terminating the run now."""
        if self.policy is None:
            return False
        detection = self.detection_index
        if detection is None:
            return False
        last_index = self.n_samples - 1
        if last_index < detection + self.policy.grace_samples:
            return False
        return self.n_samples >= self.policy.min_samples

    def mark_stopped(self, index: int, time_hours: float) -> None:
        """Record that the run was terminated after sample ``index``."""
        self._stop_index = int(index)
        self._stop_time = float(time_hours)

    # ------------------------------------------------------------------
    def report(self) -> LiveRunReport:
        """Summarize the run: detections, alarms, snapshots, metrics."""
        snapshot_summary = (
            self._snapshot.summarize() if self._snapshot is not None else None
        )
        time_to_diagnosis = None
        if self._snapshot_time is not None and self.anomaly_start_hour is not None:
            time_to_diagnosis = self._snapshot_time - self.anomaly_start_hour
        diagnosis = self.diagnose().summarize() if self.n_samples else None
        return LiveRunReport(
            n_samples=self.n_samples,
            detection_index=self.detection_index,
            detection_time_hours=self.detection_time_hours,
            detection_latency_hours=self.detection_latency_hours,
            false_alarm_time_hours=self.false_alarm_time_hours,
            snapshot=snapshot_summary,
            snapshot_time_hours=self._snapshot_time,
            time_to_diagnosis_hours=time_to_diagnosis,
            diagnosis=diagnosis,
            alarm_events={
                name: view.alarms.events for name, view in self.views.items()
            },
            stopped_early=self.stopped_early,
            stop_index=self._stop_index,
            stop_time_hours=self._stop_time,
        )
