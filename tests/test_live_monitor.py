"""Tests for the live monitoring subsystem (:mod:`repro.live`).

The anchor is the equivalence contract: with early stopping disabled, the
live monitor's sample-by-sample scores and detections are bitwise-identical
to the batch :meth:`MSPCMonitor.monitor` path on all five registered paper
scenarios, and the on-alarm oMEDA snapshot equals the post-hoc
:meth:`DualLevelDiagnosis.summarize` over the same data window.
"""

import numpy as np
import pytest

from repro.common.config import EarlyStopPolicy
from repro.common.exceptions import ConfigurationError, DataShapeError, NotFittedError
from repro.experiments.registry import get_scenario, paper_scenario_names
from repro.experiments.runner import run_scenario
from repro.live.alarms import AlarmManager, AlarmState
from repro.live.dashboard import render_live_dashboard
from repro.live.monitor import LiveMonitor, LiveViewMonitor
from repro.live.observer import LiveRunObserver

ANOMALY_START = 4.0

FIVE_SCENARIO_FIXTURES = {
    "normal": "normal_run",
    "idv6": "idv6_run",
    "attack_xmv3": "attack_xmv3_run",
    "attack_xmeas1": "attack_xmeas1_run",
    "dos_xmv3": "dos_xmv3_run",
}


def feed(monitor, result):
    """Stream a finished run's samples through a live monitor."""
    controller = result.controller_data
    process = result.process_data
    for index in range(controller.n_observations):
        monitor.observe(
            controller.values[index],
            process.values[index],
            float(controller.timestamps[index]),
        )
    return monitor


def assert_omeda_equal(first, second):
    if first is None or second is None:
        assert first is None and second is None
        return
    assert first.variable_names == second.variable_names
    assert np.array_equal(first.contributions, second.contributions)
    assert first.observation_indices == second.observation_indices


def assert_diagnosis_equal(live, batch):
    """Field-by-field equality of two (summarized) diagnoses."""
    assert live.classification == batch.classification
    assert live.detection_time_hours == batch.detection_time_hours
    assert live.similarity == batch.similarity
    assert live.metadata == batch.metadata
    assert_omeda_equal(live.controller_omeda, batch.controller_omeda)
    assert_omeda_equal(live.process_omeda, batch.process_omeda)


# ----------------------------------------------------------------------
# Equivalence with the batch path — the acceptance anchor
# ----------------------------------------------------------------------
class TestBatchEquivalence:
    @pytest.mark.parametrize("scenario_name", list(FIVE_SCENARIO_FIXTURES))
    def test_scores_bitwise_identical_to_batch_monitor(
        self, request, small_evaluation, scenario_name
    ):
        """Live per-sample D/Q values equal MSPCMonitor.monitor bitwise, on
        every registered paper scenario and both data views."""
        result = request.getfixturevalue(FIVE_SCENARIO_FIXTURES[scenario_name])
        analyzer = small_evaluation.analyzer
        anomalous = get_scenario(scenario_name).is_anomalous
        monitor = LiveMonitor(
            analyzer,
            anomaly_start_hour=ANOMALY_START if anomalous else None,
        )
        feed(monitor, result)

        for view_name, batch_monitor, data in (
            ("controller", analyzer.controller_monitor, result.controller_data),
            ("process", analyzer.process_monitor, result.process_data),
        ):
            batch = batch_monitor.monitor(data)
            live = monitor.views[view_name].statistics
            assert np.array_equal(batch.d_chart.values, live["D"]), view_name
            assert np.array_equal(batch.q_chart.values, live["Q"]), view_name
            assert np.array_equal(batch.d_chart.timestamps, live["time"])

    @pytest.mark.parametrize("scenario_name", list(FIVE_SCENARIO_FIXTURES))
    def test_detections_identical_to_batch_analyze(
        self, request, small_evaluation, scenario_name
    ):
        result = request.getfixturevalue(FIVE_SCENARIO_FIXTURES[scenario_name])
        analyzer = small_evaluation.analyzer
        anomalous = get_scenario(scenario_name).is_anomalous
        start = ANOMALY_START if anomalous else None
        monitor = LiveMonitor(analyzer, anomaly_start_hour=start)
        feed(monitor, result)

        batch = analyzer.analyze(
            result.controller_data, result.process_data, anomaly_start_hour=start
        )
        assert monitor.detection_time_hours == batch.detection_time_hours
        assert monitor.detected == batch.detected
        if start is not None:
            assert (
                monitor.false_alarm_time_hours
                == batch.metadata.get("false_alarm_time_hours")
            )

    @pytest.mark.parametrize("scenario_name", list(FIVE_SCENARIO_FIXTURES))
    def test_final_diagnosis_identical_to_batch_analyze(
        self, request, small_evaluation, scenario_name
    ):
        result = request.getfixturevalue(FIVE_SCENARIO_FIXTURES[scenario_name])
        analyzer = small_evaluation.analyzer
        anomalous = get_scenario(scenario_name).is_anomalous
        start = ANOMALY_START if anomalous else None
        monitor = LiveMonitor(analyzer, anomaly_start_hour=start)
        feed(monitor, result)

        batch = analyzer.analyze(
            result.controller_data, result.process_data, anomaly_start_hour=start
        )
        assert_diagnosis_equal(monitor.diagnose(), batch)

    def test_paper_scenario_names_cover_the_fixture_map(self):
        assert set(paper_scenario_names()) | {"normal"} == set(
            FIVE_SCENARIO_FIXTURES
        )


# ----------------------------------------------------------------------
# On-alarm oMEDA snapshot vs. post-hoc summarize (satellite)
# ----------------------------------------------------------------------
class TestOnAlarmSnapshot:
    def test_snapshot_equals_posthoc_summary_on_same_window(
        self, small_evaluation, attack_xmv3_run
    ):
        """Same window -> same DiagnosisSummary: the snapshot taken the
        moment the alarm confirms equals DualLevelAnalyzer.analyze on the
        data truncated to that moment, summarized."""
        analyzer = small_evaluation.analyzer
        monitor = LiveMonitor(analyzer, anomaly_start_hour=ANOMALY_START)
        feed(monitor, attack_xmv3_run)
        assert monitor.snapshot is not None

        window = monitor.detection_index + 1
        batch = analyzer.analyze(
            attack_xmv3_run.controller_data.select_rows(np.arange(window)),
            attack_xmv3_run.process_data.select_rows(np.arange(window)),
            anomaly_start_hour=ANOMALY_START,
        )
        assert_diagnosis_equal(monitor.snapshot.summarize(), batch.summarize())

    def test_snapshot_timing_metrics(self, small_evaluation, attack_xmv3_run):
        analyzer = small_evaluation.analyzer
        monitor = LiveMonitor(analyzer, anomaly_start_hour=ANOMALY_START)
        feed(monitor, attack_xmv3_run)
        report = monitor.report()
        assert report.detected
        assert report.snapshot is not None
        assert report.snapshot_time_hours == monitor.detection_time_hours
        assert report.detection_latency_hours == pytest.approx(
            monitor.detection_time_hours - ANOMALY_START
        )
        assert report.time_to_diagnosis_hours == pytest.approx(
            report.snapshot_time_hours - ANOMALY_START
        )

    def test_no_snapshot_without_detection(self, small_evaluation, normal_run):
        monitor = LiveMonitor(small_evaluation.analyzer)
        feed(monitor, normal_run)
        if not monitor.detected:
            assert monitor.snapshot is None
            assert monitor.report().snapshot is None


class TestDetectionState:
    """The earliest onset-restricted detection is kept as state, set when
    a rule fires; ``detected`` reads it on every sample."""

    @pytest.mark.parametrize("loud_view", ["controller", "process"])
    def test_detected_flips_exactly_at_the_confirming_sample(
        self, small_evaluation, loud_view
    ):
        analyzer = small_evaluation.analyzer
        monitor = LiveMonitor(analyzer, anomaly_start_hour=1.0)
        consecutive = monitor.controller_view.consecutive
        loud = getattr(monitor, f"{loud_view}_view")
        # The loud view violates D from sample 5 on: a false alarm confirms
        # before the onset (t = 1.0 h, sample 10), the counted detection at
        # the onset's consecutive-th sample.
        confirming = 10 + consecutive - 1
        controller = np.zeros(len(analyzer.controller_monitor.variable_names))
        process = np.zeros(len(analyzer.process_monitor.variable_names))
        for index in range(confirming + 4):
            violating = (2.0 * loud.d_limit, 0.0) if index >= 5 else (0.0, 0.0)
            stats = {"controller": (0.0, 0.0), "process": (0.0, 0.0)}
            stats[loud_view] = violating
            monitor.ingest_scored(
                controller, process, 0.1 * index, stats["controller"], stats["process"]
            )
            assert monitor.detected == (index >= confirming), index
        assert monitor.detection_index == loud.detection_index == confirming
        assert monitor.detection_time_hours == 0.1 * confirming
        assert monitor.false_alarm_time_hours == 0.1 * (5 + consecutive - 1)
        quiet = monitor.views["process" if loud_view == "controller" else "controller"]
        assert quiet.detection_index is None
        assert monitor.snapshot is not None

    def test_the_earlier_view_wins_and_reset_forgets(self, small_evaluation):
        analyzer = small_evaluation.analyzer
        monitor = LiveMonitor(analyzer)
        consecutive = monitor.controller_view.consecutive
        controller = np.zeros(len(analyzer.controller_monitor.variable_names))
        process = np.zeros(len(analyzer.process_monitor.variable_names))
        for index in range(2 * consecutive + 2):
            # Q of the process view from sample 0, D of the controller
            # view from sample 2.
            controller_stats = (1e12, 0.0) if index >= 2 else (0.0, 0.0)
            monitor.ingest_scored(
                controller, process, float(index), controller_stats, (0.0, 1e12)
            )
        assert monitor.process_view.detection_index == consecutive - 1
        assert monitor.controller_view.detection_index == consecutive + 1
        assert monitor.detection_index == consecutive - 1
        assert monitor.detection_time_hours == float(consecutive - 1)
        monitor.reset()
        assert not monitor.detected and monitor.detection_index is None


# ----------------------------------------------------------------------
# Alarm manager state machine
# ----------------------------------------------------------------------
class TestAlarmManager:
    def _feed(self, manager, d_values, limit=10.0):
        events = []
        for index, value in enumerate(d_values):
            event = manager.update(index, float(index), value, limit, 0.0, limit)
            if event is not None:
                events.append(event)
        return events

    def test_raises_at_the_consecutive_th_violation(self):
        manager = AlarmManager(3)
        events = self._feed(manager, [1, 20, 20, 20, 20])
        assert len(events) == 1
        assert events[0].raised and events[0].index == 3
        assert events[0].chart == "D"
        assert manager.active

    def test_clears_when_both_statistics_recover(self):
        manager = AlarmManager(2)
        events = self._feed(manager, [20, 20, 20, 1, 1])
        kinds = [event.kind for event in events]
        assert kinds == ["raised", "cleared"]
        assert events[1].index == 3
        assert manager.state is AlarmState.NORMAL

    def test_re_raises_after_a_clear(self):
        manager = AlarmManager(2)
        events = self._feed(manager, [20, 20, 1, 20, 20])
        kinds = [event.kind for event in events]
        assert kinds == ["raised", "cleared", "raised"]
        assert manager.raise_events == (events[0], events[2])
        assert manager.first_raise is events[0]

    def test_both_charts_firing_together_reports_both(self):
        manager = AlarmManager(1)
        event = manager.update(0, 0.0, 20.0, 10.0, 20.0, 10.0)
        assert event.chart == "D+Q"

    def test_interrupted_streak_does_not_raise(self):
        manager = AlarmManager(3)
        events = self._feed(manager, [20, 20, 1, 20, 20, 1])
        assert events == []

    def test_rejects_non_positive_consecutive(self):
        with pytest.raises(ConfigurationError):
            AlarmManager(0)

    def test_active_alarm_does_not_re_raise_on_continued_violations(self):
        """While standing, further violations are absorbed silently."""
        manager = AlarmManager(2)
        events = self._feed(manager, [20, 20, 20, 20, 20])
        assert [event.kind for event in events] == ["raised"]
        assert manager.raise_events == (events[0],)
        assert manager.active

    def test_re_raise_needs_a_fresh_full_streak(self):
        """Hysteresis: after a clear, a re-raise needs `consecutive` fresh
        violations — a shorter, interrupted run must stay silent."""
        manager = AlarmManager(3)
        events = self._feed(
            manager, [20, 20, 20, 1, 20, 20, 1, 20, 20, 20]
        )
        kinds = [event.kind for event in events]
        assert kinds == ["raised", "cleared", "raised"]
        assert events[0].index == 2
        assert events[1].index == 3
        # The two violations at indices 4-5 did NOT re-raise; only the
        # fresh three-run at 7-9 does.
        assert events[2].index == 9

    def test_no_cleared_event_while_a_streak_is_pending(self):
        """A recovered sample during a pending (un-raised) streak resets
        it without emitting a `cleared` event."""
        manager = AlarmManager(3)
        events = self._feed(manager, [20, 20, 1, 20, 1, 20, 20])
        assert events == []
        assert manager.state is AlarmState.NORMAL
        assert manager.events == ()

    def test_partial_recovery_keeps_the_alarm_standing(self):
        """Clearing needs BOTH statistics back at/under their limits in
        the same sample; one chart recovering alone is not enough."""
        manager = AlarmManager(1)
        raised = manager.update(0, 0.0, 20.0, 10.0, 20.0, 10.0)
        assert raised.kind == "raised" and raised.chart == "D+Q"
        still = manager.update(1, 1.0, 1.0, 10.0, 20.0, 10.0)
        assert still is None and manager.active
        cleared = manager.update(2, 2.0, 1.0, 10.0, 1.0, 10.0)
        assert cleared.kind == "cleared"
        assert cleared.chart == "D+Q"
        assert manager.state is AlarmState.NORMAL


# ----------------------------------------------------------------------
# Early stopping
# ----------------------------------------------------------------------
class TestEarlyStop:
    def test_early_stop_truncates_to_detection_plus_grace(
        self, small_evaluation, attack_xmv3_run
    ):
        analyzer = small_evaluation.analyzer
        config = attack_xmv3_run.config
        monitor = LiveMonitor(
            analyzer,
            anomaly_start_hour=ANOMALY_START,
            policy=EarlyStopPolicy(grace_samples=10),
        )
        observer = LiveRunObserver(monitor)
        truncated = run_scenario(
            get_scenario("attack_xmv3"),
            config,
            anomaly_start_hour=ANOMALY_START,
            observers=[observer],
        )
        assert truncated.stopped_early
        assert truncated.metadata["early_stop_reason"] == observer.stop_reason
        expected = monitor.detection_index + 10 + 1
        assert truncated.controller_data.n_observations == expected
        assert truncated.duration_hours == truncated.early_stop_time_hours
        assert not truncated.completed

    def test_truncated_prefix_is_bitwise_identical_to_full_run(
        self, small_evaluation, attack_xmv3_run
    ):
        analyzer = small_evaluation.analyzer
        monitor = LiveMonitor(
            analyzer,
            anomaly_start_hour=ANOMALY_START,
            policy=EarlyStopPolicy(grace_samples=5),
        )
        truncated = run_scenario(
            get_scenario("attack_xmv3"),
            attack_xmv3_run.config,
            anomaly_start_hour=ANOMALY_START,
            observers=[LiveRunObserver(monitor)],
        )
        length = truncated.controller_data.n_observations
        assert length < attack_xmv3_run.controller_data.n_observations
        assert np.array_equal(
            truncated.controller_data.values,
            attack_xmv3_run.controller_data.values[:length],
        )
        assert np.array_equal(
            truncated.process_data.values,
            attack_xmv3_run.process_data.values[:length],
        )

    def test_truncated_run_keeps_the_detection_verdict(
        self, small_evaluation, attack_xmv3_run
    ):
        analyzer = small_evaluation.analyzer
        monitor = LiveMonitor(
            analyzer,
            anomaly_start_hour=ANOMALY_START,
            policy=EarlyStopPolicy(grace_samples=10),
        )
        truncated = run_scenario(
            get_scenario("attack_xmv3"),
            attack_xmv3_run.config,
            anomaly_start_hour=ANOMALY_START,
            observers=[LiveRunObserver(monitor)],
        )
        full = analyzer.analyze(
            attack_xmv3_run.controller_data,
            attack_xmv3_run.process_data,
            anomaly_start_hour=ANOMALY_START,
        )
        partial = analyzer.analyze(
            truncated.controller_data,
            truncated.process_data,
            anomaly_start_hour=ANOMALY_START,
        )
        assert partial.detection_time_hours == full.detection_time_hours

    def test_min_samples_defers_the_stop(self, small_evaluation, attack_xmv3_run):
        analyzer = small_evaluation.analyzer
        monitor = LiveMonitor(
            analyzer,
            anomaly_start_hour=ANOMALY_START,
            policy=EarlyStopPolicy(grace_samples=0, min_samples=150),
        )
        truncated = run_scenario(
            get_scenario("attack_xmv3"),
            attack_xmv3_run.config,
            anomaly_start_hour=ANOMALY_START,
            observers=[LiveRunObserver(monitor)],
        )
        assert truncated.controller_data.n_observations >= 150

    def test_without_policy_the_run_is_never_stopped(
        self, small_evaluation, attack_xmv3_run
    ):
        monitor = LiveMonitor(
            small_evaluation.analyzer, anomaly_start_hour=ANOMALY_START
        )
        assert not monitor.should_stop()
        feed(monitor, attack_xmv3_run)
        assert monitor.detected
        assert not monitor.should_stop()

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            EarlyStopPolicy(grace_samples=-1)
        with pytest.raises(ConfigurationError):
            EarlyStopPolicy(min_samples=-1)
        policy = EarlyStopPolicy(grace_samples=7, min_samples=3)
        assert EarlyStopPolicy.from_mapping(policy.to_mapping()) == policy


# ----------------------------------------------------------------------
# Plumbing and guard rails
# ----------------------------------------------------------------------
class TestPlumbing:
    def test_unfitted_analyzer_is_rejected(self):
        from repro.anomaly.diagnosis import DualLevelAnalyzer

        with pytest.raises(NotFittedError):
            LiveMonitor(DualLevelAnalyzer())

    def test_unfitted_view_monitor_is_rejected(self):
        from repro.mspc.model import MSPCMonitor

        with pytest.raises(NotFittedError):
            LiveViewMonitor(MSPCMonitor())

    def test_observer_rejects_mismatched_variables(self, small_evaluation):
        monitor = LiveMonitor(small_evaluation.analyzer)
        observer = LiveRunObserver(monitor)
        with pytest.raises(DataShapeError):
            observer.on_run_start(["bogus"], None, {})

    def test_reset_round_trip(self, small_evaluation, attack_xmv3_run):
        monitor = LiveMonitor(
            small_evaluation.analyzer, anomaly_start_hour=ANOMALY_START
        )
        feed(monitor, attack_xmv3_run)
        first_detection = monitor.detection_time_hours
        first_statistics = monitor.controller_view.statistics
        monitor.reset()
        assert monitor.n_samples == 0
        assert not monitor.detected
        feed(monitor, attack_xmv3_run)
        assert monitor.detection_time_hours == first_detection
        assert np.array_equal(
            monitor.controller_view.statistics["D"], first_statistics["D"]
        )

    def test_report_alarm_events_cover_both_views(
        self, small_evaluation, attack_xmv3_run
    ):
        monitor = LiveMonitor(
            small_evaluation.analyzer, anomaly_start_hour=ANOMALY_START
        )
        feed(monitor, attack_xmv3_run)
        report = monitor.report()
        assert set(report.alarm_events) == {"controller", "process"}
        assert any(report.alarm_events.values())

    def test_dashboard_renders_all_sections(self, small_evaluation, attack_xmv3_run):
        monitor = LiveMonitor(
            small_evaluation.analyzer, anomaly_start_hour=ANOMALY_START
        )
        feed(monitor, attack_xmv3_run)
        text = render_live_dashboard(monitor, width=60, height=6)
        assert "LIVE MONITOR" in text
        assert "D statistic" in text and "Q statistic" in text
        assert "alarm log:" in text
        assert "on-alarm diagnosis" in text
