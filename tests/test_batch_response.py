"""Response campaigns on the batch kernel, pinned to the serial reference.

:func:`~repro.response.campaign.evaluate_all_response` steps every run of a
plan in lockstep batches, and the response actions reach each row through
a :class:`~repro.batch.simulator.BatchRow` handle.  Every report it returns
must equal, byte for byte, the report of the same run on the serial kernel
(:func:`~repro.experiments.runner.run_scenario` with ``runner.bind`` as
its observer factory).  The campaigns below fire every action kind:

* ``fallback_gains``, more than once on one row (the gains compound);
* ``quarantine_channel`` on the sensor and on the actuator channel;
* ``escalate_sensitivity``;
* ``shed_sensor`` on rows that carry no attack.

Several fire after an earlier row of the same batch has tripped and been
compacted out.  The unit pins hold the seams themselves: a fallen-back
controller row against a freshly built serial controller (also while the
pressure and level overrides act), a channel changed through
:meth:`~repro.network.channel.BatchChannel.channel`, and the handle's
guards.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.batch.simulator import BatchSimulator
from repro.common.config import ParallelConfig
from repro.common.exceptions import ConfigurationError
from repro.control.batch import BatchDecentralizedController
from repro.control.te_controller import TEDecentralizedController
from repro.experiments.evaluation import Evaluation
from repro.experiments.parallel import scenario_specs
from repro.experiments.registry import get_scenario
from repro.experiments.runner import run_scenario
from repro.live.monitor import LiveMonitor
from repro.live.observer import LiveRunObserver
from repro.network.attacks import DoSAttack
from repro.network.channel import BatchChannel, Channel
from repro.process.interfaces import StepObserver
from repro.response import ActionSpec, ResponsePolicy, ResponseRunner
from repro.response.campaign import evaluate_all_response
from repro.te.constants import N_XMEAS, XMEAS_TABLE

SCENARIOS = ("normal", "idv6", "attack_xmv3", "attack_xmeas1", "dos_xmv3")
N_RUNS = 2


def single_rule_policy(rule: ActionSpec) -> ResponsePolicy:
    """A catch-all policy that may fire its one rule three times a run."""
    return ResponsePolicy(
        enabled=True,
        rules=(rule,),
        cooldown_samples=5,
        max_actions=3,
        hold_samples=12,
    )


POLICIES = {
    "fallback_gains": single_rule_policy(
        ActionSpec(action="fallback_gains", gain_factor=0.5)
    ),
    "quarantine_sensors": single_rule_policy(
        ActionSpec(action="quarantine_channel", channel="sensors")
    ),
    "quarantine_actuators": single_rule_policy(
        ActionSpec(action="quarantine_channel", channel="actuators")
    ),
    "escalate_sensitivity": single_rule_policy(
        ActionSpec(action="escalate_sensitivity", limit_factor=0.7)
    ),
    "shed_sensor": single_rule_policy(
        ActionSpec(action="shed_sensor", sensor="XMEAS(7)")
    ),
}


def serial_reports(evaluation, policy):
    """The reference: each run on the serial kernel, runner bound to it."""
    reports = {}
    for name in SCENARIOS:
        scenario = get_scenario(name)
        specs = scenario_specs(evaluation.config, scenario, N_RUNS)
        for index, spec in enumerate(specs):
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
                observers=[LiveRunObserver(monitor)],
                observer_factories=[runner.bind],
            )
            reports[f"{name}/{index}"] = runner.report()
    return reports


def batched_reports(evaluation, policy):
    results = evaluate_all_response(
        evaluation, [get_scenario(name) for name in SCENARIOS], policy, N_RUNS
    )
    return {
        f"{name}/{index}": report
        for name in SCENARIOS
        for index, report in enumerate(results[name].reports)
    }


def canonical(report) -> str:
    return json.dumps(report.to_mapping(), sort_keys=True)


def trip_sample(report, samples_per_hour):
    if report.shutdown_time_hours is None:
        return None
    return report.shutdown_time_hours * samples_per_hour


@pytest.fixture(scope="module")
def narrow_evaluation(small_evaluation):
    """``small_evaluation`` refitted at 4 rows per batch, in-process.

    The same seeds give the same calibration, so its analyzer is
    bitwise-equal to the session fixture's and the serial reference holds
    for both; the 10-run plan then needs three ``run_specs`` calls.
    """
    config = replace(
        small_evaluation.config,
        parallel=ParallelConfig(n_workers=1, batch_size=4),
    )
    evaluation = Evaluation(config)
    evaluation.calibrate(keep_results=False)
    return evaluation


@pytest.fixture(scope="module")
def batched(small_evaluation):
    """Every policy's batched campaign, keyed by policy name."""
    return {
        name: batched_reports(small_evaluation, policy)
        for name, policy in POLICIES.items()
    }


# ----------------------------------------------------------------------
# Batched campaigns against the serial reference
# ----------------------------------------------------------------------
class TestBatchedMatchesSerial:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_every_report_matches_the_serial_kernel(
        self, small_evaluation, batched, policy_name
    ):
        policy = POLICIES[policy_name]
        expected = serial_reports(small_evaluation, policy)
        actual = batched[policy_name]
        assert list(actual) == list(expected)
        for key in expected:
            assert canonical(actual[key]) == canonical(expected[key]), key
        action = policy.rules[0].action
        assert all(
            record.action == action
            for report in actual.values()
            for record in report.actions
        )

    @pytest.mark.parametrize(
        "policy_name",
        # The sensor quarantine saves the runs that would trip early, so
        # it has no trip ahead of a later action.
        sorted(set(POLICIES) - {"quarantine_sensors"}),
    )
    def test_an_action_fires_after_an_earlier_row_left_the_batch(
        self, small_evaluation, batched, policy_name
    ):
        # A row that trips is compacted out, which moves every later row
        # of the batch; the action must still reach its own row.
        reports = list(batched[policy_name].values())
        samples_per_hour = small_evaluation.config.simulation.samples_per_hour
        trips = [
            (position, trip_sample(report, samples_per_hour))
            for position, report in enumerate(reports)
            if report.shutdown_time_hours is not None
        ]
        fired = [
            (position, record.index)
            for position, report in enumerate(reports)
            for record in report.actions
        ]
        assert any(
            tripped < position and trip < index
            for tripped, trip in trips
            for position, index in fired
        ), (trips, fired)

    def test_fallback_gains_compound_on_one_row(self, batched):
        repeated = [
            key
            for key, report in batched["fallback_gains"].items()
            if len(report.actions) >= 2
        ]
        assert repeated, "some run must fall back twice"

    @pytest.mark.parametrize("channel", ["sensors", "actuators"])
    def test_quarantine_clears_a_live_attack(self, batched, channel):
        cleared = [
            record.detail
            for report in batched[f"quarantine_{channel}"].values()
            for record in report.actions
            if "(1 attack(s) cleared)" in record.detail
        ]
        assert cleared, f"no {channel} quarantine cleared an attack"

    def test_shed_sensor_acts_on_rows_without_an_attack(
        self, small_evaluation, batched
    ):
        # Shedding XMEAS(7) on the attack-free IDV(6) run turns an
        # uncompromised row into a compromised one; the serial match above
        # would fail if the batch channel never applied the DoS, and the
        # earlier trip shows the DoS changed the closed loop.
        shed = batched["shed_sensor"]
        plain = batched_reports(
            small_evaluation, replace(POLICIES["shed_sensor"], enabled=False)
        )
        assert shed["idv6/0"].actions
        assert (
            shed["idv6/0"].shutdown_time_hours
            != plain["idv6/0"].shutdown_time_hours
        )

    def test_narrow_batches_match_the_serial_kernel(
        self, small_evaluation, narrow_evaluation, batched
    ):
        actual = batched_reports(narrow_evaluation, POLICIES["fallback_gains"])
        for key, report in batched["fallback_gains"].items():
            assert canonical(actual[key]) == canonical(report), key


# ----------------------------------------------------------------------
# The controller row fallback against a fresh serial controller
# ----------------------------------------------------------------------
NOMINAL = np.array([row[2] for row in XMEAS_TABLE], dtype=float)


def measurement_sequence(n_steps, n_rows, override):
    """Noisy nominal measurements; with ``override``, reactor pressure and
    level ramp through their override thresholds, so the filtered signals
    lag the raw ones when the fallback restarts the filter."""
    rng = np.random.default_rng(11)
    matrices = NOMINAL * (1.0 + 0.02 * rng.standard_normal((n_steps, n_rows, N_XMEAS)))
    if override:
        ramp = np.linspace(0.0, 1.0, n_steps)[:, None]
        matrices[:, :, 6] = 2750.0 + 300.0 * ramp + rng.normal(0, 5, (n_steps, n_rows))
        matrices[:, :, 7] = 80.0 + 20.0 * ramp + rng.normal(0, 1, (n_steps, n_rows))
    return matrices


def scaled(controller, factor):
    return TEDecentralizedController(
        loops=[
            replace(loop.definition, kc=loop.definition.kc * factor)
            for loop in controller.loops
        ]
    )


@pytest.mark.parametrize("override", [False, True], ids=["nominal", "override"])
def test_fallback_row_matches_a_fresh_serial_controller(override):
    n_rows, n_steps, dt = 3, 40, 0.05
    batch = BatchDecentralizedController(None, n_rows)
    serial = [TEDecentralizedController() for _ in range(n_rows)]
    rows = list(range(n_rows))
    # Row 1 falls back at step 12 and again at step 30, after row 0 has
    # been compacted out at step 20; row 2 falls back once, at step 25.
    fallbacks = {12: 1, 25: 2, 30: 1}
    overriding = 0
    for step, matrix in enumerate(measurement_sequence(n_steps, n_rows, override)):
        if step == 20:
            rows = [1, 2]
            batch.take(np.array([1, 2]))
        if step in fallbacks:
            row = fallbacks[step]
            previous = serial[row]
            overriding += int(
                previous._filtered_pressure > previous.pressure_override_start_kpa
                and previous._filtered_level > previous.level_override_start_percent
                and previous._filtered_pressure != matrix[row, 6]
            )
            serial[row] = scaled(previous, 0.5)
            batch.fallback_row(
                rows.index(row), [loop.definition.kc for loop in serial[row].loops]
            )
        commands = batch.update(matrix[rows], dt)
        for local, row in enumerate(rows):
            expected = serial[row].update(matrix[row], dt)
            assert commands[local].tobytes() == expected.tobytes(), (step, row)
    # The override case falls back while both overrides act on a lagging
    # filter, so restarting the filter matters to the commands.
    assert overriding == (len(fallbacks) if override else 0)


def test_fallback_row_rejects_a_wrong_gain_count():
    batch = BatchDecentralizedController(None, 2)
    with pytest.raises(ConfigurationError, match="loop gains"):
        batch.fallback_row(0, [1.0, 2.0])


# ----------------------------------------------------------------------
# Channel and row-handle seams
# ----------------------------------------------------------------------
def test_batch_channel_applies_an_attack_added_to_a_clean_row():
    channels = BatchChannel([Channel("sensors", 3), Channel("sensors", 3)])
    values = np.arange(6, dtype=float).reshape(2, 3)
    np.testing.assert_array_equal(channels.transmit(values, 0.0), values)
    channels.channel(1).add_attack(DoSAttack(2, start_hour=1.0))
    channels.transmit(values, 0.5)  # the DoS records the last value sent
    frozen = channels.transmit(values + 10.0, 1.5)
    np.testing.assert_array_equal(frozen[0], values[0] + 10.0)
    np.testing.assert_array_equal(frozen[1], [13.0, 4.0, 15.0])


class _Keep(StepObserver):
    """Keeps its row handle and reads it again after the run ended."""

    def __init__(self, handle):
        self.handle = handle
        self.error = None

    def on_sample(self, sample):
        return None

    def on_run_end(self, shutdown_time_hours, shutdown_reason):
        try:
            self.handle.sensor_channel
        except ConfigurationError as error:
            self.error = error


def attack_spec(small_evaluation):
    return scenario_specs(
        small_evaluation.config, get_scenario("attack_xmeas1"), 1
    )[0]


def test_handle_rejects_a_controller_that_differs_beyond_its_gains(
    small_evaluation,
):
    def swap(handle):
        handle.controller = TEDecentralizedController(pressure_override_gain=0.1)
        return ()

    with pytest.raises(ConfigurationError, match="loop gains"):
        BatchSimulator().run_specs(
            [attack_spec(small_evaluation)],
            observer_factories=[(swap,)],
            trajectories=False,
        )


def test_handle_of_a_row_that_left_its_batch_is_refused(small_evaluation):
    # The unanswered attack trips the run, which then leaves the batch.
    kept = []

    def keep(handle):
        kept.append(_Keep(handle))
        return kept

    results = BatchSimulator().run_specs(
        [attack_spec(small_evaluation)],
        observer_factories=[(keep,)],
        trajectories=False,
    )
    assert results == []
    (observer,) = kept
    assert isinstance(observer.error, ConfigurationError)


def test_observer_factories_need_one_entry_per_spec(small_evaluation):
    with pytest.raises(ConfigurationError, match="one sequence"):
        BatchSimulator().run_specs(
            [attack_spec(small_evaluation)], observer_factories=[(), ()]
        )
