"""The action runner: applies policy actions to a live simulation.

:class:`ResponseRunner` is a :class:`~repro.process.interfaces.StepObserver`
that rides *behind* a :class:`~repro.live.observer.LiveRunObserver` feeding
the same :class:`~repro.live.monitor.LiveMonitor`.  Each sample it checks
the monitor's alarm managers for newly raised alarms, matches them against
its :class:`~repro.response.policy.ResponsePolicy`, and applies the first
matching rule's action through the simulator's mutation seams: its
``controller`` (swapped for one with scaled loop gains), ``sensor_channel``
and ``actuator_channel``.  :func:`apply_action` has one body for both
kernels.  On the serial kernel the seams belong to the
:class:`~repro.process.simulator.ClosedLoopSimulator`, which re-reads its
controller and channels at every integration sub-step.  On the batch
kernel they belong to a :class:`~repro.batch.simulator.BatchRow`, which
applies the change to its own row only.  Either way, a change made in
``on_sample`` takes effect at the next sample.

Everything is deterministic: the same seed produces the same alarms, hence
the same actions at the same step indices, on either kernel.  With a
disabled (or rule-less) policy the runner never mutates anything and the
run is bitwise-identical to one without it.

The runner needs the simulator it rides in; :meth:`ResponseRunner.bind` is
shaped as an observer factory for
:func:`~repro.experiments.runner.run_scenario` (and, per spec, for
:meth:`~repro.batch.simulator.BatchSimulator.run_specs`)::

    runner = ResponseRunner(monitor, policy)
    run_scenario(scenario, simulation,
                 observers=[LiveRunObserver(monitor)],
                 observer_factories=[runner.bind])
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.common.exceptions import ConfigurationError
from repro.control.te_controller import TEDecentralizedController
from repro.live.monitor import LiveMonitor
from repro.network.attacks import AttackSchedule, DoSAttack
from repro.obs.logs import get_logger
from repro.process.interfaces import StepObserver, StepSample
from repro.process.simulator import ClosedLoopSimulator
from repro.response.policy import ActionSpec, ResponsePolicy
from repro.response.verify import (
    ActionRecord,
    RecoveryTracker,
    ResponseReport,
    build_response_report,
)
from repro.te.constants import XMEAS_NAMES, XMV_NAMES

__all__ = ["ResponseRunner", "apply_action"]

_LOG = get_logger("response")


def apply_action(
    simulator: ClosedLoopSimulator,
    monitor: LiveMonitor,
    rule: ActionSpec,
    time_hours: float,
) -> str:
    """Apply one rule's action through the simulator/monitor seams.

    ``simulator`` is a serial simulator or a batch row
    (:class:`~repro.batch.simulator.BatchRow`): anything with a
    ``controller`` and the two channels.  Returns a human-readable
    description of what changed.  The mutation is visible from the next
    integration sub-step on — the sample that triggered the action is
    already recorded.
    """
    if rule.action == "fallback_gains":
        controller = simulator.controller
        loops = [
            dataclasses.replace(
                loop.definition, kc=loop.definition.kc * rule.gain_factor
            )
            for loop in controller.loops
        ]
        simulator.controller = TEDecentralizedController(loops=loops)
        return f"controller loop gains scaled x{rule.gain_factor:g}"
    if rule.action == "quarantine_channel":
        channel = (
            simulator.sensor_channel
            if rule.channel == "sensors"
            else simulator.actuator_channel
        )
        n_cleared = len(channel.attacks.attacks)
        channel.attacks = AttackSchedule.none()
        return (
            f"quarantined {channel.name} channel "
            f"({n_cleared} attack(s) cleared)"
        )
    if rule.action == "escalate_sensitivity":
        for view in monitor.views.values():
            view.d_limit *= rule.limit_factor
            view.q_limit *= rule.limit_factor
        return f"detection limits scaled x{rule.limit_factor:g}"
    if rule.action == "shed_sensor":
        name = rule.sensor
        if name in XMEAS_NAMES:
            channel = simulator.sensor_channel
            target = XMEAS_NAMES.index(name) + 1
        elif name in XMV_NAMES:
            channel = simulator.actuator_channel
            target = XMV_NAMES.index(name) + 1
        else:
            raise ConfigurationError(
                f"shed_sensor: unknown variable {name!r} "
                "(expected an XMEAS(i) or XMV(i) name)"
            )
        channel.add_attack(DoSAttack(target, start_hour=float(time_hours)))
        return f"shed {name}: held at its last transmitted value"
    raise ConfigurationError(f"unknown action {rule.action!r}")


class ResponseRunner(StepObserver):
    """Step observer that turns confirmed alarms into recovery actions.

    Must be attached *after* a :class:`~repro.live.observer.LiveRunObserver`
    feeding the same monitor, so every sample is scored before the runner
    inspects the alarm state (``on_run_start`` / ``on_sample`` verify
    this).  Actions fire only on alarms raised at or after the monitored
    anomaly onset (``monitor.detected``), use the on-alarm oMEDA snapshot
    for rule matching, and respect the policy's cooldowns and per-run
    budget.  The runner never stops a run.
    """

    def __init__(
        self,
        monitor: LiveMonitor,
        policy: ResponsePolicy,
        simulator: Optional[ClosedLoopSimulator] = None,
    ):
        self.monitor = monitor
        self.policy = policy
        self.simulator = simulator
        self._actions: List[ActionRecord] = []
        self._last_fired: Dict[int, int] = {}
        self._was_detected = False
        self._tracker = RecoveryTracker(monitor, policy.hold_samples)
        self._shutdown_time_hours: Optional[float] = None
        self._shutdown_reason: Optional[str] = None

    def bind(self, simulator: ClosedLoopSimulator) -> Tuple["ResponseRunner"]:
        """Attach the simulator (or batch row); usable as an observer
        factory of ``run_scenario`` and ``BatchSimulator.run_specs``."""
        self.simulator = simulator
        return (self,)

    # ------------------------------------------------------------------
    @property
    def actions(self) -> Tuple[ActionRecord, ...]:
        """Every action applied so far, in firing order."""
        return tuple(self._actions)

    @property
    def tracker(self) -> RecoveryTracker:
        """The recovery verification state."""
        return self._tracker

    # ------------------------------------------------------------------
    def on_run_start(self, variable_names, config, metadata) -> None:
        if self.simulator is None:
            raise ConfigurationError(
                "ResponseRunner is not bound to a simulator — pass "
                "runner.bind through run_scenario's observer_factories "
                "(or set runner.simulator)"
            )
        self._actions = []
        self._last_fired = {}
        self._was_detected = False
        self._tracker = RecoveryTracker(self.monitor, self.policy.hold_samples)
        self._shutdown_time_hours = None
        self._shutdown_reason = None

    def on_sample(self, sample: StepSample) -> Optional[bool]:
        monitor = self.monitor
        if monitor.n_samples != sample.index + 1:
            raise ConfigurationError(
                "ResponseRunner must be attached after a LiveRunObserver "
                "feeding the same monitor (the sample reached the runner "
                "unscored)"
            )
        if not self.policy.is_armed:
            # A disabled (or rule-less) policy can never fire; skip the
            # bookkeeping so riding disarmed is as close to free as the
            # ordering guard allows.
            return None
        if not monitor.detected:
            # Pre-detection raises are false alarms and never trigger;
            # the recovery tracker only arms after the first action, which
            # needs a detection — nothing to fold in yet.
            return None
        just_detected = not self._was_detected
        self._was_detected = True
        triggers = []
        for view_name, view in monitor.views.items():
            raises = view.alarms.raise_events
            if not raises:
                continue
            last = raises[-1]
            if last.index == sample.index:
                # An alarm manager emits at most one transition per sample,
                # so a last raise stamped with the current index IS the new
                # raise of this sample.
                triggers.append((view_name, last))
            elif just_detected and view.alarms.active:
                # The alarm raised before the anomaly onset and was still
                # standing when the detection confirmed — the confirmation
                # itself is the trigger, matched against the standing raise.
                triggers.append((view_name, last))
        if triggers:
            summary = (
                monitor.snapshot.summarize()
                if monitor.snapshot is not None
                else None
            )
            for view_name, event in triggers:
                if len(self._actions) >= self.policy.max_actions:
                    break
                match = self.policy.first_match(view_name, event, summary)
                if match is None:
                    continue
                rule_index, rule = match
                last = self._last_fired.get(rule_index)
                cooldown = self.policy.rule_cooldown(rule)
                if last is not None and sample.index - last < cooldown:
                    continue
                detail = apply_action(
                    self.simulator, monitor, rule, sample.time_hours
                )
                self._last_fired[rule_index] = sample.index
                self._actions.append(
                    ActionRecord(
                        index=sample.index,
                        time_hours=float(sample.time_hours),
                        action=rule.action,
                        rule_index=rule_index,
                        view=view_name,
                        chart=event.chart,
                        detail=detail,
                    )
                )
                _LOG.info(
                    "action applied",
                    extra={
                        "action_id": len(self._actions) - 1,
                        "action": rule.action,
                        "rule": rule_index,
                        "view": view_name,
                        "chart": event.chart,
                        "sample": sample.index,
                        "time_hours": float(sample.time_hours),
                        "detail": detail,
                    },
                )
                self._tracker.arm(sample.index, sample.time_hours)
        self._tracker.update(sample.index, sample.time_hours)
        return None

    def on_run_end(self, shutdown_time_hours, shutdown_reason) -> None:
        self._shutdown_time_hours = (
            None if shutdown_time_hours is None else float(shutdown_time_hours)
        )
        self._shutdown_reason = shutdown_reason

    # ------------------------------------------------------------------
    def report(self) -> ResponseReport:
        """The per-run response verdict (see :mod:`repro.response.verify`)."""
        return build_response_report(
            self.monitor.report(),
            policy_enabled=self.policy.enabled,
            tracker=self._tracker,
            actions=self.actions,
            shutdown_time_hours=self._shutdown_time_hours,
            shutdown_reason=self._shutdown_reason,
        )
