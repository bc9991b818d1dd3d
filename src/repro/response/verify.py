"""Recovery verification: did the action restore in-control operation?

After the :class:`~repro.response.runner.ResponseRunner` fires its first
action, :class:`RecoveryTracker` watches both monitor views and declares
the plant *recovered* once D and Q stay at or under their detection limits
for ``hold_samples`` consecutive samples.  :class:`ResponseReport` is the
per-run verdict: the underlying
:class:`~repro.live.monitor.LiveRunReport` plus the actions taken,
time-to-recovery, trip-avoided and residual-alarm-rate metrics — JSON-safe
and rebuildable bit-for-bit via ``to_mapping`` / ``from_mapping``
(:mod:`repro.common.codec`) like every other result object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.codec import Mapped
from repro.live.monitor import LiveMonitor, LiveRunReport

__all__ = [
    "ActionRecord",
    "RecoveryTracker",
    "ResponseReport",
    "build_response_report",
]


@dataclass(frozen=True)
class ActionRecord(Mapped, label="action_record"):
    """One action the runner applied, pinned to its sample.

    Attributes
    ----------
    index / time_hours:
        Sample at which the action fired (it takes effect at the next
        sample — the simulator re-reads its collaborators per sub-step).
    action:
        The :data:`~repro.response.policy.ACTIONS` entry that fired.
    rule_index:
        Position of the matching rule in the policy's rule list.
    view / chart:
        The alarm that triggered the rule: which view raised and which
        chart fired.
    detail:
        Human-readable description of what the action changed.
    """

    index: int
    time_hours: float
    action: str
    rule_index: int
    view: str
    chart: str
    detail: str = ""


class RecoveryTracker:
    """Counts consecutive in-control samples after the first action fired.

    The tracker is armed by the first action; from then on every sample at
    which *both* views are in control (D and Q at or under their current
    detection limits) extends a streak, any violation resets it, and the
    sample completing a ``hold_samples``-long streak is the recovery
    point.  Escalated detection limits are honoured: the comparison uses
    whatever limits the views hold at each sample.
    """

    def __init__(self, monitor: LiveMonitor, hold_samples: int):
        self.monitor = monitor
        self.hold_samples = int(hold_samples)
        self.armed = False
        self.arm_index: Optional[int] = None
        self.arm_time_hours: Optional[float] = None
        self.recovery_index: Optional[int] = None
        self.recovery_time_hours: Optional[float] = None
        self._streak = 0

    def arm(self, index: int, time_hours: float) -> None:
        """Start verification at the sample where the first action fired."""
        if self.armed:
            return
        self.armed = True
        self.arm_index = int(index)
        self.arm_time_hours = float(time_hours)
        self._streak = 0

    @property
    def recovered(self) -> bool:
        """Whether the hold window has completed since the first action."""
        return self.recovery_index is not None

    @property
    def time_to_recovery_hours(self) -> Optional[float]:
        """Hours from the first action to the completed hold window."""
        if self.recovery_time_hours is None or self.arm_time_hours is None:
            return None
        return self.recovery_time_hours - self.arm_time_hours

    def update(self, index: int, time_hours: float) -> None:
        """Fold one sample in (call after the monitor has scored it)."""
        if not self.armed or self.recovered:
            return
        if all(view.in_control for view in self.monitor.views.values()):
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= self.hold_samples:
            self.recovery_index = int(index)
            self.recovery_time_hours = float(time_hours)


@dataclass(frozen=True)
class ResponseReport(Mapped, label="response_report"):
    """Everything one response-enabled run produced.

    Extends the live monitor's :class:`~repro.live.monitor.LiveRunReport`
    (kept whole under :attr:`live`) with the response verdict: the actions
    taken, whether and when the plant recovered, whether a safety trip was
    avoided, and the residual alarm rate after the first action.

    ``trip_avoided`` is three-valued: ``None`` when no action fired (there
    was nothing to avoid on the response's account), else whether the run
    finished without a safety shutdown.
    """

    live: LiveRunReport
    policy_enabled: bool = False
    hold_samples: int = 1
    actions: Tuple[ActionRecord, ...] = ()
    first_action_index: Optional[int] = None
    first_action_time_hours: Optional[float] = None
    recovered: bool = False
    recovery_index: Optional[int] = None
    recovery_time_hours: Optional[float] = None
    time_to_recovery_hours: Optional[float] = None
    residual_alarms: int = 0
    residual_alarm_rate: Optional[float] = None
    trip_avoided: Optional[bool] = None
    shutdown_time_hours: Optional[float] = None
    shutdown_reason: Optional[str] = None

    @property
    def n_actions(self) -> int:
        """How many actions fired during the run."""
        return len(self.actions)

    @property
    def responded(self) -> bool:
        """Whether at least one action fired."""
        return bool(self.actions)

    @property
    def detected(self) -> bool:
        """Whether the underlying live monitor confirmed a detection."""
        return self.live.detected


def build_response_report(
    live: LiveRunReport,
    policy_enabled: bool,
    tracker: RecoveryTracker,
    actions: Tuple[ActionRecord, ...],
    shutdown_time_hours: Optional[float],
    shutdown_reason: Optional[str],
) -> ResponseReport:
    """Assemble the per-run verdict from the runner's pieces."""
    first = actions[0] if actions else None
    residual_alarms = 0
    residual_alarm_rate: Optional[float] = None
    if first is not None:
        residual_alarms = sum(
            1
            for events in live.alarm_events.values()
            for event in events
            if event.raised and event.index > first.index
        )
        samples_after = live.n_samples - 1 - first.index
        residual_alarm_rate = (
            residual_alarms / samples_after if samples_after > 0 else 0.0
        )
    return ResponseReport(
        live=live,
        policy_enabled=bool(policy_enabled),
        hold_samples=tracker.hold_samples,
        actions=actions,
        first_action_index=None if first is None else first.index,
        first_action_time_hours=None if first is None else first.time_hours,
        recovered=tracker.recovered,
        recovery_index=tracker.recovery_index,
        recovery_time_hours=tracker.recovery_time_hours,
        time_to_recovery_hours=tracker.time_to_recovery_hours,
        residual_alarms=residual_alarms,
        residual_alarm_rate=residual_alarm_rate,
        trip_avoided=None if first is None else shutdown_time_hours is None,
        shutdown_time_hours=shutdown_time_hours,
        shutdown_reason=shutdown_reason,
    )
