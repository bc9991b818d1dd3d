"""Alarm management for the live monitor: raise/clear state machine.

A deployed monitor does not emit a bare boolean per sample — it manages
*alarms*: the consecutive-violation rule raises one, the statistics dropping
back under their limits clears it, and every transition is an auditable
event.  :class:`AlarmManager` implements that state machine over the D and Q
statistics of one data view; the detection bookkeeping used for run-length
metrics lives in :mod:`repro.live.monitor`, which applies the same rule with
the anomaly-onset offsets of the batch path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.codec import Mapped
from repro.common.exceptions import ConfigurationError

__all__ = ["ViolationStreak", "AlarmState", "AlarmEvent", "AlarmManager"]


class ViolationStreak:
    """Consecutive-violation counter — the paper's detection rule, defined
    once for the live subsystem.

    :meth:`update` returns ``True`` exactly when a run of violations
    reaches ``consecutive`` samples (the moment
    :func:`repro.mspc.charts.detect_anomaly` flags in batch); both the
    alarm state machine and the detection bookkeeping count through this
    class, so the rule cannot drift between them.
    """

    __slots__ = ("consecutive", "count")

    def __init__(self, consecutive: int):
        if consecutive < 1:
            raise ConfigurationError("consecutive must be >= 1")
        self.consecutive = int(consecutive)
        self.count = 0

    def update(self, violating: bool) -> bool:
        """Fold one sample in; ``True`` when the rule fires at it."""
        self.count = self.count + 1 if violating else 0
        return self.count == self.consecutive


class AlarmState(enum.Enum):
    """Whether an alarm is currently standing."""

    NORMAL = "normal"
    ACTIVE = "active"


@dataclass(frozen=True)
class AlarmEvent(Mapped, label="alarm_event"):
    """One alarm transition.

    Its mapping form (:mod:`repro.common.codec`) writes floats as Python
    floats, whose shortest round-trip repr ``json.dumps`` emits, so a
    transition that crosses the wire is rebuilt bit-for-bit.

    Attributes
    ----------
    kind:
        ``"raised"`` or ``"cleared"``.
    index / time_hours:
        Sample at which the transition happened.
    chart:
        Chart responsible: ``"D"``, ``"Q"`` or ``"D+Q"`` when both fired at
        the same sample.  A ``cleared`` event names the chart whose alarm it
        clears.
    statistic_value / limit:
        Value and detection limit of the responsible chart at the
        transition sample (the D chart's pair for ``"D+Q"``).
    """

    kind: str
    index: int
    time_hours: float
    chart: str
    statistic_value: float
    limit: float

    @property
    def raised(self) -> bool:
        """Whether this event raised (vs. cleared) an alarm."""
        return self.kind == "raised"

class AlarmManager:
    """Consecutive-violation alarm state machine over the D and Q charts.

    The rule matches the paper's detection rule (and
    :func:`repro.mspc.charts.detect_anomaly`): an alarm is raised
    at the ``consecutive_violations``-th consecutive sample above the
    detection limit on either chart.  It is cleared at the first sample at
    which *both* statistics are back at or under their limits, after which a
    fresh violation run can raise it again.
    """

    def __init__(self, consecutive_violations: int):
        self.consecutive_violations = int(consecutive_violations)
        self.reset()  # ViolationStreak validates consecutive_violations >= 1

    def reset(self) -> None:
        """Return to the no-alarm state and forget all events."""
        self._state = AlarmState.NORMAL
        self._streak_d = ViolationStreak(self.consecutive_violations)
        self._streak_q = ViolationStreak(self.consecutive_violations)
        self._raised_chart: Optional[str] = None
        self._events: List[AlarmEvent] = []

    # ------------------------------------------------------------------
    @property
    def state(self) -> AlarmState:
        """Current alarm state."""
        return self._state

    @property
    def active(self) -> bool:
        """Whether an alarm is currently standing."""
        return self._state is AlarmState.ACTIVE

    @property
    def events(self) -> Tuple[AlarmEvent, ...]:
        """Every transition so far, in order."""
        return tuple(self._events)

    @property
    def raise_events(self) -> Tuple[AlarmEvent, ...]:
        """The ``raised`` transitions only."""
        return tuple(event for event in self._events if event.raised)

    @property
    def first_raise(self) -> Optional[AlarmEvent]:
        """The first alarm raised, or ``None``."""
        for event in self._events:
            if event.raised:
                return event
        return None

    # ------------------------------------------------------------------
    def update(
        self,
        index: int,
        time_hours: float,
        d_value: float,
        d_limit: float,
        q_value: float,
        q_limit: float,
    ) -> Optional[AlarmEvent]:
        """Fold one sample's statistics in; return the transition, if any."""
        d_violating = d_value > d_limit
        q_violating = q_value > q_limit
        d_fired = self._streak_d.update(d_violating)
        q_fired = self._streak_q.update(q_violating)

        event: Optional[AlarmEvent] = None
        if self._state is AlarmState.NORMAL:
            if d_fired or q_fired:
                if d_fired and q_fired:
                    chart, value, limit = "D+Q", d_value, d_limit
                elif d_fired:
                    chart, value, limit = "D", d_value, d_limit
                else:
                    chart, value, limit = "Q", q_value, q_limit
                event = AlarmEvent(
                    "raised", int(index), float(time_hours), chart, value, limit
                )
                self._state = AlarmState.ACTIVE
                self._raised_chart = chart
        elif not d_violating and not q_violating:
            chart = self._raised_chart or "D"
            if chart.startswith("D"):
                value, limit = d_value, d_limit
            else:
                value, limit = q_value, q_limit
            event = AlarmEvent(
                "cleared", int(index), float(time_hours), chart, value, limit
            )
            self._state = AlarmState.NORMAL
            self._raised_chart = None
        if event is not None:
            self._events.append(event)
        return event
