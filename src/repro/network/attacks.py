"""Attack models on the controller/process communication.

Following the adversary model of Krotofil et al. used by the paper, two attack
primitives are provided, both applying to a single channel entry (one sensor
or one actuator signal) over an attack interval ``[start_hour, end_hour)``:

* :class:`IntegrityAttack` — the attacker replaces the transmitted value
  ``Y_i(t)`` with an arbitrary value ``Y_i^a(t)`` (a constant, or any callable
  of time and the true value);
* :class:`DoSAttack` — the attacker suppresses communication, so the receiver
  keeps using the last value received before the attack started:
  ``Y_i^a(t) = Y_i(t_a - 1)``.

Beyond the paper's two primitives, three further manipulations common in the
ICS-attack literature are provided (all composable through
:mod:`repro.experiments.injections`):

* :class:`BiasAttack` — a constant offset is added to the true value;
* :class:`DriftAttack` — the delivered value drifts away from the true one at
  a constant rate, emulating slow sensor degradation or a stealthy ramp;
* :class:`ReplayAttack` — values recorded during a pre-attack window are
  replayed in a loop, masking whatever happens behind them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Sequence, Union

from repro.common.exceptions import ConfigurationError

__all__ = [
    "Attack",
    "IntegrityAttack",
    "DoSAttack",
    "BiasAttack",
    "DriftAttack",
    "ReplayAttack",
    "AttackSchedule",
]

#: An injected value: either a constant or ``f(time_hours, true_value) -> value``.
InjectedValue = Union[float, Callable[[float, float], float]]


class Attack(ABC):
    """Base class of attacks on a single channel entry.

    Parameters
    ----------
    target_index:
        1-based index of the targeted entry within the channel vector
        (e.g. ``3`` to target ``XMV(3)`` on the actuator channel).
    start_hour:
        Simulation hour at which the attack begins.
    end_hour:
        Simulation hour at which the attack stops; ``None`` means the attack
        lasts until the end of the run.
    """

    def __init__(
        self,
        target_index: int,
        start_hour: float,
        end_hour: Optional[float] = None,
    ):
        if target_index < 1:
            raise ConfigurationError("target_index is 1-based and must be >= 1")
        if start_hour < 0:
            raise ConfigurationError("start_hour must be >= 0")
        if end_hour is not None and end_hour <= start_hour:
            raise ConfigurationError("end_hour must be greater than start_hour")
        self.target_index = int(target_index)
        self.start_hour = float(start_hour)
        self.end_hour = end_hour if end_hour is None else float(end_hour)

    def is_active(self, time_hours: float) -> bool:
        """Whether the attack is active at ``time_hours``."""
        if time_hours < self.start_hour:
            return False
        if self.end_hour is not None and time_hours >= self.end_hour:
            return False
        return True

    def idle_through(self, time_hours: float) -> bool:
        """Whether the attack has neither tampered with nor recorded a value
        transmitted at or before ``time_hours``."""
        return time_hours < self.start_hour

    def reset(self) -> None:
        """Clear any per-run internal state (e.g. the DoS frozen value)."""

    def observe(self, true_value: float, time_hours: float) -> None:
        """See the true value in transit (called on every transmission).

        Stateful attacks (DoS freezing the last pre-attack value, replay
        recording its window) override this; stateless attacks ignore it.
        """

    @abstractmethod
    def tamper(self, true_value: float, time_hours: float) -> float:
        """Return the value the receiver gets instead of ``true_value``."""

    def describe(self) -> str:
        """Short human-readable description."""
        window = f"from t={self.start_hour:g} h"
        if self.end_hour is not None:
            window += f" to t={self.end_hour:g} h"
        return f"{type(self).__name__} on entry {self.target_index} {window}"


class IntegrityAttack(Attack):
    """Replace the transmitted value with an attacker-chosen one.

    Parameters
    ----------
    injected:
        The injected value: a constant (e.g. ``0.0`` to command a closed
        valve or forge a zero flow reading), or a callable
        ``f(time_hours, true_value)`` for time-varying manipulations.
    """

    def __init__(
        self,
        target_index: int,
        start_hour: float,
        injected: InjectedValue,
        end_hour: Optional[float] = None,
    ):
        super().__init__(target_index, start_hour, end_hour)
        self.injected = injected

    def tamper(self, true_value: float, time_hours: float) -> float:
        if callable(self.injected):
            return float(self.injected(time_hours, true_value))
        return float(self.injected)


class DoSAttack(Attack):
    """Suppress communication: the receiver keeps the last pre-attack value."""

    def __init__(
        self,
        target_index: int,
        start_hour: float,
        end_hour: Optional[float] = None,
    ):
        super().__init__(target_index, start_hour, end_hour)
        self._frozen_value: Optional[float] = None

    def reset(self) -> None:
        self._frozen_value = None

    def observe(self, true_value: float, time_hours: float) -> None:
        """Track the latest pre-attack value (called by the channel)."""
        if not self.is_active(time_hours):
            self._frozen_value = float(true_value)

    def tamper(self, true_value: float, time_hours: float) -> float:
        if self._frozen_value is None:
            # The attack started before any value was transmitted; fall back
            # to freezing the first value seen.
            self._frozen_value = float(true_value)
        return self._frozen_value


class BiasAttack(Attack):
    """Add a constant offset to the transmitted value.

    Parameters
    ----------
    offset:
        The bias added to the true value while the attack is active.
    """

    def __init__(
        self,
        target_index: int,
        start_hour: float,
        offset: float,
        end_hour: Optional[float] = None,
    ):
        super().__init__(target_index, start_hour, end_hour)
        self.offset = float(offset)

    def tamper(self, true_value: float, time_hours: float) -> float:
        return float(true_value) + self.offset


class DriftAttack(Attack):
    """Drift the delivered value away from the true one at a constant rate.

    The delivered value is ``true + rate_per_hour * (t - start_hour)``: zero
    deviation at onset, growing linearly — the stealthy ramp / slow sensor
    degradation pattern, much harder to catch with fixed thresholds than a
    step change.
    """

    def __init__(
        self,
        target_index: int,
        start_hour: float,
        rate_per_hour: float,
        end_hour: Optional[float] = None,
    ):
        super().__init__(target_index, start_hour, end_hour)
        self.rate_per_hour = float(rate_per_hour)

    def tamper(self, true_value: float, time_hours: float) -> float:
        elapsed = float(time_hours) - self.start_hour
        return float(true_value) + self.rate_per_hour * elapsed


class ReplayAttack(Attack):
    """Replay values recorded during a pre-attack window, in a loop.

    The attacker records the signal over ``[start_hour - record_hours,
    start_hour)`` and, once active, substitutes the recording for the live
    signal, cycling back to its beginning when it runs out — the classic
    cover for a concurrent physical manipulation.  If nothing was recorded
    (the attack starts too early), the first live value is frozen instead,
    degenerating to a DoS-style hold.
    """

    def __init__(
        self,
        target_index: int,
        start_hour: float,
        record_hours: float = 1.0,
        end_hour: Optional[float] = None,
    ):
        super().__init__(target_index, start_hour, end_hour)
        if record_hours <= 0:
            raise ConfigurationError("record_hours must be positive")
        self.record_hours = float(record_hours)
        self._recording: List[float] = []
        self._cursor = 0

    def idle_through(self, time_hours: float) -> bool:
        return time_hours < self.start_hour - self.record_hours

    def reset(self) -> None:
        self._recording = []
        self._cursor = 0

    def observe(self, true_value: float, time_hours: float) -> None:
        if self.start_hour - self.record_hours <= time_hours < self.start_hour:
            self._recording.append(float(true_value))

    def tamper(self, true_value: float, time_hours: float) -> float:
        if not self._recording:
            self._recording.append(float(true_value))
        value = self._recording[self._cursor % len(self._recording)]
        self._cursor += 1
        return value


class AttackSchedule:
    """A collection of attacks applied to one channel."""

    def __init__(self, attacks: Optional[Sequence[Attack]] = None):
        self._attacks: List[Attack] = list(attacks or [])

    @property
    def attacks(self) -> Sequence[Attack]:
        """The scheduled attacks."""
        return tuple(self._attacks)

    def add(self, attack: Attack) -> "AttackSchedule":
        """Add an attack; returns ``self`` for chaining."""
        self._attacks.append(attack)
        return self

    def reset(self) -> None:
        """Reset per-run state of every attack."""
        for attack in self._attacks:
            attack.reset()

    def is_empty(self) -> bool:
        """Whether no attack has been scheduled."""
        return not self._attacks

    def active_at(self, time_hours: float) -> List[Attack]:
        """Attacks active at ``time_hours``."""
        return [attack for attack in self._attacks if attack.is_active(time_hours)]

    @classmethod
    def none(cls) -> "AttackSchedule":
        """An empty schedule (benign channel)."""
        return cls()
