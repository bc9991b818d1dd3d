"""Communication channels between the plant and the controllers.

A :class:`Channel` carries a vector of values each time :meth:`Channel.transmit`
is called — sensor readings on the way to the controller, or actuator commands
on the way to the plant.  Attacks registered on the channel tamper with the
targeted entries while they are active; the untampered entries pass through
unchanged.  The channel never mutates the sender's array.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.network.attacks import Attack, AttackSchedule

__all__ = ["Channel", "BatchChannel"]


class Channel:
    """A (possibly compromised) communication channel.

    Parameters
    ----------
    name:
        Channel name, e.g. ``"sensors"`` or ``"actuators"`` (used in logs and
        metadata only).
    n_entries:
        Length of the transmitted vectors; transmissions of any other length
        are rejected.
    attacks:
        Attack schedule applied to this channel.
    """

    def __init__(
        self,
        name: str,
        n_entries: int,
        attacks: Optional[AttackSchedule] = None,
    ):
        if n_entries < 1:
            raise ConfigurationError("n_entries must be >= 1")
        self.name = str(name)
        self.n_entries = int(n_entries)
        self.attacks = attacks or AttackSchedule.none()
        self._transmissions = 0
        self._validate_targets()

    def _validate_targets(self) -> None:
        for attack in self.attacks.attacks:
            if attack.target_index > self.n_entries:
                raise ConfigurationError(
                    f"attack targets entry {attack.target_index} but channel "
                    f"{self.name!r} only carries {self.n_entries} entries"
                )

    @property
    def n_transmissions(self) -> int:
        """Number of vectors transmitted since the last reset."""
        return self._transmissions

    @property
    def compromised(self) -> bool:
        """Whether any attack is scheduled on this channel."""
        return not self.attacks.is_empty()

    def reset(self) -> None:
        """Reset per-run state (attack memory and counters)."""
        self.attacks.reset()
        self._transmissions = 0

    def add_attack(self, attack: Attack) -> "Channel":
        """Register an additional attack; returns ``self`` for chaining."""
        if attack.target_index > self.n_entries:
            raise ConfigurationError(
                f"attack targets entry {attack.target_index} but channel "
                f"{self.name!r} only carries {self.n_entries} entries"
            )
        self.attacks.add(attack)
        return self

    def resume(
        self, values: np.ndarray, time_hours: float, n_transmissions: int
    ) -> None:
        """Take up a run after ``n_transmissions`` transmissions, the last of
        ``values`` at ``time_hours``, that no attack tampered with.

        Every attack observes that last vector, which is all a DoS or
        stuck-at hold keeps of the traffic before its onset.  Every attack
        must still be idle at ``time_hours``
        (:meth:`~repro.network.attacks.Attack.idle_through`).
        """
        busy = [a for a in self.attacks.attacks if not a.idle_through(time_hours)]
        if busy:
            raise ConfigurationError(
                f"channel {self.name!r} cannot take up a run at t={time_hours:g} h: "
                f"{busy[0].describe()} acted on it"
            )
        values = np.asarray(values, dtype=float).ravel()
        for attack in self.attacks.attacks:
            attack.observe(float(values[attack.target_index - 1]), time_hours)
        self._transmissions = int(n_transmissions)

    def transmit(self, values: np.ndarray, time_hours: float) -> np.ndarray:
        """Deliver ``values``, applying any active attacks in transit."""
        values = np.asarray(values, dtype=float).ravel()
        if values.shape[0] != self.n_entries:
            raise ConfigurationError(
                f"channel {self.name!r} carries {self.n_entries} entries, "
                f"got {values.shape[0]}"
            )
        delivered = values.copy()
        for attack in self.attacks.attacks:
            index = attack.target_index - 1
            attack.observe(float(values[index]), time_hours)
            if attack.is_active(time_hours):
                delivered[index] = attack.tamper(float(values[index]), time_hours)
        self._transmissions += 1
        return delivered


class BatchChannel:
    """Row-wise view over the per-run channels of a lockstep batch.

    Each run keeps its own :class:`Channel` (and therefore its own stateful
    attack instances — DoS freezes, replay recordings), so the batch
    kernel applies exactly the serial tampering semantics per row.  Rows
    whose channel carries no attack take a vectorized pass-through: with no
    compromised row the transmitted matrix itself is delivered, otherwise
    the delivered matrix starts as one copy of it and only compromised rows
    are rewritten through their channel.  A row's channel may change mid-run
    (see :meth:`channel`); the compromised rows are then worked out again
    before the next transmission.

    Parameters
    ----------
    channels:
        One (possibly compromised) :class:`Channel` per batch row, all
        carrying the same number of entries.
    """

    def __init__(self, channels: Sequence[Channel]):
        self._channels = list(channels)
        if self._channels:
            widths = {channel.n_entries for channel in self._channels}
            if len(widths) != 1:
                raise ConfigurationError(
                    "all channels of a batch must carry the same entry count"
                )
        self._refresh_compromised()

    def _refresh_compromised(self) -> None:
        """Bind the compromised rows, each with its channel."""
        self._compromised = [
            (row, channel)
            for row, channel in enumerate(self._channels)
            if channel.compromised
        ]
        self._stale = False
        #: No row is compromised and none may have changed: a transmission
        #: delivers the matrix it is handed.
        self._passes_through = not self._compromised

    @property
    def n_rows(self) -> int:
        """Number of runs in the batch."""
        return len(self._channels)

    def reset(self) -> None:
        """Reset per-run state of every row's channel."""
        for channel in self._channels:
            channel.reset()

    def take(self, indices: np.ndarray) -> None:
        """Keep only the given rows (compaction after trips / early stops)."""
        self._channels = [self._channels[int(i)] for i in np.asarray(indices)]
        self._refresh_compromised()

    def channel(self, row: int) -> Channel:
        """Row ``row``'s own :class:`Channel`, open to change in place.

        Attacks added to or cleared from it take effect from the next
        :meth:`transmit` on, which works out the compromised rows again.
        """
        self._stale = True
        self._passes_through = False
        return self._channels[row]

    def transmit(self, values: np.ndarray, time_hours: float) -> np.ndarray:
        """Deliver a ``(B, n_entries)`` matrix, tampering compromised rows.

        With no compromised row this is ``values`` itself; the caller's
        matrix is never written into.
        """
        if self._passes_through:
            return values
        if self._stale:
            self._refresh_compromised()
            if self._passes_through:
                return values
        delivered = values.copy()
        for row, channel in self._compromised:
            delivered[row] = channel.transmit(values[row], time_hours)
        return delivered
