"""Safety interlocks.

The Tennessee-Eastman plant shuts itself down when safety constraints are
violated — in the paper's IDV(6) / XMV(3)-attack scenarios the stripper liquid
level eventually falls too low and the plant trips roughly 7 h 43 min after
the anomaly starts.  :class:`SafetyMonitor` reproduces that behaviour: it
evaluates a set of :class:`SafetyLimit` rules against named process quantities
and raises :class:`~repro.common.exceptions.ProcessShutdown` when one trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.exceptions import ConfigurationError, ProcessShutdown

__all__ = ["SafetyLimit", "SafetyMonitor", "BatchSafetyMonitor"]


@dataclass(frozen=True)
class SafetyLimit:
    """A single interlock on a named process quantity.

    Attributes
    ----------
    quantity:
        Name of the monitored quantity (e.g. ``"stripper_level"``).
    low / high:
        Trip thresholds.  ``None`` disables that side of the interlock.
    description:
        Message used when the interlock trips.
    grace_hours:
        How long the violation must persist before the plant trips.  A small
        grace period avoids spurious trips caused by measurement noise.
    """

    quantity: str
    low: Optional[float] = None
    high: Optional[float] = None
    description: str = ""
    grace_hours: float = 0.0

    def __post_init__(self) -> None:
        if self.low is None and self.high is None:
            raise ConfigurationError(
                f"safety limit on {self.quantity!r} needs a low or high threshold"
            )
        if self.low is not None and self.high is not None and self.low >= self.high:
            raise ConfigurationError(
                f"safety limit on {self.quantity!r}: low must be below high"
            )
        if self.grace_hours < 0:
            raise ConfigurationError("grace_hours must be >= 0")

    def violated_by(self, value: float) -> bool:
        """Whether ``value`` violates this limit."""
        if self.low is not None and value < self.low:
            return True
        if self.high is not None and value > self.high:
            return True
        return False


class SafetyMonitor:
    """Evaluates safety limits over time and trips the plant when needed.

    Parameters
    ----------
    limits:
        The interlocks to enforce.
    enabled:
        When ``False`` the monitor records violations but never raises, which
        lets experiments run past the physical shutdown point if desired.
    """

    def __init__(self, limits: Iterable[SafetyLimit], enabled: bool = True):
        self._limits: List[SafetyLimit] = list(limits)
        self._violation_start: Dict[str, float] = {}
        self.enabled = bool(enabled)
        self.tripped: Optional[Tuple[float, str]] = None

    @property
    def limits(self) -> Tuple[SafetyLimit, ...]:
        """The configured interlocks."""
        return tuple(self._limits)

    def reset(self) -> None:
        """Clear violation history and any recorded trip."""
        self._violation_start.clear()
        self.tripped = None

    def check(self, time_hours: float, quantities: Dict[str, float]) -> None:
        """Evaluate all limits against the current ``quantities``.

        Raises
        ------
        ProcessShutdown
            If a limit has been violated for longer than its grace period and
            the monitor is enabled.
        """
        for limit in self._limits:
            if limit.quantity not in quantities:
                continue
            value = float(quantities[limit.quantity])
            key = limit.quantity
            if limit.violated_by(value):
                start = self._violation_start.setdefault(key, time_hours)
                if time_hours - start >= limit.grace_hours:
                    reason = (
                        limit.description
                        or f"{limit.quantity} = {value:.4g} outside "
                        f"[{limit.low}, {limit.high}]"
                    )
                    self.tripped = (time_hours, reason)
                    if self.enabled:
                        raise ProcessShutdown(time_hours, reason)
            else:
                self._violation_start.pop(key, None)


class BatchSafetyMonitor:
    """Row-wise safety interlocks for ``B`` lockstep runs.

    Applies the same limits, grace periods and first-limit-wins trip
    ordering as :class:`SafetyMonitor`, but over ``(B,)`` quantity arrays:
    :meth:`check` returns the rows that tripped this step (with the reason
    the serial monitor would have raised) instead of raising, so the batch
    simulator can freeze those rows while the rest continue.  All limits
    are compared at once, as one ``(n_limits, B)`` stack against low, high
    and grace vectors.

    Parameters
    ----------
    limits:
        The interlocks to enforce (same objects as the serial monitor).
    n_rows:
        Number of runs in the batch.
    enabled:
        When ``False`` violations are tracked but no row ever trips,
        mirroring a disabled :class:`SafetyMonitor`.
    layout:
        The quantity names of the rows of the ``(n, B)`` stacks
        :meth:`check` may be handed instead of a mapping; every limit's
        quantity must be one of them.
    """

    def __init__(
        self,
        limits: Iterable[SafetyLimit],
        n_rows: int,
        enabled: bool = True,
        layout: Sequence[str] = (),
    ):
        self._limits: List[SafetyLimit] = list(limits)
        self._n_rows = int(n_rows)
        self.enabled = bool(enabled)
        #: Whether the last :meth:`check` tripped any row.
        self.any_tripped = False
        layout = list(layout)
        unknown = {limit.quantity for limit in self._limits} - set(layout)
        if layout and unknown:
            raise ConfigurationError(
                f"safety limits on {sorted(unknown)} outside the layout {layout}"
            )
        #: Per limit, the row of its quantity in a ``layout`` stack.
        self._layout_rows = np.array(
            [layout.index(limit.quantity) for limit in self._limits] if layout else [],
            dtype=np.intp,
        )
        # Violation starts are keyed by quantity — shared between limits on
        # the same quantity — exactly like the serial monitor's start
        # dictionary: one row per distinct quantity, NaN while not violated.
        self._quantities: List[str] = list(
            dict.fromkeys(limit.quantity for limit in self._limits)
        )
        group = [self._quantities.index(limit.quantity) for limit in self._limits]
        n_limits = len(group)
        shared = len(self._quantities) < n_limits
        # Per limit, the row of its quantity; per quantity, its last limit.
        # With one limit per quantity both maps are the identity: a slice.
        self._group = np.array(group, dtype=np.intp) if shared else slice(None)
        self._last = (
            np.array(
                [max(j for j, g in enumerate(group) if g == q)
                 for q in range(len(self._quantities))],
                dtype=np.intp,
            )
            if shared
            else slice(None)
        )
        #: ``earlier[j, i]``: limit ``i`` precedes limit ``j`` on its quantity.
        self._earlier = (
            np.array(
                [[i < j and group[i] == group[j] for i in range(n_limits)]
                 for j in range(n_limits)]
            )
            if shared
            else None
        )
        self._lows = np.array(
            [-np.inf if limit.low is None else limit.low for limit in self._limits]
        )[:, None]
        self._highs = np.array(
            [np.inf if limit.high is None else limit.high for limit in self._limits]
        )[:, None]
        self._grace = np.array([limit.grace_hours for limit in self._limits])[:, None]
        self._start = np.full((len(self._quantities), self._n_rows), np.nan)
        #: Every violation start is NaN (no violation is pending).
        self._quiet = True
        self._bind()

    def _bind(self) -> None:
        """Build the check of the batch width: the limits' bounds repeated to
        it (a call whose operands share one shape skips NumPy's broadcasting
        set-up), the buffers of the comparison and the quiet result, bound
        with the ufuncs as locals of ``_compare`` (the comparison) and
        ``_check_stack`` (a whole check of a ``layout`` stack)."""
        shape = (len(self._limits), self._n_rows)
        low = np.repeat(self._lows, self._n_rows, axis=1)
        high = np.repeat(self._highs, self._n_rows, axis=1)
        values = self._values = np.empty(shape)
        below, above, violated = np.empty((3, *shape), dtype=bool)
        # What a check with nothing violated or pending returns: shared, so
        # read it, never write into it.
        no_trips = np.zeros(self._n_rows, dtype=bool)
        no_trips.flags.writeable = False
        quiet_result = (no_trips, [None] * self._n_rows)
        layout_rows, evaluate = self._layout_rows, self._evaluate
        less, greater, logical_or, count_nonzero = (
            np.less, np.greater, np.logical_or, np.count_nonzero
        )

        def compare() -> np.ndarray:
            less(values, low, below)
            greater(values, high, above)
            return logical_or(below, above, violated)

        def check_stack(
            time_hours: float, quantities: np.ndarray
        ) -> Tuple[np.ndarray, List[Optional[str]]]:
            # ``"wrap"`` gathers straight into the buffer (every row is in
            # range, so it changes no value).
            quantities.take(layout_rows, 0, values, "wrap")
            compare()
            if self._quiet and not count_nonzero(violated):
                # Nothing violated and no violation pending: the full
                # evaluation would leave every start NaN and trip nothing.
                self.any_tripped = False
                return quiet_result
            return evaluate(time_hours, values, violated, [])

        self._compare, self._check_stack = compare, check_stack

    def check(
        self,
        time_hours: float,
        quantities: Union[Mapping[str, np.ndarray], np.ndarray],
    ) -> Tuple[np.ndarray, List[Optional[str]]]:
        """Evaluate all limits against per-row ``(B,)`` quantity arrays.

        ``quantities`` maps quantity names to the arrays, or is an ``(n,
        B)`` stack of them in the monitor's ``layout`` order.  Returns
        ``(tripped, reasons)``: a boolean row mask and, for each tripped
        row, the description the serial monitor's
        :class:`~repro.common.exceptions.ProcessShutdown` would carry;
        :attr:`any_tripped` tells whether the mask holds a row.  Limits are
        evaluated in list order and the first limit to trip a row supplies
        its reason, exactly like the serial raise.  A quantity missing from
        a mapping is skipped and keeps its violation starts, like the serial
        monitor.  A check that trips nothing may return a shared result:
        read it, never write into it.
        """
        if not self._limits:
            self.any_tripped = False
            return np.zeros(self._n_rows, dtype=bool), [None] * self._n_rows
        if isinstance(quantities, np.ndarray):
            return self._check_stack(time_hours, quantities)
        rows = [quantities.get(quantity) for quantity in self._quantities]
        missing = [row is None for row in rows]
        if any(missing):
            # NaN violates no limit; the starts are restored below.
            rows = [np.full(self._n_rows, np.nan) if row is None else row for row in rows]
        self._values[...] = np.array(rows, dtype=float)[self._group]
        violated = self._compare()
        if self._quiet and not np.count_nonzero(violated):
            self.any_tripped = False
            return np.zeros(self._n_rows, dtype=bool), [None] * self._n_rows
        return self._evaluate(time_hours, self._values, violated, missing)

    def _evaluate(
        self,
        time_hours: float,
        values: np.ndarray,
        violated: np.ndarray,
        missing: List[bool],
    ) -> Tuple[np.ndarray, List[Optional[str]]]:
        """The full evaluation of a step with a violation or a pending one:
        the violation starts move, and rows past a grace period trip."""
        self.any_tripped = False
        tripped = np.zeros(self._n_rows, dtype=bool)
        reasons: List[Optional[str]] = [None] * self._n_rows
        start = self._start[self._group]
        if self._earlier is not None:
            # A limit that is not violated clears its quantity's start before
            # the later limits on that quantity are evaluated.
            start = np.where(self._earlier @ ~violated, np.nan, start)
        start = np.where(np.isnan(start), time_hours, start)
        kept = np.where(violated, start, np.nan)[self._last]
        if any(missing):
            kept[missing] = self._start[missing]
        self._start = kept
        self._quiet = bool(np.isnan(kept).all())

        if self.enabled:
            trips = violated & (time_hours - start >= self._grace)
            if trips.any():
                self.any_tripped = True
                tripped = trips.any(axis=0)
                first = trips.argmax(axis=0)
                for row in np.flatnonzero(tripped):
                    limit = self._limits[first[row]]
                    reasons[row] = (
                        limit.description
                        or f"{limit.quantity} = {float(values[first[row], row]):.4g} "
                        f"outside [{limit.low}, {limit.high}]"
                    )
        return tripped, reasons

    def take(self, indices: np.ndarray) -> None:
        """Keep only the given rows (compaction after trips / early stops)."""
        self._start = self._start[:, indices]
        self._n_rows = int(np.asarray(indices).size)
        self._quiet = bool(np.isnan(self._start).all())
        self._bind()

    def snapshot_row(self, row: int) -> np.ndarray:
        """Row ``row``'s violation starts, one per quantity (NaN: none
        pending), copied."""
        return self._start[:, row].copy()

    def restore_row(self, row: int, starts: np.ndarray) -> None:
        """Give row ``row`` the violation starts of :meth:`snapshot_row`, so
        a violation pending there keeps its start."""
        self._start[:, row] = starts
        self._quiet = bool(np.isnan(self._start).all())
