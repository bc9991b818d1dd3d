"""Process-disturbance specification and scheduling.

The Tennessee-Eastman model defines 20 process disturbances, IDV(1)–IDV(20).
A :class:`DisturbanceSpec` describes one of them; a
:class:`DisturbanceSchedule` decides which disturbances are active at a given
simulation time.  Disturbances are *natural* causes of anomalies, as opposed
to the attacks implemented in :mod:`repro.network.attacks`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.exceptions import ConfigurationError

__all__ = ["DisturbanceSpec", "DisturbanceSchedule", "BatchIdv", "BatchDisturbanceView"]


@dataclass(frozen=True)
class DisturbanceSpec:
    """Description of a single process disturbance.

    Attributes
    ----------
    index:
        1-based disturbance number, e.g. ``6`` for IDV(6).
    name:
        Canonical name, e.g. ``"IDV(6)"``.
    description:
        What the disturbance physically does.
    kind:
        ``"step"`` for persistent step changes, ``"random"`` for random
        variation disturbances, ``"drift"`` for slow drifts, ``"sticking"``
        for valve-sticking faults and ``"unknown"`` for the unspecified ones.
    """

    index: int
    name: str
    description: str
    kind: str = "step"

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ConfigurationError("disturbance index must be >= 1")
        if self.kind not in ("step", "random", "drift", "sticking", "unknown"):
            raise ConfigurationError(f"unknown disturbance kind {self.kind!r}")


@dataclass
class _ScheduledDisturbance:
    """A disturbance activation window."""

    index: int
    start_hour: float
    end_hour: Optional[float] = None
    magnitude: float = 1.0


class DisturbanceSchedule:
    """Maps simulation time to the set of active disturbances.

    Disturbance activations are half-open intervals ``[start, end)``; an
    ``end`` of ``None`` means the disturbance persists to the end of the run
    (this is how the paper activates IDV(6) at hour 10).
    """

    def __init__(self, n_disturbances: int = 20):
        if n_disturbances < 1:
            raise ConfigurationError("n_disturbances must be >= 1")
        self._n = int(n_disturbances)
        self._entries: List[_ScheduledDisturbance] = []

    @property
    def n_disturbances(self) -> int:
        """Size of the disturbance vector."""
        return self._n

    @property
    def entries(self) -> Tuple[_ScheduledDisturbance, ...]:
        """All scheduled activations."""
        return tuple(self._entries)

    def add(
        self,
        index: int,
        start_hour: float,
        end_hour: Optional[float] = None,
        magnitude: float = 1.0,
    ) -> "DisturbanceSchedule":
        """Schedule disturbance ``IDV(index)`` to activate at ``start_hour``.

        Returns ``self`` so calls can be chained.
        """
        if not 1 <= index <= self._n:
            raise ConfigurationError(
                f"disturbance index must be in [1, {self._n}], got {index}"
            )
        if start_hour < 0:
            raise ConfigurationError("start_hour must be >= 0")
        if end_hour is not None and end_hour <= start_hour:
            raise ConfigurationError("end_hour must be greater than start_hour")
        self._entries.append(
            _ScheduledDisturbance(int(index), float(start_hour), end_hour, float(magnitude))
        )
        return self

    def active_at(self, time_hours: float) -> Dict[int, float]:
        """Return ``{index: magnitude}`` of disturbances active at ``time_hours``."""
        active: Dict[int, float] = {}
        for entry in self._entries:
            if time_hours < entry.start_hour:
                continue
            if entry.end_hour is not None and time_hours >= entry.end_hour:
                continue
            active[entry.index] = max(active.get(entry.index, 0.0), entry.magnitude)
        return active

    def vector_at(self, time_hours: float) -> List[float]:
        """Return the full IDV vector (length ``n_disturbances``) at ``time_hours``."""
        vector = [0.0] * self._n
        for index, magnitude in self.active_at(time_hours).items():
            vector[index - 1] = magnitude
        return vector

    def is_empty(self) -> bool:
        """Whether no disturbance has been scheduled."""
        return not self._entries

    @classmethod
    def none(cls, n_disturbances: int = 20) -> "DisturbanceSchedule":
        """An empty schedule (normal operation)."""
        return cls(n_disturbances)

    @classmethod
    def single(
        cls,
        index: int,
        start_hour: float,
        end_hour: Optional[float] = None,
        magnitude: float = 1.0,
        n_disturbances: int = 20,
    ) -> "DisturbanceSchedule":
        """A schedule with exactly one activation (the common case)."""
        return cls(n_disturbances).add(index, start_hour, end_hour, magnitude)


class BatchIdv:
    """The IDV activations of ``B`` lockstep runs at one instant.

    A thin wrapper over a ``(B, n_disturbances + 1)`` magnitude matrix
    (column 0 unused; IDV indices are 1-based) mirroring the semantics of
    the per-run ``{index: magnitude}`` dictionaries: an index is *active*
    exactly when its magnitude is non-zero, matching the truthiness tests
    the serial plant applies to ``active_at`` dictionaries.

    ``scheduled`` holds every index that has an open window on some row (a
    superset of the active ones: a zero magnitude is scheduled but not
    active), or ``None`` when unknown.  The batched plant skips the masked
    branch of an IDV when :meth:`may_be_active` rules it out on every row.
    """

    def __init__(self, magnitudes: np.ndarray, scheduled: Optional[frozenset] = None):
        self._magnitudes = magnitudes
        #: The indices that may be active on some row: ``index in
        #: possible`` is :meth:`may_be_active` without a call.
        self.possible = (
            frozenset(range(magnitudes.shape[1])) if scheduled is None else scheduled
        )

    @property
    def n_rows(self) -> int:
        """Number of runs in the batch."""
        return self._magnitudes.shape[0]

    def may_be_active(self, index: int) -> bool:
        """Whether IDV(``index``) can be active on any row at this instant."""
        return index in self.possible

    def value(self, index: int) -> np.ndarray:
        """Per-row magnitude of IDV(``index``), ``(B,)`` (0 when inactive)."""
        return self._magnitudes[:, index]

    def active(self, index: int) -> np.ndarray:
        """Per-row activity of IDV(``index``), ``(B,)`` booleans."""
        return self._magnitudes[:, index] != 0.0

    @classmethod
    def none(cls, n_rows: int, n_disturbances: int = 20) -> "BatchIdv":
        """No disturbance active on any row."""
        return cls(np.zeros((n_rows, n_disturbances + 1)), frozenset())


class BatchDisturbanceView:
    """Evaluates ``B`` per-run schedules at one lockstep time, vectorized.

    All activation windows of all rows are flattened into parallel arrays
    once at construction, so evaluating them is a handful of array
    comparisons regardless of the batch size — the batched counterpart of
    calling :meth:`DisturbanceSchedule.active_at` per run.  The activations
    change only at a window's start or end, so :meth:`at` evaluates them
    only when the clock leaves the span between two such edges, and hands
    out the same :class:`BatchIdv` until then.
    """

    def __init__(self, schedules: Sequence[DisturbanceSchedule]):
        self._n_rows = len(schedules)
        self._n = max((s.n_disturbances for s in schedules), default=20)
        rows: List[int] = []
        indices: List[int] = []
        starts: List[float] = []
        ends: List[float] = []
        magnitudes: List[float] = []
        for row, schedule in enumerate(schedules):
            for entry in schedule.entries:
                rows.append(row)
                indices.append(entry.index)
                starts.append(entry.start_hour)
                ends.append(np.inf if entry.end_hour is None else entry.end_hour)
                magnitudes.append(entry.magnitude)
        self._rows = np.array(rows, dtype=np.intp)
        self._indices = np.array(indices, dtype=np.intp)
        self._starts = np.array(starts)
        self._ends = np.array(ends)
        self._magnitudes = np.array(magnitudes)
        #: Every window start and finite end, ascending.
        self._edges = sorted({*starts, *(end for end in ends if end != np.inf)})
        self._forget()

    def _forget(self) -> None:
        """Drop the last evaluation and the all-quiet :class:`BatchIdv`."""
        self._quiet: Optional[BatchIdv] = None
        self._current: Optional[BatchIdv] = None
        # The last evaluation holds for times in [_valid_from, _valid_until).
        self._valid_from, self._valid_until = np.inf, -np.inf

    @property
    def n_rows(self) -> int:
        """Number of runs in the batch."""
        return self._n_rows

    def is_empty(self) -> bool:
        """Whether no row schedules any disturbance."""
        return self._rows.size == 0

    def idle_through(self, time_hours: float) -> bool:
        """Whether no row's window opens at or before ``time_hours``."""
        return not (self._starts <= time_hours).any()

    def at(self, time_hours: float) -> BatchIdv:
        """The batch's IDV magnitudes at ``time_hours``.

        Duplicate activations of one index on one row combine through
        ``max``, exactly like :meth:`DisturbanceSchedule.active_at`.  The
        result is shared with later calls that fall between the same two
        window edges: read it, never write into it.
        """
        if not self._valid_from <= time_hours < self._valid_until:
            edges = self._edges
            position = bisect_right(edges, time_hours)
            self._valid_from = edges[position - 1] if position else -np.inf
            self._valid_until = edges[position] if position < len(edges) else np.inf
            self._current = self._evaluate(time_hours)
        return self._current

    def _evaluate(self, time_hours: float) -> BatchIdv:
        if self._rows.size:
            active = (time_hours >= self._starts) & (time_hours < self._ends)
            if active.any():
                magnitudes = np.zeros((self._n_rows, self._n + 1))
                indices = self._indices[active]
                np.maximum.at(
                    magnitudes, (self._rows[active], indices), self._magnitudes[active]
                )
                return BatchIdv(magnitudes, frozenset(indices.tolist()))
        if self._quiet is None:
            self._quiet = BatchIdv.none(self._n_rows, self._n)
        return self._quiet

    def take(self, indices: np.ndarray) -> None:
        """Keep only the given rows (compaction after trips / early stops)."""
        indices = np.asarray(indices)
        remap = np.full(self._n_rows, -1, dtype=np.intp)
        remap[indices] = np.arange(indices.size)
        keep = remap[self._rows] >= 0
        self._rows = remap[self._rows[keep]]
        self._indices = self._indices[keep]
        self._starts = self._starts[keep]
        self._ends = self._ends[keep]
        self._magnitudes = self._magnitudes[keep]
        self._n_rows = int(indices.size)
        self._forget()
