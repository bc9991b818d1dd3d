"""Batched decentralized TE control: ``B`` regulatory layers in lockstep.

:class:`BatchDecentralizedController` vectorizes
:class:`~repro.control.te_controller.TEDecentralizedController` across runs
*and* loops: the PI integrals and gains form ``(B, L)`` matrices (``L``
loops), the shared loop tuning is repeated to the same shape, and one
:meth:`update` call gathers every loop's measurement, computes every command
and gathers the ``(B, 12)`` command matrix from the loop outputs and the
constant valve positions with a fixed handful of ufunc calls, whatever the
batch width.  Every elementwise expression keeps the serial PID's operand
order — the same discipline as :mod:`repro.te.batch` — so row ``i`` of the
batched command matrix is bitwise-identical to the serial controller fed row
``i``'s measurements.

Only the configuration space the serial campaign controller actually uses is
supported: PI loops (no derivative action) with a positive update interval.

Every row starts from the template's gains; :meth:`BatchDecentralizedController.\
fallback_row` gives one row its own, and the fallen-back row restarts from a
fresh controller state, as a newly built serial controller would.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.common.operands import f64
from repro.control.te_controller import TEDecentralizedController
from repro.te.constants import N_XMEAS, N_XMV

__all__ = ["BatchDecentralizedController"]

#: Measurement columns of the override signals: reactor pressure XMEAS(7)
#: and reactor level XMEAS(8).
_OVERRIDE_COLUMNS = slice(6, 8)


class BatchDecentralizedController:
    """Row-wise mirror of a :class:`TEDecentralizedController`.

    Parameters
    ----------
    template:
        The serial controller whose loop set, override tuning and constant
        valve positions every row replicates.  The template itself is left
        untouched.
    n_rows:
        Number of runs in the batch.
    """

    def __init__(self, template: Optional[TEDecentralizedController], n_rows: int):
        template = template or TEDecentralizedController()
        definitions = [loop.definition for loop in template.loops]
        for loop in template.loops:
            if loop.definition.ti_hours is None or loop.definition.ti_hours <= 0:
                raise ConfigurationError(
                    "the batched controller supports PI loops only "
                    f"(loop {loop.name!r} has no integral time)"
                )
            if loop.controller.gains.td_hours:
                raise ConfigurationError(
                    "the batched controller supports PI loops only "
                    f"(loop {loop.name!r} has derivative action)"
                )

        def vector(values) -> np.ndarray:
            return np.array(list(values), dtype=float)

        n_loops = len(definitions)
        self._ti = vector(d.ti_hours for d in definitions)
        self._xmeas_columns = np.array(
            [d.xmeas_index - 1 for d in definitions], dtype=np.intp
        )
        # The serial PID's increment is ``kc / ti * error * dt``, evaluated
        # left to right, so ``kc / ti`` is one constant per loop.  The gains
        # are ``(B, L)``: :meth:`fallback_row` gives a row its own.
        self._kc = np.tile(vector(d.kc for d in definitions), (n_rows, 1))
        self._kc_over_ti = np.tile(
            vector(d.kc / d.ti_hours for d in definitions), (n_rows, 1)
        )

        # Override signals are handled as (B, 2) pairs: pressure, then level.
        self.pressure_override_start_kpa = template.pressure_override_start_kpa
        self.pressure_override_gain = template.pressure_override_gain
        self.level_override_start_percent = template.level_override_start_percent
        self.level_override_gain = template.level_override_gain
        self.override_filter_hours = template.override_filter_hours
        # The tuning every row shares, per loop (``(L,)``) or per override
        # signal (``(2,)``).  :meth:`_bind` repeats it to the batch width,
        # because a ufunc call whose operands share one shape skips NumPy's
        # broadcasting set-up.
        self._shared = {
            "setpoint": vector(d.setpoint for d in definitions),
            "direction": vector(d.direction for d in definitions),
            "bias": vector(d.output_bias for d in definitions),
            "override_start": vector(
                (self.pressure_override_start_kpa, self.level_override_start_percent)
            ),
            "override_gain": vector(
                (self.pressure_override_gain, self.level_override_gain)
            ),
            "override_floor": vector((0.10, 0.15)),
        }
        # Per loop, the column of the override factor table (see
        # :meth:`_override_setpoints`) that scales its setpoint: 0 none,
        # 1 pressure, 2 level, 3 both.
        self._factor_columns = np.array(
            [
                (d.name in template.PRESSURE_OVERRIDE_LOOPS)
                + 2 * (d.name in template.LEVEL_OVERRIDE_LOOPS)
                for d in definitions
            ],
            dtype=np.intp,
        )

        constant_xmv = dict(template._constant_xmv)
        constant_columns = [index - 1 for index in constant_xmv]
        self._constant_values = vector(constant_xmv.values())
        # A fresh row's output: nominal valve positions, constants held.
        self._initial_output = np.array(template._output, dtype=float, copy=True)
        self._initial_output[constant_columns] = self._constant_values
        # The command matrix is one gather from ``[loop outputs |
        # constants]``: per XMV column, its loop's output, or its constant
        # (a constant wins over a loop, as the serial controller writes the
        # constants last).
        order = np.empty(N_XMV, dtype=np.intp)
        order[[d.xmv_index - 1 for d in definitions]] = np.arange(n_loops)
        order[constant_columns] = n_loops + np.arange(len(constant_columns))
        self._output_order = order
        self._n_rows = int(n_rows)
        self.reset()

    @property
    def n_rows(self) -> int:
        """Number of runs in the batch."""
        return self._n_rows

    def _bind(self) -> None:
        """Build :meth:`update`'s step for the batch width.

        The shared tuning is repeated to the width (a ufunc call whose
        operands share one shape skips NumPy's broadcasting set-up); the
        loop outputs sit beside the constants in one buffer that the
        command matrix is gathered from; the override factor table holds
        1.0 in column 0; every intermediate gets a buffer.  All of them,
        with the row state (integrals, filtered overrides, gains) and the
        ufuncs, are locals of the closures built here: ``_filter``, the
        override filter's step, and ``_step``, the PI step from the
        filtered signals to the command matrix.
        """
        n_rows, n_loops = self._n_rows, self._ti.size
        wide = self._wide = {
            name: np.tile(constant, (n_rows, 1)) for name, constant in self._shared.items()
        }
        setpoint, direction, bias, override_start = (
            wide[name] for name in ("setpoint", "direction", "bias", "override_start")
        )
        assembly = np.empty((n_rows, n_loops + self._constant_values.size))
        assembly[:, n_loops:] = self._constant_values
        loop_outputs = assembly[:, :n_loops]
        self._factors = np.ones((n_rows, 4))
        measured, error, proportional, increment, unclamped, floored = np.empty(
            (6, n_rows, n_loops)
        )
        accumulate, deeper, easing = np.empty((3, n_rows, n_loops), dtype=bool)
        filter_step = np.empty((n_rows, 2))
        high = np.empty((n_rows, 2), dtype=bool)
        integral, filtered = self._integral, self._filtered
        kc, kc_over_ti = self._kc, self._kc_over_ti
        xmeas_columns, output_order = self._xmeas_columns, self._output_order
        override_setpoints = self._override_setpoints
        zero, hundred = f64[0.0], f64[100.0]
        add, subtract, multiply = np.add, np.subtract, np.multiply
        maximum, minimum, greater, less = np.maximum, np.minimum, np.greater, np.less
        equal, bitwise_and, bitwise_or = np.equal, np.bitwise_and, np.bitwise_or
        count_nonzero = np.count_nonzero

        def filter_signals(signals: np.ndarray, alpha: np.ndarray) -> None:
            # previous + alpha * (signal - previous)
            subtract(signals, filtered, filter_step)
            multiply(filter_step, alpha, filter_step)
            add(filter_step, filtered, filtered)

        def step(measurements: np.ndarray, dt: np.ndarray) -> np.ndarray:
            greater(filtered, override_start, high)
            goal = override_setpoints(high) if count_nonzero(high) else setpoint
            # ``"wrap"`` gathers straight into the buffer (every column is in
            # range, so it changes no value).
            measurements.take(xmeas_columns, 1, measured, "wrap")
            subtract(goal, measured, error)
            multiply(error, direction, error)
            multiply(kc, error, proportional)
            multiply(kc_over_ti, error, increment)
            multiply(increment, dt, increment)
            # The serial PID adds a literal-zero derivative term; mirror it
            # so a -0.0 partial sum normalizes identically.
            add(bias, proportional, unclamped)
            add(unclamped, integral, unclamped)
            add(unclamped, increment, unclamped)
            add(unclamped, zero, unclamped)
            maximum(unclamped, zero, out=floored)
            minimum(floored, hundred, out=loop_outputs)
            # Anti-windup: accumulate only where it does not deepen
            # saturation.
            equal(loop_outputs, unclamped, accumulate)
            greater(unclamped, loop_outputs, deeper)
            less(increment, zero, easing)
            bitwise_and(deeper, easing, deeper)
            bitwise_or(accumulate, deeper, accumulate)
            less(unclamped, loop_outputs, deeper)
            greater(increment, zero, easing)
            bitwise_and(deeper, easing, deeper)
            bitwise_or(accumulate, deeper, accumulate)
            add(integral, increment, out=integral, where=accumulate)
            return assembly.take(output_order, 1)

        self._filter, self._step = filter_signals, step

    def reset(self) -> None:
        """Clear every row's controller memory."""
        self._integral = np.zeros((self._n_rows, self._ti.size))
        self._output = np.tile(self._initial_output, (self._n_rows, 1))
        self._filtered = np.zeros((self._n_rows, 2))
        self._filters_initialized = False
        # Rows whose override filter restarts at the next update (a
        # ``(B,)`` mask), or ``None`` when none does.
        self._unfiltered: Optional[np.ndarray] = None
        self._bind()

    def take(self, indices: np.ndarray) -> None:
        """Keep only the given rows (compaction after trips / early stops)."""
        self._integral = self._integral[indices]
        self._output = self._output[indices]
        self._filtered = self._filtered[indices]
        self._kc = self._kc[indices]
        self._kc_over_ti = self._kc_over_ti[indices]
        if self._unfiltered is not None:
            self._unfiltered = self._unfiltered[indices]
        self._n_rows = int(np.asarray(indices).size)
        self._bind()

    def fallback_row(self, row: int, kc: Sequence[float]) -> None:
        """Give row ``row`` its own loop gains and a fresh controller state.

        ``kc`` holds one proportional gain per loop, in loop order.  The
        row's integrals restart at zero, its output at the nominal valve
        positions, and its override filter from the next measurement — so
        from the next :meth:`update` on the row matches a serial controller
        newly built with those gains, bit for bit.  The other rows keep
        their gains and state.  A command matrix :meth:`update` returned
        earlier is left as it was.
        """
        kc = np.asarray(kc, dtype=float)
        if kc.shape != self._ti.shape:
            raise ConfigurationError(
                f"expected {self._ti.size} loop gains, got shape {kc.shape}"
            )
        self._kc[row] = kc
        self._kc_over_ti[row] = kc / self._ti
        self._integral[row] = 0.0
        # update() hands out the stored matrix itself: write into a copy.
        self._output = self._output.copy()
        self._output[row] = self._initial_output
        self._filtered[row] = 0.0
        if self._unfiltered is None:
            self._unfiltered = np.zeros(self._n_rows, dtype=bool)
        self._unfiltered[row] = True

    def snapshot_row(self, row: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row ``row``'s controller state, copied: its PI integrals, its last
        commands and its filtered override signals (not its gains)."""
        return (
            self._integral[row].copy(),
            self._output[row].copy(),
            self._filtered[row].copy(),
        )

    def restore_rows(
        self, states: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> None:
        """Give row ``i`` the :meth:`snapshot_row` state ``states[i]`` of a
        row with the same gains whose override filter has run.

        From the next :meth:`update` on, every row goes on as its
        snapshotted row would have, bit for bit.
        """
        if len(states) != self._n_rows:
            raise ConfigurationError(
                f"expected {self._n_rows} row states, got {len(states)}"
            )
        integral, output, filtered = (np.array(part) for part in zip(*states))
        self._integral[...] = integral
        self._filtered[...] = filtered
        # update() hands out the stored matrix itself: replace, never write.
        self._output = output
        self._filters_initialized = True
        self._unfiltered = None

    def _override_setpoints(self, high: np.ndarray) -> np.ndarray:
        """Per-loop setpoints while an override acts, ``(B, L)``.

        Mirrors the serial override: a factor below one scales the nominal
        setpoint of its loops, and the level override wins on a loop that
        both overrides act on.  A loop no override acts on is scaled by
        1.0, which changes no bit.
        """
        wide = self._wide
        one = f64[1.0]
        raw = np.maximum(
            wide["override_floor"],
            one - wide["override_gain"] * (self._filtered - wide["override_start"]),
        )
        acting = np.where(high & (raw < one), raw, one)
        factors = self._factors
        factors[:, 1:3] = acting
        factors[:, 3] = np.where(acting[:, 1] < one, acting[:, 1], acting[:, 0])
        return wide["setpoint"] * factors.take(self._factor_columns, axis=1)

    def update(self, measurements: np.ndarray, dt_hours: float) -> np.ndarray:
        """Per-row commands, ``(B, 12)``, for per-row measurements ``(B, 41)``.

        The returned matrix is the controller's own record of its last
        commands: it never writes into it again (a later update builds a new
        one), and neither may the caller.
        """
        measurements = np.asarray(measurements, dtype=float)
        if measurements.shape != (self._n_rows, N_XMEAS):
            raise ConfigurationError(
                f"expected a ({self._n_rows}, {N_XMEAS}) measurement matrix, "
                f"got {measurements.shape}"
            )
        if dt_hours <= 0:
            return self._output
        signals = measurements[:, _OVERRIDE_COLUMNS]
        if not self._filters_initialized or self.override_filter_hours <= 0:
            self._filtered[...] = signals
        else:
            self._filter(signals, f64[min(dt_hours / self.override_filter_hours, 1.0)])
            if self._unfiltered is not None:
                self._filtered[self._unfiltered] = signals[self._unfiltered]
        self._filters_initialized = True
        self._unfiltered = None
        self._output = self._step(measurements, f64[dt_hours])
        return self._output

    @property
    def output_names(self):
        return tuple(f"XMV({i})" for i in range(1, N_XMV + 1))
