"""Batched decentralized TE control: ``B`` regulatory layers in lockstep.

:class:`BatchDecentralizedController` vectorizes
:class:`~repro.control.te_controller.TEDecentralizedController` across runs
*and* loops: the PI integrals form one ``(B, L)`` matrix (``L`` loops), the
loop tuning becomes ``(L,)`` vectors, and one :meth:`update` call gathers
every loop's measurement, computes every command and scatters them into the
``(B, 12)`` command matrix with a fixed handful of ufunc calls, whatever the
batch width.  Every elementwise expression keeps the serial PID's operand
order — the same discipline as :mod:`repro.te.batch` — so row ``i`` of the
batched command matrix is bitwise-identical to the serial controller fed row
``i``'s measurements.

Only the configuration space the serial campaign controller actually uses is
supported: PI loops (no derivative action) with a positive update interval.

Gains are shared by every row until :meth:`BatchDecentralizedController.\
fallback_row` gives one row its own: the gain vectors then become ``(B, L)``
matrices, and the fallen-back row restarts from a fresh controller state, as
a newly built serial controller would.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.common.exceptions import ConfigurationError
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

        self._setpoint = vector(d.setpoint for d in definitions)
        self._direction = vector(d.direction for d in definitions)
        # ``(L,)`` while every row shares the template's gains, ``(B, L)``
        # once a row falls back to its own (see :meth:`fallback_row`).
        self._kc = vector(d.kc for d in definitions)
        self._ti = vector(d.ti_hours for d in definitions)
        # The serial PID's increment is ``kc / ti * error * dt``, evaluated
        # left to right, so ``kc / ti`` is one constant per loop.
        self._kc_over_ti = vector(d.kc / d.ti_hours for d in definitions)
        self._bias = vector(d.output_bias for d in definitions)
        self._xmeas_columns = np.array(
            [d.xmeas_index - 1 for d in definitions], dtype=np.intp
        )
        self._xmv_columns = np.array([d.xmv_index - 1 for d in definitions], dtype=np.intp)

        # Override signals are handled as (B, 2) pairs: pressure, then level.
        self.pressure_override_start_kpa = template.pressure_override_start_kpa
        self.pressure_override_gain = template.pressure_override_gain
        self.level_override_start_percent = template.level_override_start_percent
        self.level_override_gain = template.level_override_gain
        self.override_filter_hours = template.override_filter_hours
        self._override_start = vector(
            (self.pressure_override_start_kpa, self.level_override_start_percent)
        )
        self._override_gain = vector(
            (self.pressure_override_gain, self.level_override_gain)
        )
        self._override_floor = vector((0.10, 0.15))
        self._pressure_loops = np.array(
            [i for i, d in enumerate(definitions)
             if d.name in template.PRESSURE_OVERRIDE_LOOPS],
            dtype=np.intp,
        )
        self._level_loops = np.array(
            [i for i, d in enumerate(definitions)
             if d.name in template.LEVEL_OVERRIDE_LOOPS],
            dtype=np.intp,
        )

        constant_xmv = dict(template._constant_xmv)
        self._constant_columns = np.array(
            [index - 1 for index in constant_xmv], dtype=np.intp
        )
        self._constant_values = vector(constant_xmv.values())
        # A fresh row's output: nominal valve positions, constants held.
        self._initial_output = np.array(template._output, dtype=float, copy=True)
        self._initial_output[self._constant_columns] = self._constant_values
        self._n_rows = int(n_rows)
        self.reset()

    @property
    def n_rows(self) -> int:
        """Number of runs in the batch."""
        return self._n_rows

    def reset(self) -> None:
        """Clear every row's controller memory."""
        self._integral = np.zeros((self._n_rows, self._setpoint.size))
        self._output = np.tile(self._initial_output, (self._n_rows, 1))
        self._filtered = np.zeros((self._n_rows, 2))
        self._filters_initialized = False
        # Rows whose override filter restarts at the next update (a
        # ``(B,)`` mask), or ``None`` when no row has fallen back.
        self._unfiltered: Optional[np.ndarray] = None

    def take(self, indices: np.ndarray) -> None:
        """Keep only the given rows (compaction after trips / early stops)."""
        self._integral = self._integral[indices]
        self._output = self._output[indices]
        self._filtered = self._filtered[indices]
        if self._kc.ndim == 2:
            self._kc = self._kc[indices]
            self._kc_over_ti = self._kc_over_ti[indices]
        if self._unfiltered is not None:
            self._unfiltered = self._unfiltered[indices]
        self._n_rows = int(np.asarray(indices).size)

    def fallback_row(self, row: int, kc: Sequence[float]) -> None:
        """Give row ``row`` its own loop gains and a fresh controller state.

        ``kc`` holds one proportional gain per loop, in loop order.  The
        row's integrals restart at zero, its output at the nominal valve
        positions, and its override filter from the next measurement — so
        from the next :meth:`update` on the row matches a serial controller
        newly built with those gains, bit for bit.  The other rows keep
        their gains and state.
        """
        kc = np.asarray(kc, dtype=float)
        if kc.shape != self._ti.shape:
            raise ConfigurationError(
                f"expected {self._ti.size} loop gains, got shape {kc.shape}"
            )
        if self._kc.ndim == 1:
            self._kc = np.tile(self._kc, (self._n_rows, 1))
            self._kc_over_ti = np.tile(self._kc_over_ti, (self._n_rows, 1))
        self._kc[row] = kc
        self._kc_over_ti[row] = kc / self._ti
        self._integral[row] = 0.0
        self._output[row] = self._initial_output
        self._filtered[row] = 0.0
        if self._unfiltered is None:
            self._unfiltered = np.zeros(self._n_rows, dtype=bool)
        self._unfiltered[row] = True

    def _setpoints(self) -> np.ndarray:
        """Per-loop setpoints: ``(L,)``, or ``(B, L)`` while an override acts.

        Mirrors the serial override: a factor below one scales the nominal
        setpoint of its loops, and the level override wins on a loop that
        both overrides act on.
        """
        high = self._filtered > self._override_start
        if not high.any():
            return self._setpoint
        factor = np.where(
            high,
            np.maximum(
                self._override_floor,
                1.0 - self._override_gain * (self._filtered - self._override_start),
            ),
            1.0,
        )
        setpoint = self._setpoint[None, :].repeat(self._n_rows, axis=0)
        for loops, column in ((self._pressure_loops, 0), (self._level_loops, 1)):
            scale = factor[:, column, None]
            setpoint[:, loops] = np.where(
                scale < 1.0, self._setpoint[loops] * scale, setpoint[:, loops]
            )
        return setpoint

    def update(self, measurements: np.ndarray, dt_hours: float) -> np.ndarray:
        """Per-row commands, ``(B, 12)``, for per-row measurements ``(B, 41)``."""
        measurements = np.asarray(measurements, dtype=float)
        if measurements.shape != (self._n_rows, N_XMEAS):
            raise ConfigurationError(
                f"expected a ({self._n_rows}, {N_XMEAS}) measurement matrix, "
                f"got {measurements.shape}"
            )
        if dt_hours <= 0:
            return self._output.copy()

        signals = measurements[:, _OVERRIDE_COLUMNS]
        if not self._filters_initialized or self.override_filter_hours <= 0:
            self._filtered = signals.copy()
        else:
            alpha = min(dt_hours / self.override_filter_hours, 1.0)
            self._filtered = self._filtered + alpha * (signals - self._filtered)
            if self._unfiltered is not None:
                self._filtered[self._unfiltered] = signals[self._unfiltered]
        self._filters_initialized = True
        self._unfiltered = None

        error = self._direction * (
            self._setpoints() - measurements[:, self._xmeas_columns]
        )
        proportional = self._kc * error
        increment = self._kc_over_ti * error * dt_hours
        # The serial PID adds a literal-zero derivative term; mirror it so a
        # -0.0 partial sum normalizes identically.
        unclamped = self._bias + proportional + self._integral + increment + 0.0
        value = np.minimum(np.maximum(unclamped, 0.0), 100.0)

        # Anti-windup: accumulate only where it does not deepen saturation.
        accumulate = (
            (value == unclamped)
            | ((unclamped > value) & (increment < 0))
            | ((unclamped < value) & (increment > 0))
        )
        self._integral = np.where(
            accumulate, self._integral + increment, self._integral
        )

        output = self._output.copy()
        output[:, self._xmv_columns] = value
        output[:, self._constant_columns] = self._constant_values
        self._output = output
        return output.copy()

    @property
    def output_names(self):
        return tuple(f"XMV({i})" for i in range(1, N_XMV + 1))
