"""Batched Tennessee-Eastman plant: advance ``B`` independent runs at once.

:class:`BatchTEPlant` holds the state of ``B`` plants as stacked arrays
(:class:`~repro.te.state.BatchTEState`) and evaluates the flow network,
kinetics, balances and measurement map of :class:`~repro.te.plant.TEPlant`
for every row with one set of ufunc calls per step instead of one Python
interpreter pass per run.  Row ``i`` of a batched run is
**bitwise-identical** to the serial run with the same seed, because every
element sees the serial plant's exact operation sequence and operands: the
same ufuncs in the same order.  The batch code may run several serial
expressions as one call, but only in ways that keep that invariant:

* it stacks rows along a new leading axis (NumPy's elementwise ufuncs give
  the same result for an element whatever the array's shape);
* it reduces only over a trailing contiguous axis, which takes the same
  pairwise summation as the serial 1-D sum;
* it pads a shorter product with ``* 1.0``, which changes no bit;
* it never uses ``@``, ``einsum`` or ``dot``, and never swaps ``.clip``
  for ``minimum``/``maximum`` (they differ on ``-0.0``).

The branches of a disturbance that no row can have active at this step
(see :meth:`~repro.process.disturbances.BatchIdv.may_be_active`) are
skipped: there the serial plant only applies identity operations (``x *
1.0``, ``x + 0.0`` on values that are never ``-0.0``, a ``where`` that keeps
every row), so skipping them changes no bit.

Randomness keeps the serial seed-derivation scheme: each row owns the two
generators a serial :class:`TEPlant` would derive from its seed
(``te-plant/measurement-noise`` and ``te-plant/ambient``).  A generator's
stream does not depend on how its draws are grouped, so each row's draws
are fetched a block at a time into one ``(B, ...)`` buffer per stream, and
the rows, which draw in lockstep, read one slice of it per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.randomness import RandomStream
from repro.process.disturbances import BatchIdv
from repro.te.constants import COMPONENTS, INTERNAL
from repro.te.plant import _HEAVY_MASK, _IDX, _LIGHT_MASK, TEPlant
from repro.te.state import BatchTEState

__all__ = ["BatchTEPlant"]

#: Light (A-C) and heavy (D-H) components, as slices of a component
#: vector (the zeros and ones of ``_LIGHT_MASK`` and ``_HEAVY_MASK``).
_LIGHTS = slice(0, 3)
_HEAVIES = slice(3, len(COMPONENTS))

#: Rows of the flow table's ``(9, B, 8)`` stream stack.
STREAM_ROWS = (
    "feed1",
    "feed2",
    "feed3",
    "feed4",
    "effluent",
    "f10",
    "f11",
    "reactor_in",
    "vapor_fraction",
)
_EFFLUENT, _F10, _F11, _REACTOR_IN, _VAPOR_FRACTION = 4, 5, 6, 7, 8

_CONDENSATION_COOLING_GAIN = float(INTERNAL["condensation_cooling_gain"])
_STRIPPING_STEAM_GAIN = float(INTERNAL["stripping_steam_gain"])
_STEAM_NOMINAL = float(INTERNAL["steam_nominal"])
_REACTOR_TEMP_NOMINAL = float(INTERNAL["reactor_temp_nominal"])
_SEPARATOR_TEMP_NOMINAL = float(INTERNAL["separator_temp_nominal"])
_STRIPPER_TEMP_NOMINAL = float(INTERNAL["stripper_temp_nominal"])
_REACTOR_HEAT_GAIN = float(INTERNAL["reactor_heat_gain"])
_REACTOR_COOLING_GAIN = float(INTERNAL["reactor_cooling_gain"])
_CW_OUTLET_TAU = float(INTERNAL["cw_outlet_tau"])


def _column(*values: float) -> np.ndarray:
    """``values`` as a ``(k, 1)`` column: one row per stacked quantity."""
    return np.array(values, dtype=float)[:, None]


#: The constants of the stacked calls, each with a length-1 row axis
#: (axis 1), which :meth:`BatchTEPlant._fit_width` widens to the batch.
_ROW_CONSTANTS = {
    # Vapour and liquid masks of the reactor's two inventories.
    "reactor_masks": np.array([_LIGHT_MASK, _HEAVY_MASK])[:, None, :],
    # Per inventory row, the mask its balance increment is multiplied by:
    # the reactor's shared change splits into vapour and liquid, the other
    # rows are padded with ``* 1.0``.
    "balance_masks": np.array(
        [_LIGHT_MASK, np.ones(len(COMPONENTS)), _HEAVY_MASK, *np.ones((2, len(COMPONENTS)))]
    )[:, None, :],
    # Ambient random walks of the feed-1 pressure factor, feed-4
    # composition shift and cooling-water inlet shift: step standard
    # deviation, mean reversion of the two shifts (feed 1 uses 0.15) and
    # clip bounds.
    "walk_stds": _column(
        INTERNAL["feed1_pressure_walk_std"],
        INTERNAL["feed4_composition_walk_std"],
        INTERNAL["cw_inlet_walk_std"],
    ),
    "walk_reversion": _column(0.2, 0.3),
    "walk_lower": _column(0.7, -0.06, -4.0),
    "walk_upper": _column(1.3, 0.06, 4.0),
    # Time constants of the recycle flow and the three vessel temperatures
    # (BatchTEState.lags rows 0-3).
    "lag_taus": _column(
        INTERNAL["recycle_tau"],
        INTERNAL["reactor_temp_tau"],
        INTERNAL["separator_temp_tau"],
        INTERNAL["stripper_temp_tau"],
    ),
    # Reactor and condenser cooling water: nominal inlet temperature,
    # nominal vessel-to-inlet driving difference, nominal outlet rise.
    "cw_inlets": _column(
        INTERNAL["reactor_cw_inlet_nominal"], INTERNAL["condenser_cw_inlet_nominal"]
    ),
    "cw_driving": _column(
        float(INTERNAL["reactor_temp_nominal"]) - float(INTERNAL["reactor_cw_inlet_nominal"]),
        float(INTERNAL["separator_temp_nominal"])
        - float(INTERNAL["condenser_cw_inlet_nominal"]),
    ),
    "cw_rise": _column(
        float(INTERNAL["reactor_cw_outlet_nominal"])
        - float(INTERNAL["reactor_cw_inlet_nominal"]),
        float(INTERNAL["separator_cw_outlet_nominal"])
        - float(INTERNAL["condenser_cw_inlet_nominal"]),
    ),
    # Gains of the nine flow readings, in _METERED_COLUMNS order.
    "metered_gains": _column(
        0.25052, 3664.0, 4509.3, 9.3477, 25.160, 22.949, 42.339, 26.902, 0.33712
    ),
}

#: XMEAS columns of the nine flow readings ``gain * total / nominal``, in
#: the order :meth:`BatchTEPlant.measure` stacks their totals: feeds 1-4,
#: streams 10 and 11, reactor feed, recycle, purge.
_METERED_COLUMNS = np.array([0, 1, 2, 3, 13, 16, 5, 4, 9])
#: XMEAS columns copied from the state: the pressures and levels
#: (:attr:`BatchTEState.quantities`), the five temperatures, the steam flow.
_COPIED_COLUMNS = np.array([6, 12, 7, 11, 14, 8, 10, 17, 20, 21, 18])


class _NoiseBlock:
    """One scaled standard-normal vector per row and step, a block at a time.

    A refill draws ``block`` vectors from each row's own generator, in the
    order that one ``standard_normal(width)`` call per step draws them, into
    a ``(block, B, width)`` buffer, and multiplies them by ``scale`` (the
    serial noise model's ``draw * std``, done per block).  Every row draws
    one vector per noisy measurement, so one shared cursor reads one
    contiguous ``(B, width)`` slice per step.
    """

    def __init__(
        self,
        generators: Sequence[np.random.Generator],
        scale: np.ndarray,
        block: int,
    ):
        self._generators = list(generators)
        self._scale = scale
        self._buffer = np.empty((max(int(block), 1), len(self._generators), len(scale)))
        self._cursor = len(self._buffer)

    def next(self) -> np.ndarray:
        """Every row's next scaled draw, ``(B, width)``."""
        if self._cursor == len(self._buffer):
            shape = (len(self._buffer), len(self._scale))
            for row, generator in enumerate(self._generators):
                self._buffer[:, row] = generator.standard_normal(shape)
            self._buffer *= self._scale
            self._cursor = 0
        draws = self._buffer[self._cursor]
        self._cursor += 1
        return draws

    def take(self, indices: Sequence[int]) -> None:
        """Keep only the given rows."""
        self._generators = [self._generators[i] for i in indices]
        self._buffer = self._buffer[:, indices]


class _WalkBlock:
    """Each row's ambient random-walk draws, fetched a block at a time.

    While every row takes just its three base draws per step, the rows read
    the ``(W, B)`` buffer in lockstep through one shared cursor.  On a step
    where some row takes more (IDV 9, 10 or 13), :meth:`per_row` serves
    each row in its own stream order and leaves every row with the same
    number of buffered draws, so the shared cursor holds again.
    """

    def __init__(self, generators: Sequence[np.random.Generator], block: int):
        self._generators = list(generators)
        self._block = max(int(block), 1)
        self._buffer = np.empty((0, len(self._generators)))
        self._cursor = 0

    def base(self) -> np.ndarray:
        """The three base draws of every row, ``(3, B)``."""
        cursor = self._cursor
        if cursor + 3 > len(self._buffer):
            # Leftover draws come before fresh ones: the stream is linear.
            tail = self._buffer[cursor:]
            fresh = max(self._block, 3 - len(tail))
            self._buffer = np.concatenate(
                (tail, np.array([g.standard_normal(fresh) for g in self._generators]).T)
            )
            cursor = 0
        self._cursor = cursor + 3
        return self._buffer[cursor : cursor + 3]

    def per_row(self, counts: np.ndarray) -> List[np.ndarray]:
        """``counts[i]`` draws of row ``i`` (at least 3), one array per row."""
        tail = self._buffer[self._cursor :]
        buffer = np.empty((self._block, len(self._generators)))
        draws = []
        for row, (generator, count) in enumerate(zip(self._generators, counts)):
            fresh = generator.standard_normal(self._block + int(count) - len(tail))
            values = np.concatenate((tail[:, row], fresh))
            draws.append(values[:count])
            buffer[:, row] = values[count:]
        self._buffer, self._cursor = buffer, 0
        return draws

    def take(self, indices: Sequence[int]) -> None:
        """Keep only the given rows."""
        self._generators = [self._generators[i] for i in indices]
        self._buffer = self._buffer[:, indices]


@dataclass
class _AmbientDraws:
    """One step's ambient random-walk draws for every row.

    ``base`` holds the three base walks, ``(3, B)``.  The IDV(13) kinetics
    walk and the IDV(9)/IDV(10) temperature shocks are ``(B,)`` arrays
    whose inactive rows hold a zero placeholder, or ``None`` on a step
    where no row can have those disturbances active; a placeholder is never
    consumed (the update selects the no-draw branch), so the underlying
    streams advance exactly as the serial plant's would.
    """

    base: np.ndarray
    kinetics: Optional[np.ndarray] = None
    reactor_9: Optional[np.ndarray] = None
    reactor_10: Optional[np.ndarray] = None


def _stream_totals(flows: Dict[str, np.ndarray]) -> np.ndarray:
    """The molar total of every stream of a flow table, ``(9, B)``.

    The temperature update and the next measurement both read them, so
    they are summed once per flow table.
    """
    totals = flows.get("totals")
    if totals is None:
        totals = flows["totals"] = np.add.reduce(flows["streams"], axis=2)
    return totals


class BatchTEPlant(TEPlant):
    """``B`` Tennessee-Eastman plants advanced in lockstep.

    Parameters
    ----------
    seeds:
        Per-row root seeds (one serial :class:`TEPlant` seed per run).
    enable_process_variation / noise_scale:
        As for :class:`TEPlant`; shared by every row.
    rng_block:
        Steps of measurement noise, and ambient draws, fetched per refill
        of each row's random streams.
    """

    def __init__(
        self,
        seeds: Sequence[int],
        enable_process_variation: bool = True,
        noise_scale: float = 1.0,
        rng_block: int = 256,
    ):
        self._rng_block = int(rng_block)
        # The parent constructor calibrates the shared flow coefficients and
        # ends with reset(seed); our reset override ignores the scalar seed
        # path and builds the batched state from ``seeds`` instead.
        self._batch_seeds = [int(seed) for seed in seeds]
        super().__init__(
            seed=0,
            enable_process_variation=enable_process_variation,
            noise_scale=noise_scale,
        )

    def _calibrate(self) -> None:
        super()._calibrate()
        self._reactor_driving, self._separator_driving = (
            float(driving) for driving in _ROW_CONSTANTS["cw_driving"][:, 0]
        )
        self._row_constants = dict(
            _ROW_CONSTANTS,
            cw_xmv_nominal=self._xmv_nominal[9:11, None],
            level_flow_per_percent=_column(self._f10_per_percent, self._f11_per_percent),
            # Nominals of the nine flow readings, in _METERED_COLUMNS order.
            metered_nominals=_column(
                INTERNAL["feed1_nominal"],
                INTERNAL["feed2_nominal"],
                INTERNAL["feed3_nominal"],
                INTERNAL["feed4_nominal"],
                self._f10_nominal,
                self._f11_nominal,
                self._reactor_feed_nominal,
                self._recycle_nominal,
                self._purge_nominal,
            ),
            gas_analyser_scales=np.array([self._stream6_scale, self._purge_scale])[
                :, None, :
            ],
        )

    def _fit_width(self, n_rows: int) -> None:
        """Widen the stacked calls' constants to ``n_rows`` rows.

        A ufunc call whose operands share one shape skips NumPy's
        broadcasting set-up, which costs more than the arithmetic at a
        batch's sizes; a constant repeated along the row axis gives every
        element the same operand, so no bit changes.
        """
        self._wide = {
            name: np.repeat(constant, n_rows, axis=1)
            for name, constant in self._row_constants.items()
        }

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of runs in the batch."""
        return self.state.n_rows

    @property
    def time_hours(self) -> float:
        return self.state.time_hours

    def reset(self, seed: Optional[int] = None) -> None:
        """Rebuild the batched state and per-row random streams."""
        del seed  # rows keep their construction-time seeds
        n_rows = len(self._batch_seeds)
        self.state = BatchTEState.nominal(n_rows)
        self.state.recycle_flow = self._recycle_nominal
        self.state.separator_liquid = self._initial_separator_liquid
        self.state.stripper_liquid = self._initial_stripper_liquid
        roots = [RandomStream(row_seed, "te-plant") for row_seed in self._batch_seeds]
        self._noise_draws = _NoiseBlock(
            [root.child("measurement-noise").generator for root in roots],
            scale=self._xmeas_registry.noise_stds() * self._noise_scale,
            block=self._rng_block,
        )
        self._ambient_draws = _WalkBlock(
            [root.child("ambient").generator for root in roots], block=self._rng_block
        )
        self._stuck_reactor_cw_rows = np.full(n_rows, np.nan)
        self._stuck_condenser_cw_rows = np.full(n_rows, np.nan)
        self._xmeas = np.empty((n_rows, len(self._xmeas_registry)))
        self._fit_width(n_rows)
        self._last_flows = self._compute_flows_batch(
            np.tile(self._xmv_nominal, (n_rows, 1)),
            self.state,
            BatchIdv.none(n_rows),
        )

    def take(self, indices: np.ndarray) -> None:
        """Keep only the given rows (compaction after trips / early stops)."""
        self.state.take(indices)
        index_list = [int(i) for i in np.asarray(indices)]
        self._batch_seeds = [self._batch_seeds[i] for i in index_list]
        self._noise_draws.take(index_list)
        self._ambient_draws.take(index_list)
        self._stuck_reactor_cw_rows = self._stuck_reactor_cw_rows[indices]
        self._stuck_condenser_cw_rows = self._stuck_condenser_cw_rows[indices]
        self._xmeas = self._xmeas[indices]
        self._fit_width(len(index_list))
        self._last_flows = {
            key: value[:, indices] if key in ("streams", "totals") else value[indices]
            for key, value in self._last_flows.items()
        }

    def safety_quantities(self) -> Dict[str, np.ndarray]:
        """Per-row ``(B,)`` arrays of the monitored quantities."""
        quantities = self.state.quantities
        return {
            "reactor_pressure": quantities[0],
            "reactor_level": quantities[2],
            "separator_level": quantities[3],
            "stripper_level": quantities[4],
        }

    # ------------------------------------------------------------------
    # Flow network (row-wise mirror of TEPlant._compute_flows)
    # ------------------------------------------------------------------
    def _effective_xmv_batch(self, xmv: np.ndarray, idv: BatchIdv) -> np.ndarray:
        """Row-wise valve sticking, mirroring :meth:`TEPlant._effective_xmv`."""
        effective = self._xmv_registry.clip(xmv)
        for index, stuck in (
            (14, self._stuck_reactor_cw_rows),
            (15, self._stuck_condenser_cw_rows),
        ):
            if not idv.may_be_active(index):
                stuck.fill(np.nan)
                continue
            column = 9 if index == 14 else 10
            active = idv.active(index)
            newly = active & np.isnan(stuck)
            stuck[newly] = effective[newly, column]
            effective[:, column] = np.where(active, stuck, effective[:, column])
            stuck[~active] = np.nan
        return effective

    def _feed4_composition_batch(
        self, idv: BatchIdv, state: BatchTEState
    ) -> np.ndarray:
        """Row-wise stream-4 composition (:meth:`TEPlant._feed4_composition`)."""
        composition = self._feed4_comp_base[None, :].repeat(state.n_rows, axis=0)
        shift = state.feed4_composition_shift
        if idv.may_be_active(8):
            shift = np.where(idv.active(8), shift * 8.0, shift)
        if idv.may_be_active(1):
            shift = np.where(idv.active(1), shift + -0.05 * idv.value(1), shift)
        a, b, c = _IDX["A"], _IDX["B"], _IDX["C"]
        composition[:, a] = np.maximum(self._feed4_comp_base[a] + shift, 0.01)
        composition[:, c] = np.maximum(self._feed4_comp_base[c] - shift, 0.01)
        if idv.may_be_active(2):
            active2 = idv.active(2)
            extra_b = 0.025 * idv.value(2)
            composition[:, b] = np.where(
                active2, composition[:, b] + extra_b, composition[:, b]
            )
            composition[:, a] = np.where(
                active2,
                np.maximum(composition[:, a] - extra_b / 2.0, 0.01),
                composition[:, a],
            )
            composition[:, c] = np.where(
                active2,
                np.maximum(composition[:, c] - extra_b / 2.0, 0.01),
                composition[:, c],
            )
        return composition / np.add.reduce(composition, axis=1)[:, None]

    def _compute_flows_batch(
        self, xmv: np.ndarray, state: BatchTEState, idv: BatchIdv
    ) -> Dict[str, np.ndarray]:
        """Row-wise stream table, mirroring :meth:`TEPlant._compute_flows`.

        Per-row scalars of the serial path become ``(B,)`` arrays; the
        component vectors of the nine streams in :data:`STREAM_ROWS` are
        written into one ``(9, B, 8)`` stack, ``flows["streams"]``.  Every
        expression keeps the serial operand order so each row stays
        bitwise-identical.
        """
        effective = self._effective_xmv_batch(xmv, idv)
        streams = np.empty((len(STREAM_ROWS), state.n_rows, len(COMPONENTS)))
        feed1, feed2, feed3, feed4, effluent, f10, _, reactor_in, vapor_fraction = streams

        feed1_total = np.minimum(
            self._feed1_per_percent * effective[:, 2], self._feed1_capacity
        )
        if idv.may_be_active(6):
            feed1_total = feed1_total * np.where(idv.active(6), 0.0, 1.0)
        feed1_total = feed1_total * state.feed1_pressure_factor
        np.multiply(feed1_total[:, None], self._feed1_comp, out=feed1)

        # Feeds 2 and 3 carry only D and E respectively.
        streams[1:3] = 0.0
        feed2[:, _IDX["D"]] = self._feed2_per_percent * effective[:, 0]
        feed3[:, _IDX["E"]] = self._feed3_per_percent * effective[:, 1]
        feed4_total = self._feed4_per_percent * effective[:, 3]
        if idv.may_be_active(7):
            feed4_total = feed4_total * np.where(idv.active(7), 0.8, 1.0)
        np.multiply(
            feed4_total[:, None], self._feed4_composition_batch(idv, state), out=feed4
        )

        totals, quantities = state.inventory_totals, state.quantities
        reactor_pressure = quantities[0]
        separator_pressure = quantities[1]
        pressure_ratio = separator_pressure / self._sep_pressure_nominal

        purge_total = self._purge_per_percent * effective[:, 5] * pressure_ratio ** 2
        recycle_target = (
            self._recycle_nominal
            * pressure_ratio
            * (1.0 + 0.4 * (self._xmv_nominal[4] - effective[:, 4]) / 100.0)
        )

        # Separator vapour and reactor, separator and stripper liquid totals.
        floored = np.maximum(totals[1:5], 1e-9)
        np.divide(state.separator_vapor, floored[0, :, None], out=vapor_fraction)

        # Effluent: k * (vapour * LIGHT * pressure_factor + liquid * HEAVY).
        pressure_factor = np.maximum(reactor_pressure, 0.0) / self._pressure_nominal
        masked = state.inventory[0:3:2] * self._wide["reactor_masks"]
        np.multiply(masked[0], pressure_factor[:, None], out=masked[0])
        np.add(masked[0], masked[1], out=effluent)
        np.multiply(self._k_reactor, effluent, out=effluent)

        condenser_shift = (
            _CONDENSATION_COOLING_GAIN * (effective[:, 10] - self._xmv_nominal[10]) / 100.0
            + 0.004 * (_SEPARATOR_TEMP_NOMINAL - state.separator_temp)
        )
        # The condenser shift moves only the heavy components' fractions.
        cond = np.empty((state.n_rows, len(COMPONENTS)))
        cond[:, _LIGHTS] = self._cond_base[_LIGHTS]
        (self._cond_base[_HEAVIES] + condenser_shift[:, None]).clip(
            0.02, 0.98, out=cond[:, _HEAVIES]
        )

        # Streams 10 and 11 leave the separator and the stripper at a rate
        # set by the valve and the square root of the vessel's level.
        levels = np.maximum(quantities[3:5], 0.0)
        level_flows = (
            self._wide["level_flow_per_percent"]
            * effective[:, 6:8].T
            * np.sqrt(levels / 50.0)
        )
        np.divide(
            level_flows[:, :, None] * state.inventory[3:5],
            floored[2:4, :, None],
            out=streams[_F10 : _F11 + 1],
        )

        steam = self._steam_per_percent * effective[:, 8]
        steam_factor = 1.0 + _STRIPPING_STEAM_GAIN * (steam / _STEAM_NOMINAL - 1.0)
        strip = (self._strip_base * steam_factor[:, None]).clip(0.0, 0.995)
        overhead = strip * f10

        np.add(
            feed1
            + feed2
            + feed3
            + feed4
            + state.recycle_flow[:, None] * vapor_fraction,
            overhead,
            out=reactor_in,
        )

        return {
            "xmv_effective": effective,
            "streams": streams,
            "condensation": cond,
            "overhead": overhead,
            "purge_total": purge_total,
            "recycle_target": recycle_target,
            "steam": steam,
        }

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def _draw_ambient(self, idv: BatchIdv) -> Optional[_AmbientDraws]:
        """Consume each row's ambient draws for one step, in serial order.

        The serial plant draws, per step and in this order: the three base
        random walks, the IDV(13) kinetics walk when active, then the
        IDV(9)/IDV(10) temperature shocks inside the temperature update.
        Each row consumes exactly that many values from its own stream.
        """
        if not self.enable_process_variation:
            return None
        if not (
            idv.may_be_active(13) or idv.may_be_active(9) or idv.may_be_active(10)
        ):
            # Every row takes just the three base walks.
            return _AmbientDraws(self._ambient_draws.base())
        n_rows = idv.n_rows
        draws = _AmbientDraws(
            base=np.empty((3, n_rows)),
            kinetics=np.zeros(n_rows),
            reactor_9=np.zeros(n_rows),
            reactor_10=np.zeros(n_rows),
        )
        active13 = idv.active(13)
        active9 = idv.active(9)
        active10 = idv.active(10)
        counts = 3 + active13.astype(int) + active9 + active10
        for row, values in enumerate(self._ambient_draws.per_row(counts)):
            draws.base[:, row] = values[:3]
            cursor = 3
            if active13[row]:
                draws.kinetics[row] = values[cursor]
                cursor += 1
            if active9[row]:
                draws.reactor_9[row] = values[cursor]
                cursor += 1
            if active10[row]:
                draws.reactor_10[row] = values[cursor]
        return draws

    def step_batch(self, manipulated: np.ndarray, dt_hours: float, idv: BatchIdv) -> None:
        """Advance every row by ``dt_hours`` (mirrors :meth:`TEPlant.step`)."""
        state = self.state
        dt = float(dt_hours)

        draws = self._draw_ambient(idv)
        self._update_ambient_batch(dt, idv, draws)
        flows = self._compute_flows_batch(manipulated, state, idv)
        self._last_flows = flows

        rates = self._kinetics.rates_batch(
            state.inventory[0:3:2], state.reactor_temp, state.kinetics_drift
        )
        production = rates.consumption()

        _, _, _, _, effluent, f10, f11, reactor_in, vapor_fraction = flows["streams"]
        cond = flows["condensation"]

        # One (5, B, 8) increment of the five inventories, row for row of
        # BatchTEState.inventory; the reactor's change enters twice and is
        # masked below to its vapour and its liquid.
        change = np.empty_like(state.inventory)
        np.subtract(reactor_in + production, effluent, out=change[0])
        change[2] = change[0]
        vapor_out = (state.recycle_flow + flows["purge_total"])[:, None] * vapor_fraction
        np.subtract(effluent * (1.0 - cond), vapor_out, out=change[1])
        np.subtract(effluent * cond, f10, out=change[3])
        np.subtract(f10 - flows["overhead"], f11, out=change[4])
        change *= dt
        change *= self._wide["balance_masks"]
        state.inventory += change
        state.clip_nonnegative()

        self._update_lags_batch(flows, rates, idv, dt, draws)

        state.time_hours += dt
        state.mark_changed()

    def _update_ambient_batch(
        self, dt: float, idv: BatchIdv, draws: Optional[_AmbientDraws]
    ) -> None:
        """Row-wise ambient walks (mirrors :meth:`TEPlant._update_ambient`).

        The three base walks run as one ``(3, B)`` update: ``walk + (std *
        sqrt(dt) * draw + reversion * dt)``, where the feed-1 factor reverts
        by ``+ 0.15 * (1 - x) * dt`` and the two shifts by ``- k * x * dt``.
        """
        state = self.state
        if not self.enable_process_variation:
            return
        wide = self._wide
        sqrt_dt = np.sqrt(dt)
        walks = state.ambient[0:3]
        step = np.empty_like(walks)
        np.multiply(0.15, 1.0 - walks[0], out=step[0])
        np.multiply(wide["walk_reversion"], walks[1:3], out=step[1:3])
        step *= dt
        noise = wide["walk_stds"] * sqrt_dt * draws.base
        np.add(noise[0], step[0], out=step[0])
        np.subtract(noise[1:3], step[1:3], out=step[1:3])
        np.add(walks, step, out=step)
        step.clip(wide["walk_lower"], wide["walk_upper"], out=walks)

        decayed = state.kinetics_drift * max(1.0 - 0.5 * dt, 0.0)
        if idv.may_be_active(13):
            drifted = (
                state.kinetics_drift
                + (0.05 * sqrt_dt * draws.kinetics - 0.02 * dt)
            ).clip(-0.5, 0.2)
            decayed = np.where(idv.active(13), drifted, decayed)
        state.kinetics_drift = decayed

    def _cooling_water_inlets_batch(self, idv: BatchIdv) -> np.ndarray:
        """Row-wise reactor and condenser cooling-water inlet temperatures,
        ``(2, B)``."""
        inlets = self._wide["cw_inlets"]
        if idv.may_be_active(4) or idv.may_be_active(5):
            inlets = inlets + 5.0 * np.array([idv.value(4), idv.value(5)])
        scale = 0.15
        if idv.may_be_active(11) or idv.may_be_active(12):
            scale = np.where(np.array([idv.active(11), idv.active(12)]), 1.0, 0.15)
        return inlets + scale * self.state.cw_inlet_shift

    @staticmethod
    def _lag(values: np.ndarray, targets: np.ndarray, dt: float, taus) -> None:
        """First-order lags in place: ``values + dt * (targets - values) / taus``
        (overwrites ``targets``)."""
        np.subtract(targets, values, out=targets)
        np.multiply(dt, targets, out=targets)
        np.divide(targets, taus, out=targets)
        np.add(values, targets, out=values)

    def _update_lags_batch(
        self, flows, rates, idv: BatchIdv, dt: float, draws: Optional[_AmbientDraws]
    ) -> None:
        """Row-wise mirror of :meth:`TEPlant._update_temperatures` and of the
        recycle-flow lag that follows it in :meth:`TEPlant.step`.

        The recycle flow and the three vessel temperatures follow their
        targets as one ``(4, B)`` lag; the two cooling-water outlets track
        the updated vessel temperatures, so they follow as a second,
        ``(2, B)`` lag.
        """
        state = self.state
        lags = state.lags
        effective = flows["xmv_effective"]
        totals = _stream_totals(flows)
        inlets = self._cooling_water_inlets_batch(idv)
        targets = np.empty((4, state.n_rows))
        targets[0] = flows["recycle_target"]

        cooling_norm = (effective[:, 9] / self._xmv_nominal[9]) * (
            (state.reactor_temp - inlets[0]) / self._reactor_driving
        )
        reactor_target = (
            _REACTOR_TEMP_NOMINAL
            + _REACTOR_HEAT_GAIN * (rates.heat_release - 1.0)
            - _REACTOR_COOLING_GAIN * (cooling_norm - 1.0)
        )
        if idv.may_be_active(3):
            reactor_target = reactor_target + 1.5 * idv.value(3)
        if self.enable_process_variation and idv.may_be_active(9):
            reactor_target = np.where(
                idv.active(9), reactor_target + 0.6 * draws.reactor_9, reactor_target
            )
        if self.enable_process_variation and idv.may_be_active(10):
            reactor_target = np.where(
                idv.active(10), reactor_target + 0.4 * draws.reactor_10, reactor_target
            )
        targets[1] = reactor_target

        cooling_ratio = np.maximum(effective[:, 10] / self._xmv_nominal[10], 0.05)
        np.add(
            inlets[1],
            self._separator_driving
            * (totals[_EFFLUENT] / self._effluent_nominal)
            / np.power(cooling_ratio, 0.6),
            out=targets[2],
        )
        np.subtract(
            _STRIPPER_TEMP_NOMINAL + 25.0 * (flows["steam"] / _STEAM_NOMINAL - 1.0),
            12.0 * (totals[_F10] / self._f10_nominal - 1.0),
            out=targets[3],
        )
        self._lag(lags[0:4], targets, dt, self._wide["lag_taus"])
        np.maximum(lags[0], 0.0, out=lags[0])

        # Reactor and condenser cooling water, from the updated reactor and
        # separator temperatures.
        wide = self._wide
        cw_targets = inlets + wide["cw_rise"] * (
            (lags[1:3] - inlets) / wide["cw_driving"]
        ) * np.power(wide["cw_xmv_nominal"] / np.maximum(effective[:, 9:11].T, 5.0), 0.8)
        self._lag(lags[4:6], cw_targets, dt, _CW_OUTLET_TAU)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measure(self, noisy: bool = True) -> np.ndarray:
        """Per-row sensor vectors, ``(B, 41)`` (mirrors :meth:`TEPlant.measure`)."""
        flows = self._last_flows
        state = self.state
        totals = _stream_totals(flows)
        inventory_totals, quantities = state.inventory_totals, state.quantities
        recycle_flow = state.recycle_flow
        xmeas = self._xmeas

        metered = np.concatenate(
            (
                totals[0:4],
                totals[_F10 : _REACTOR_IN + 1],
                recycle_flow[None],
                flows["purge_total"][None],
            )
        )
        xmeas[:, _METERED_COLUMNS] = (
            self._wide["metered_gains"] * metered / self._wide["metered_nominals"]
        ).T
        xmeas[:, _COPIED_COLUMNS] = np.concatenate(
            (quantities, state.lags[1:], flows["steam"][None])
        ).T
        xmeas[:, 15] = 3102.2 * (
            0.5 + 0.5 * quantities[1] / self._sep_pressure_nominal
        )
        xmeas[:, 19] = 341.43 * (recycle_flow / self._recycle_nominal) * (
            quantities[0] / self._pressure_nominal
        )

        # Stream-6, purge and product analysers: each vector over its
        # floored total, times the analyser calibration.
        fractions = (
            flows["streams"][_REACTOR_IN:]
            / np.maximum(totals[_REACTOR_IN:], 1e-9)[:, :, None]
            * self._wide["gas_analyser_scales"]
        )
        xmeas[:, 22:28] = fractions[0, :, :6]
        xmeas[:, 28:36] = fractions[1]
        xmeas[:, 36:41] = (
            state.stripper_liquid
            / np.maximum(inventory_totals[4], 1e-9)[:, None]
            * self._product_scale
        )[:, 3:]

        if noisy:
            return self._xmeas_registry.clip(xmeas + self._noise_draws.next())
        return self._xmeas_registry.clip(xmeas)

    # ------------------------------------------------------------------
    # Scalar PlantModel methods that do not apply to a batch
    # ------------------------------------------------------------------
    def step(self, manipulated, dt_hours, disturbances=None):  # pragma: no cover
        raise NotImplementedError("use step_batch with a BatchIdv")
