"""Batched Tennessee-Eastman plant: advance ``B`` independent runs at once.

:class:`BatchTEPlant` holds the state of ``B`` plants as ``(B, ...)`` arrays
(:class:`~repro.te.state.BatchTEState`) and evaluates the flow network,
kinetics, balances and measurement map of :class:`~repro.te.plant.TEPlant`
row-wise with one set of ufunc calls per step instead of one Python
interpreter pass per run.  Every expression is a line-by-line transcription
of the serial plant — same operations, same order, same ufuncs — so row
``i`` of a batched run is **bitwise-identical** to the serial run with the
same seed (NumPy's elementwise ufuncs produce identical results regardless
of array shape; reductions over the trailing axis of a C-contiguous array
use the same pairwise algorithm as their 1-D counterparts; and
``np.random.Generator`` streams are invariant to draw granularity, which is
what lets the per-row noise streams be served from pre-drawn blocks).

The branches of a disturbance that no row can have active at this step
(see :meth:`~repro.process.disturbances.BatchIdv.may_be_active`) are
skipped: there the serial plant only applies identity operations (``x *
1.0``, ``x + 0.0`` on values that are never ``-0.0``, a ``where`` that keeps
every row), so skipping them changes no bit.

Randomness keeps the serial seed-derivation scheme: each row owns the two
``RandomStream`` children a serial :class:`TEPlant` would derive from its
seed (``te-plant/measurement-noise`` and ``te-plant/ambient``) — only the
draws are batched through
:class:`~repro.common.randomness.BlockedStandardNormal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.common.randomness import BlockedStandardNormal, RandomStream
from repro.process.disturbances import BatchIdv
from repro.te.constants import COMPONENTS, INTERNAL
from repro.te.plant import _HEAVY_MASK, _IDX, _LIGHT_MASK, TEPlant
from repro.te.state import BatchTEState

__all__ = ["BatchTEPlant"]

_HEAVY = _HEAVY_MASK > 0


@dataclass
class _AmbientDraws:
    """One step's ambient random-walk draws for every row, ``(B,)`` each.

    Rows whose disturbance flags skip a draw keep a zero placeholder; the
    placeholder is never consumed (the update selects the no-draw branch),
    so the underlying streams advance exactly as the serial plant's would.
    """

    walk: np.ndarray
    composition: np.ndarray
    cooling: np.ndarray
    kinetics: np.ndarray
    reactor_9: np.ndarray
    reactor_10: np.ndarray


class BatchTEPlant(TEPlant):
    """``B`` Tennessee-Eastman plants advanced in lockstep.

    Parameters
    ----------
    seeds:
        Per-row root seeds (one serial :class:`TEPlant` seed per run).
    enable_process_variation / noise_scale:
        As for :class:`TEPlant`; shared by every row.
    rng_block:
        Draws pre-fetched per refill of each row's random streams.
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
        self.state.recycle_flow = np.full(n_rows, self._recycle_nominal)
        self.state.separator_liquid = np.tile(
            self._initial_separator_liquid, (n_rows, 1)
        )
        self.state.stripper_liquid = np.tile(
            self._initial_stripper_liquid, (n_rows, 1)
        )
        self._noise_stds = self._xmeas_registry.noise_stds() * self._noise_scale
        self._noise_streams = []
        self._ambient_streams = []
        for row_seed in self._batch_seeds:
            root = RandomStream(row_seed, "te-plant")
            self._noise_streams.append(
                BlockedStandardNormal(
                    root.child("measurement-noise"),
                    width=len(self._xmeas_registry),
                    block=self._rng_block,
                )
            )
            self._ambient_streams.append(
                BlockedStandardNormal(root.child("ambient"), block=self._rng_block)
            )
        self._stuck_reactor_cw_rows = np.full(n_rows, np.nan)
        self._stuck_condenser_cw_rows = np.full(n_rows, np.nan)
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
        self._noise_streams = [self._noise_streams[i] for i in index_list]
        self._ambient_streams = [self._ambient_streams[i] for i in index_list]
        self._stuck_reactor_cw_rows = self._stuck_reactor_cw_rows[indices]
        self._stuck_condenser_cw_rows = self._stuck_condenser_cw_rows[indices]
        self._last_flows = {
            key: value[indices] for key, value in self._last_flows.items()
        }

    def safety_quantities(self) -> Dict[str, np.ndarray]:
        """Per-row ``(B,)`` arrays of the monitored quantities."""
        return {
            "reactor_pressure": self.state.reactor_pressure_kpa,
            "reactor_level": self.state.reactor_level_percent,
            "separator_level": self.state.separator_level_percent,
            "stripper_level": self.state.stripper_level_percent,
        }

    # ------------------------------------------------------------------
    # Flow network (row-wise transcription of TEPlant._compute_flows)
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
        composition[:, a] = np.maximum(composition[:, a] + shift, 0.01)
        composition[:, c] = np.maximum(composition[:, c] - shift, 0.01)
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

        Per-row scalars of the serial path become ``(B,)`` arrays and
        component vectors become ``(B, 8)`` arrays; every expression keeps
        the serial operand order so each row stays bitwise-identical.
        """
        effective = self._effective_xmv_batch(xmv, idv)

        feed1_total = np.minimum(
            self._feed1_per_percent * effective[:, 2], self._feed1_capacity
        )
        if idv.may_be_active(6):
            feed1_total = feed1_total * np.where(idv.active(6), 0.0, 1.0)
        feed1_total = feed1_total * state.feed1_pressure_factor
        feed1 = feed1_total[:, None] * self._feed1_comp

        n_rows = state.n_rows
        feed2 = np.zeros((n_rows, len(COMPONENTS)))
        feed2[:, _IDX["D"]] = self._feed2_per_percent * effective[:, 0]
        feed3 = np.zeros((n_rows, len(COMPONENTS)))
        feed3[:, _IDX["E"]] = self._feed3_per_percent * effective[:, 1]
        feed4_total = self._feed4_per_percent * effective[:, 3]
        if idv.may_be_active(7):
            feed4_total = feed4_total * np.where(idv.active(7), 0.8, 1.0)
        feed4 = feed4_total[:, None] * self._feed4_composition_batch(idv, state)

        reactor_pressure = state.reactor_pressure_kpa
        separator_pressure = state.separator_pressure_kpa
        pressure_ratio = separator_pressure / self._sep_pressure_nominal

        purge_total = self._purge_per_percent * effective[:, 5] * pressure_ratio ** 2
        recycle_target = (
            self._recycle_nominal
            * pressure_ratio
            * (1.0 + 0.4 * (self._xmv_nominal[4] - effective[:, 4]) / 100.0)
        )

        vapor_inventory = state.separator_vapor
        vapor_total = np.maximum(np.add.reduce(vapor_inventory, axis=1), 1e-9)
        vapor_fraction = vapor_inventory / vapor_total[:, None]

        pressure_factor = np.maximum(reactor_pressure, 0.0) / self._pressure_nominal
        effluent = self._k_reactor * (
            state.reactor_vapor * _LIGHT_MASK * pressure_factor[:, None]
            + state.reactor_liquid * _HEAVY_MASK
        )

        condenser_shift = (
            float(INTERNAL["condensation_cooling_gain"])
            * (effective[:, 10] - self._xmv_nominal[10])
            / 100.0
            + 0.004 * (float(INTERNAL["separator_temp_nominal"]) - state.separator_temp)
        )
        cond = np.where(
            _HEAVY,
            (self._cond_base + condenser_shift[:, None]).clip(0.02, 0.98),
            self._cond_base,
        )

        separator_level = np.maximum(state.separator_level_percent, 0.0)
        f10_total = (
            self._f10_per_percent
            * effective[:, 6]
            * np.sqrt(separator_level / 50.0)
        )
        liquid_inventory = state.separator_liquid
        liquid_total = np.maximum(np.add.reduce(liquid_inventory, axis=1), 1e-9)
        f10 = f10_total[:, None] * liquid_inventory / liquid_total[:, None]

        steam = self._steam_per_percent * effective[:, 8]
        steam_factor = 1.0 + float(INTERNAL["stripping_steam_gain"]) * (
            steam / float(INTERNAL["steam_nominal"]) - 1.0
        )
        strip = (self._strip_base * steam_factor[:, None]).clip(0.0, 0.995)
        overhead = strip * f10

        stripper_level = np.maximum(state.stripper_level_percent, 0.0)
        f11_total = (
            self._f11_per_percent
            * effective[:, 7]
            * np.sqrt(stripper_level / 50.0)
        )
        stripper_inventory = state.stripper_liquid
        stripper_total = np.maximum(np.add.reduce(stripper_inventory, axis=1), 1e-9)
        f11 = f11_total[:, None] * stripper_inventory / stripper_total[:, None]

        reactor_in = (
            feed1
            + feed2
            + feed3
            + feed4
            + state.recycle_flow[:, None] * vapor_fraction
            + overhead
        )

        return {
            "xmv_effective": effective,
            "feed1": feed1,
            "feed2": feed2,
            "feed3": feed3,
            "feed4": feed4,
            "reactor_in": reactor_in,
            "effluent": effluent,
            "condensation": cond,
            "purge_total": purge_total,
            "recycle_target": recycle_target,
            "vapor_fraction": vapor_fraction,
            "f10": f10,
            "f11": f11,
            "overhead": overhead,
            "steam": steam,
            "reactor_pressure": reactor_pressure,
            "separator_pressure": separator_pressure,
        }

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def _draw_ambient(self, idv: BatchIdv) -> _AmbientDraws:
        """Consume each row's ambient draws for one step, in serial order.

        The serial plant draws, per step and in this order: the three base
        random walks, the IDV(13) kinetics walk when active, then the
        IDV(9)/IDV(10) temperature shocks inside the temperature update.
        Each row consumes exactly that many values from its own stream.
        """
        n_rows = idv.n_rows
        if not self.enable_process_variation:
            zeros = np.zeros(n_rows)
            return _AmbientDraws(zeros, zeros, zeros, zeros, zeros, zeros)
        if not (
            idv.may_be_active(13) or idv.may_be_active(9) or idv.may_be_active(10)
        ):
            # Every row takes just the three base walks.
            values = np.array([stream.take(3) for stream in self._ambient_streams])
            zeros = np.zeros(n_rows)
            return _AmbientDraws(
                values[:, 0], values[:, 1], values[:, 2], zeros, zeros, zeros
            )
        draws = _AmbientDraws(
            walk=np.zeros(n_rows),
            composition=np.zeros(n_rows),
            cooling=np.zeros(n_rows),
            kinetics=np.zeros(n_rows),
            reactor_9=np.zeros(n_rows),
            reactor_10=np.zeros(n_rows),
        )
        active13 = idv.active(13)
        active9 = idv.active(9)
        active10 = idv.active(10)
        counts = 3 + active13.astype(int) + active9 + active10
        for row in range(n_rows):
            values = self._ambient_streams[row].take(int(counts[row]))
            draws.walk[row] = values[0]
            draws.composition[row] = values[1]
            draws.cooling[row] = values[2]
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
            state.reactor_vapor,
            state.reactor_liquid,
            state.reactor_temp,
            state.kinetics_drift,
        )
        production = rates.consumption()

        effluent = flows["effluent"]
        reactor_in = flows["reactor_in"]
        cond = flows["condensation"]
        purge_total = flows["purge_total"]
        vapor_fraction = flows["vapor_fraction"]
        f10 = flows["f10"]
        f11 = flows["f11"]
        overhead = flows["overhead"]

        d_reactor = reactor_in + production - effluent
        state.reactor_vapor += dt * d_reactor * _LIGHT_MASK
        state.reactor_liquid += dt * d_reactor * _HEAVY_MASK

        vapor_out = (state.recycle_flow + purge_total)[:, None] * vapor_fraction
        state.separator_vapor += dt * (effluent * (1.0 - cond) - vapor_out)
        state.separator_liquid += dt * (effluent * cond - f10)
        state.stripper_liquid += dt * (f10 - overhead - f11)
        state.clip_nonnegative()

        self._update_temperatures_batch(flows, rates, idv, dt, draws)

        recycle_target = flows["recycle_target"]
        tau_recycle = float(INTERNAL["recycle_tau"])
        state.recycle_flow = state.recycle_flow + dt * (
            recycle_target - state.recycle_flow
        ) / tau_recycle
        state.recycle_flow = np.maximum(state.recycle_flow, 0.0)

        state.time_hours += dt
        state.mark_changed()

    def _update_ambient_batch(
        self, dt: float, idv: BatchIdv, draws: _AmbientDraws
    ) -> None:
        """Row-wise ambient walks (mirrors :meth:`TEPlant._update_ambient`)."""
        state = self.state
        if not self.enable_process_variation:
            return
        sqrt_dt = np.sqrt(dt)
        walk = float(INTERNAL["feed1_pressure_walk_std"])
        state.feed1_pressure_factor = (
            state.feed1_pressure_factor
            + (
                walk * sqrt_dt * draws.walk
                + 0.15 * (1.0 - state.feed1_pressure_factor) * dt
            )
        ).clip(0.7, 1.3)

        comp_walk = float(INTERNAL["feed4_composition_walk_std"])
        state.feed4_composition_shift = (
            state.feed4_composition_shift
            + (
                comp_walk * sqrt_dt * draws.composition
                - 0.2 * state.feed4_composition_shift * dt
            )
        ).clip(-0.06, 0.06)

        cw_walk = float(INTERNAL["cw_inlet_walk_std"])
        state.cw_inlet_shift = (
            state.cw_inlet_shift
            + (
                cw_walk * sqrt_dt * draws.cooling
                - 0.3 * state.cw_inlet_shift * dt
            )
        ).clip(-4.0, 4.0)

        decayed = state.kinetics_drift * max(1.0 - 0.5 * dt, 0.0)
        if idv.may_be_active(13):
            drifted = (
                state.kinetics_drift
                + (0.05 * sqrt_dt * draws.kinetics - 0.02 * dt)
            ).clip(-0.5, 0.2)
            decayed = np.where(idv.active(13), drifted, decayed)
        state.kinetics_drift = decayed

    def _cooling_water_inlets_batch(self, idv: BatchIdv) -> Dict[str, np.ndarray]:
        """Row-wise cooling-water inlet temperatures, ``(B,)`` each."""
        state = self.state
        reactor_inlet = float(INTERNAL["reactor_cw_inlet_nominal"])
        if idv.may_be_active(4):
            reactor_inlet = reactor_inlet + 5.0 * idv.value(4)
        condenser_inlet = float(INTERNAL["condenser_cw_inlet_nominal"])
        if idv.may_be_active(5):
            condenser_inlet = condenser_inlet + 5.0 * idv.value(5)
        reactor_scale = 0.15
        if idv.may_be_active(11):
            reactor_scale = np.where(idv.active(11), 1.0, 0.15)
        condenser_scale = 0.15
        if idv.may_be_active(12):
            condenser_scale = np.where(idv.active(12), 1.0, 0.15)
        reactor_inlet = reactor_inlet + reactor_scale * state.cw_inlet_shift
        condenser_inlet = condenser_inlet + condenser_scale * state.cw_inlet_shift
        return {"reactor": reactor_inlet, "condenser": condenser_inlet}

    def _update_temperatures_batch(
        self, flows, rates, idv: BatchIdv, dt: float, draws: _AmbientDraws
    ) -> None:
        """Row-wise mirror of :meth:`TEPlant._update_temperatures`."""
        state = self.state
        effective = flows["xmv_effective"]
        inlets = self._cooling_water_inlets_batch(idv)

        reactor_inlet = inlets["reactor"]
        nominal_driving = float(INTERNAL["reactor_temp_nominal"]) - float(
            INTERNAL["reactor_cw_inlet_nominal"]
        )
        cooling_norm = (effective[:, 9] / self._xmv_nominal[9]) * (
            (state.reactor_temp - reactor_inlet) / nominal_driving
        )
        heat_norm = rates.heat_release
        reactor_target = (
            float(INTERNAL["reactor_temp_nominal"])
            + float(INTERNAL["reactor_heat_gain"]) * (heat_norm - 1.0)
            - float(INTERNAL["reactor_cooling_gain"]) * (cooling_norm - 1.0)
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
        tau_r = float(INTERNAL["reactor_temp_tau"])
        state.reactor_temp = state.reactor_temp + dt * (
            reactor_target - state.reactor_temp
        ) / tau_r

        condenser_inlet = inlets["condenser"]
        effluent_total = np.add.reduce(flows["effluent"], axis=1)
        nominal_sep_driving = float(INTERNAL["separator_temp_nominal"]) - float(
            INTERNAL["condenser_cw_inlet_nominal"]
        )
        cooling_ratio = np.maximum(effective[:, 10] / self._xmv_nominal[10], 0.05)
        separator_target = condenser_inlet + nominal_sep_driving * (
            effluent_total / self._effluent_nominal
        ) / np.power(cooling_ratio, 0.6)
        tau_s = float(INTERNAL["separator_temp_tau"])
        state.separator_temp = state.separator_temp + dt * (
            separator_target - state.separator_temp
        ) / tau_s

        steam = flows["steam"]
        f10_total = np.add.reduce(flows["f10"], axis=1)
        stripper_target = (
            float(INTERNAL["stripper_temp_nominal"])
            + 25.0 * (steam / float(INTERNAL["steam_nominal"]) - 1.0)
            - 12.0 * (f10_total / self._f10_nominal - 1.0)
        )
        tau_c = float(INTERNAL["stripper_temp_tau"])
        state.stripper_temp = state.stripper_temp + dt * (
            stripper_target - state.stripper_temp
        ) / tau_c

        tau_cw = float(INTERNAL["cw_outlet_tau"])
        nominal_rise = float(INTERNAL["reactor_cw_outlet_nominal"]) - float(
            INTERNAL["reactor_cw_inlet_nominal"]
        )
        reactor_cw_target = reactor_inlet + nominal_rise * (
            (state.reactor_temp - reactor_inlet) / nominal_driving
        ) * np.power(self._xmv_nominal[9] / np.maximum(effective[:, 9], 5.0), 0.8)
        state.reactor_cw_outlet = state.reactor_cw_outlet + dt * (
            reactor_cw_target - state.reactor_cw_outlet
        ) / tau_cw

        nominal_cond_rise = float(INTERNAL["separator_cw_outlet_nominal"]) - float(
            INTERNAL["condenser_cw_inlet_nominal"]
        )
        condenser_cw_target = condenser_inlet + nominal_cond_rise * (
            (state.separator_temp - condenser_inlet) / nominal_sep_driving
        ) * np.power(self._xmv_nominal[10] / np.maximum(effective[:, 10], 5.0), 0.8)
        state.separator_cw_outlet = state.separator_cw_outlet + dt * (
            condenser_cw_target - state.separator_cw_outlet
        ) / tau_cw

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def _composition_percent_batch(
        self, vectors: np.ndarray, scale: np.ndarray
    ) -> np.ndarray:
        """Row-wise mirror of :meth:`TEPlant._composition_percent`."""
        total = np.maximum(np.add.reduce(vectors, axis=1), 1e-9)
        fraction = vectors / total[:, None]
        return fraction * scale

    def measure(self, noisy: bool = True) -> np.ndarray:
        """Per-row sensor vectors, ``(B, 41)`` (mirrors :meth:`TEPlant.measure`)."""
        flows = self._last_flows
        state = self.state
        n_rows = state.n_rows
        xmeas = np.zeros((n_rows, 41))

        feed1_total = np.add.reduce(flows["feed1"], axis=1)
        feed2_total = np.add.reduce(flows["feed2"], axis=1)
        feed3_total = np.add.reduce(flows["feed3"], axis=1)
        feed4_total = np.add.reduce(flows["feed4"], axis=1)
        reactor_in = flows["reactor_in"]
        reactor_feed_total = np.add.reduce(reactor_in, axis=1)
        purge_total = flows["purge_total"]
        f10_total = np.add.reduce(flows["f10"], axis=1)
        f11_total = np.add.reduce(flows["f11"], axis=1)
        steam = flows["steam"]

        reactor_pressure = state.reactor_pressure_kpa
        separator_pressure = state.separator_pressure_kpa

        xmeas[:, 0] = 0.25052 * feed1_total / float(INTERNAL["feed1_nominal"])
        xmeas[:, 1] = 3664.0 * feed2_total / float(INTERNAL["feed2_nominal"])
        xmeas[:, 2] = 4509.3 * feed3_total / float(INTERNAL["feed3_nominal"])
        xmeas[:, 3] = 9.3477 * feed4_total / float(INTERNAL["feed4_nominal"])
        xmeas[:, 4] = 26.902 * state.recycle_flow / self._recycle_nominal
        xmeas[:, 5] = 42.339 * reactor_feed_total / self._reactor_feed_nominal
        xmeas[:, 6] = reactor_pressure
        xmeas[:, 7] = state.reactor_level_percent
        xmeas[:, 8] = state.reactor_temp
        xmeas[:, 9] = 0.33712 * purge_total / self._purge_nominal
        xmeas[:, 10] = state.separator_temp
        xmeas[:, 11] = state.separator_level_percent
        xmeas[:, 12] = separator_pressure
        xmeas[:, 13] = 25.160 * f10_total / self._f10_nominal
        xmeas[:, 14] = state.stripper_level_percent
        xmeas[:, 15] = 3102.2 * (
            0.5 + 0.5 * separator_pressure / self._sep_pressure_nominal
        )
        xmeas[:, 16] = 22.949 * f11_total / self._f11_nominal
        xmeas[:, 17] = state.stripper_temp
        xmeas[:, 18] = steam
        xmeas[:, 19] = 341.43 * (state.recycle_flow / self._recycle_nominal) * (
            reactor_pressure / self._pressure_nominal
        )
        xmeas[:, 20] = state.reactor_cw_outlet
        xmeas[:, 21] = state.separator_cw_outlet

        stream6 = self._composition_percent_batch(reactor_in, self._stream6_scale)
        xmeas[:, 22:28] = stream6[:, :6]

        purge_fraction = self._composition_percent_batch(
            flows["vapor_fraction"], self._purge_scale
        )
        xmeas[:, 28:36] = purge_fraction

        product_fraction = self._composition_percent_batch(
            state.stripper_liquid, self._product_scale
        )
        xmeas[:, 36:41] = product_fraction[:, 3:]

        if noisy:
            noise = np.empty((n_rows, xmeas.shape[1]))
            for row in range(n_rows):
                noise[row] = self._noise_streams[row].take_row()
            noisy_values = xmeas + noise * self._noise_stds
            return self._xmeas_registry.clip(noisy_values)
        return self._xmeas_registry.clip(xmeas)

    # ------------------------------------------------------------------
    # Scalar PlantModel methods that do not apply to a batch
    # ------------------------------------------------------------------
    def step(self, manipulated, dt_hours, disturbances=None):  # pragma: no cover
        raise NotImplementedError("use step_batch with a BatchIdv")
