"""The reduced-order Tennessee-Eastman plant model.

:class:`TEPlant` implements the :class:`~repro.process.interfaces.PlantModel`
interface with the standard TE variable set: 41 measured variables (XMEAS),
12 manipulated variables (XMV, valve positions in percent) and 20 process
disturbances (IDV).  The dynamics are a grey-box reduction of the Downs &
Vogel flowsheet — reactor, partial condenser + separator, stripper, recycle
compressor and purge — calibrated at construction time so that the published
base case is a steady state of the model (see :mod:`repro.te.balance`).

The "added randomness" model of Krotofil et al. is reproduced with two
ingredients: per-sensor Gaussian measurement noise (see
:class:`repro.process.noise.GaussianMeasurementNoise`) and slow ambient
random walks on the A-feed supply pressure, the stream-4 composition and the
cooling-water inlet temperatures, which force the regulatory control layer to
keep adjusting the valves during normal operation.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.common.randomness import RandomStream
from repro.process.interfaces import PlantModel
from repro.process.noise import GaussianMeasurementNoise
from repro.process.variables import VariableRegistry
from repro.te.balance import (
    NominalBalance,
    component_vector,
    solve_nominal_balance,
    stripping_fractions,
)
from repro.te.constants import COMPONENTS, INTERNAL, XMEAS_TABLE, XMV_TABLE
from repro.te.kinetics import ReactionKinetics
from repro.te.state import TEState
from repro.te.variables import build_xmeas_registry, build_xmv_registry

__all__ = ["TEPlant"]

_LIGHT_MASK = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
_HEAVY_MASK = 1.0 - _LIGHT_MASK
_IDX = {component: i for i, component in enumerate(COMPONENTS)}


def _composition_scale(nominal_fraction: np.ndarray, published: np.ndarray) -> np.ndarray:
    """Factors taking nominal mole fractions to published analyser values."""
    return np.where(
        nominal_fraction > 1e-9, published / np.maximum(nominal_fraction, 1e-9), 0.0
    )


class TEPlant(PlantModel):
    """Dynamic Tennessee-Eastman plant.

    Parameters
    ----------
    seed:
        Seed of the plant's random streams (measurement noise and ambient
        variation).  Can be overridden per run through :meth:`reset`.
    enable_process_variation:
        Whether the slow ambient random walks of the added randomness model
        are active.  Measurement noise is controlled separately through the
        ``noisy`` flag of :meth:`measure`.
    noise_scale:
        Global multiplier on the per-sensor measurement-noise magnitudes.
    """

    def __init__(
        self,
        seed: int = 0,
        enable_process_variation: bool = True,
        noise_scale: float = 1.0,
    ):
        self._xmeas_registry = build_xmeas_registry()
        self._xmv_registry = build_xmv_registry()
        self._kinetics = ReactionKinetics()
        self._noise_scale = float(noise_scale)
        self.enable_process_variation = bool(enable_process_variation)

        self._balance: NominalBalance = solve_nominal_balance()
        self._cond_base = self._balance.condensation
        self._strip_base = stripping_fractions()
        self._xmv_nominal = np.array([row[1] for row in XMV_TABLE], dtype=float)
        self._xmeas_nominal = np.array([row[2] for row in XMEAS_TABLE], dtype=float)

        self._calibrate()
        self.reset(seed)

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def _calibrate(self) -> None:
        """Derive flow coefficients and output scalings from the nominal balance."""
        balance = self._balance

        self._feed1_comp = component_vector(INTERNAL["feed1_composition"])
        self._feed4_comp_base = component_vector(INTERNAL["feed4_composition"])
        self._feed1_per_percent = float(INTERNAL["feed1_nominal"]) / self._xmv_nominal[2]
        self._feed1_capacity = 1.4 * float(INTERNAL["feed1_nominal"])
        self._feed2_per_percent = float(INTERNAL["feed2_nominal"]) / self._xmv_nominal[0]
        self._feed3_per_percent = float(INTERNAL["feed3_nominal"]) / self._xmv_nominal[1]
        self._feed4_per_percent = float(INTERNAL["feed4_nominal"]) / self._xmv_nominal[3]
        self._purge_per_percent = float(INTERNAL["purge_nominal"]) / self._xmv_nominal[5]
        self._steam_per_percent = float(INTERNAL["steam_nominal"]) / self._xmv_nominal[8]

        self._f10_nominal = balance.separator_underflow_total
        self._f11_nominal = balance.product_total
        self._f10_per_percent = self._f10_nominal / self._xmv_nominal[6]
        self._f11_per_percent = self._f11_nominal / self._xmv_nominal[7]
        self._recycle_nominal = balance.recycle_total
        self._reactor_feed_nominal = balance.reactor_feed_total
        self._purge_nominal = balance.purge_total
        self._effluent_nominal = float(balance.effluent.sum())

        reactor_inventory = component_vector(
            INTERNAL["reactor_vapor_nominal"]
        ) + component_vector(INTERNAL["reactor_liquid_nominal"])
        self._k_reactor = balance.effluent / np.maximum(reactor_inventory, 1e-9)

        self._pressure_nominal = float(INTERNAL["reactor_pressure_nominal"])
        self._sep_pressure_nominal = float(INTERNAL["separator_pressure_nominal"])
        self._dp_nominal = self._pressure_nominal - self._sep_pressure_nominal

        # Analyser calibration: per-component factors mapping the internal
        # mole fractions to the published percentages at the nominal point.
        reactor_in_total = max(balance.reactor_feed_total, 1e-12)
        self._stream6_scale = _composition_scale(
            balance.reactor_in / reactor_in_total,
            np.concatenate([self._xmeas_nominal[22:28], np.zeros(2)]),
        )
        self._purge_scale = _composition_scale(
            balance.purge / max(balance.purge_total, 1e-12), self._xmeas_nominal[28:36]
        )
        self._product_scale = _composition_scale(
            balance.product / max(balance.product_total, 1e-12),
            np.concatenate([np.zeros(3), self._xmeas_nominal[36:41]]),
        )

        # Initial liquid-inventory compositions consistent with the nominal
        # stream table (totals keep the nominal vessel levels from constants).
        separator_total = sum(INTERNAL["separator_liquid_nominal"].values())
        liquid_fraction = balance.separator_liquid_in / max(
            balance.separator_underflow_total, 1e-12
        )
        self._initial_separator_liquid = separator_total * liquid_fraction
        stripper_total = sum(INTERNAL["stripper_liquid_nominal"].values())
        product_fraction = balance.product / max(balance.product_total, 1e-12)
        self._initial_stripper_liquid = stripper_total * product_fraction

    # ------------------------------------------------------------------
    # PlantModel interface
    # ------------------------------------------------------------------
    @property
    def measured_variables(self) -> VariableRegistry:
        return self._xmeas_registry

    @property
    def manipulated_variables(self) -> VariableRegistry:
        return self._xmv_registry

    @property
    def time_hours(self) -> float:
        return self.state.time_hours

    @property
    def nominal_balance(self) -> NominalBalance:
        """The construction-time nominal stream table."""
        return self._balance

    def reset(self, seed: Optional[int] = None) -> None:
        if seed is None:
            seed = getattr(self, "_seed", 0)
        self._seed = int(seed)
        self.state = TEState.nominal()
        self.state.recycle_flow = self._recycle_nominal
        self.state.separator_liquid = self._initial_separator_liquid.copy()
        self.state.stripper_liquid = self._initial_stripper_liquid.copy()
        root = RandomStream(self._seed, "te-plant")
        self._noise = GaussianMeasurementNoise(
            self._xmeas_registry, root.child("measurement-noise"), self._noise_scale
        )
        self._ambient = root.child("ambient")
        self._stuck_reactor_cw: Optional[float] = None
        self._stuck_condenser_cw: Optional[float] = None
        self._last_flows = self._compute_flows(
            self._xmv_nominal.copy(), self.state, {}
        )

    def safety_quantities(self) -> Dict[str, float]:
        return {
            "reactor_pressure": self.state.reactor_pressure_kpa,
            "reactor_level": self.state.reactor_level_percent,
            "separator_level": self.state.separator_level_percent,
            "stripper_level": self.state.stripper_level_percent,
        }

    # ------------------------------------------------------------------
    # Flow network
    # ------------------------------------------------------------------
    def _effective_xmv(self, xmv: np.ndarray, idv: Dict[int, float]) -> np.ndarray:
        """Apply valve-sticking disturbances IDV(14)/IDV(15)."""
        effective = self._xmv_registry.clip(np.asarray(xmv, dtype=float).ravel())
        if idv.get(14):
            if self._stuck_reactor_cw is None:
                self._stuck_reactor_cw = float(effective[9])
            effective[9] = self._stuck_reactor_cw
        else:
            self._stuck_reactor_cw = None
        if idv.get(15):
            if self._stuck_condenser_cw is None:
                self._stuck_condenser_cw = float(effective[10])
            effective[10] = self._stuck_condenser_cw
        else:
            self._stuck_condenser_cw = None
        return effective

    def _feed4_composition(self, idv: Dict[int, float], state: TEState) -> np.ndarray:
        """Stream-4 composition with IDV(1), IDV(2), IDV(8) and ambient drift."""
        composition = self._feed4_comp_base.copy()
        shift = state.feed4_composition_shift
        if idv.get(8):
            shift *= 8.0
        if idv.get(1):
            shift += -0.05 * float(idv[1])
        composition[_IDX["A"]] = max(composition[_IDX["A"]] + shift, 0.01)
        composition[_IDX["C"]] = max(composition[_IDX["C"]] - shift, 0.01)
        if idv.get(2):
            extra_b = 0.025 * float(idv[2])
            composition[_IDX["B"]] += extra_b
            composition[_IDX["A"]] = max(composition[_IDX["A"]] - extra_b / 2.0, 0.01)
            composition[_IDX["C"]] = max(composition[_IDX["C"]] - extra_b / 2.0, 0.01)
        return composition / composition.sum()

    def _compute_flows(
        self, xmv: np.ndarray, state: TEState, idv: Dict[int, float]
    ) -> Dict[str, np.ndarray]:
        """Evaluate every stream of the flow network for the given state."""
        effective = self._effective_xmv(xmv, idv)

        feed1_available = 0.0 if idv.get(6) else 1.0
        feed4_available = 0.8 if idv.get(7) else 1.0

        feed1_total = min(
            self._feed1_per_percent * effective[2], self._feed1_capacity
        ) * feed1_available * state.feed1_pressure_factor
        feed1 = feed1_total * self._feed1_comp

        feed2 = component_vector({"D": self._feed2_per_percent * effective[0]})
        feed3 = component_vector({"E": self._feed3_per_percent * effective[1]})
        feed4_total = self._feed4_per_percent * effective[3] * feed4_available
        feed4 = feed4_total * self._feed4_composition(idv, state)

        reactor_pressure = state.reactor_pressure_kpa
        separator_pressure = state.separator_pressure_kpa
        pressure_ratio = separator_pressure / self._sep_pressure_nominal

        # np.power, not ``**``: CPython's float pow (libm) disagrees with the
        # ufunc's x*x fast path by 1 ulp on some inputs, and the batch
        # kernel evaluates this expression through the ufunc row-wise.
        purge_total = self._purge_per_percent * effective[5] * np.power(pressure_ratio, 2)
        recycle_target = (
            self._recycle_nominal
            * pressure_ratio
            * (1.0 + 0.4 * (self._xmv_nominal[4] - effective[4]) / 100.0)
        )

        vapor_inventory = state.separator_vapor
        vapor_total = max(float(vapor_inventory.sum()), 1e-9)
        vapor_fraction = vapor_inventory / vapor_total

        # Vapour leaves the reactor roughly in proportion to its pressure
        # (choked-flow-like behaviour).  Using the reactor pressure alone —
        # rather than the reactor/separator differential — keeps the coupled
        # vapour-inventory dynamics well-conditioned for explicit integration;
        # the purge still regulates the loop pressure through the recycle
        # path (purge lowers the separator pressure, which lowers the recycle
        # flow returned to the reactor).
        pressure_factor = max(reactor_pressure, 0.0) / self._pressure_nominal
        effluent = self._k_reactor * (
            state.reactor_vapor * _LIGHT_MASK * pressure_factor
            + state.reactor_liquid * _HEAVY_MASK
        )

        condenser_shift = (
            float(INTERNAL["condensation_cooling_gain"])
            * (effective[10] - self._xmv_nominal[10])
            / 100.0
            + 0.004 * (float(INTERNAL["separator_temp_nominal"]) - state.separator_temp)
        )
        cond = np.where(
            _HEAVY_MASK > 0,
            np.clip(self._cond_base + condenser_shift, 0.02, 0.98),
            self._cond_base,
        )

        separator_level = max(state.separator_level_percent, 0.0)
        f10_total = (
            self._f10_per_percent
            * effective[6]
            * np.sqrt(separator_level / 50.0)
        )
        liquid_inventory = state.separator_liquid
        liquid_total = max(float(liquid_inventory.sum()), 1e-9)
        f10 = f10_total * liquid_inventory / liquid_total

        steam = self._steam_per_percent * effective[8]
        steam_factor = 1.0 + float(INTERNAL["stripping_steam_gain"]) * (
            steam / float(INTERNAL["steam_nominal"]) - 1.0
        )
        strip = np.clip(self._strip_base * steam_factor, 0.0, 0.995)
        overhead = strip * f10

        stripper_level = max(state.stripper_level_percent, 0.0)
        f11_total = (
            self._f11_per_percent
            * effective[7]
            * np.sqrt(stripper_level / 50.0)
        )
        stripper_inventory = state.stripper_liquid
        stripper_total = max(float(stripper_inventory.sum()), 1e-9)
        f11 = f11_total * stripper_inventory / stripper_total

        reactor_in = feed1 + feed2 + feed3 + feed4 + state.recycle_flow * vapor_fraction + overhead

        return {
            "xmv_effective": effective,
            "feed1": feed1,
            "feed2": feed2,
            "feed3": feed3,
            "feed4": feed4,
            "reactor_in": reactor_in,
            "effluent": effluent,
            "condensation": cond,
            "purge_total": np.array([purge_total]),
            "recycle_target": np.array([recycle_target]),
            "vapor_fraction": vapor_fraction,
            "f10": f10,
            "f11": f11,
            "overhead": overhead,
            "steam": np.array([steam]),
            "reactor_pressure": np.array([reactor_pressure]),
            "separator_pressure": np.array([separator_pressure]),
        }

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(
        self,
        manipulated: np.ndarray,
        dt_hours: float,
        disturbances: Optional[Dict[int, float]] = None,
    ) -> None:
        idv = dict(disturbances or {})
        state = self.state
        dt = float(dt_hours)

        self._update_ambient(dt, idv)
        flows = self._compute_flows(manipulated, state, idv)
        self._last_flows = flows

        rates = self._kinetics.rates(
            state.reactor_vapor,
            state.reactor_liquid,
            state.reactor_temp,
            state.kinetics_drift,
        )
        production = rates.consumption()

        effluent = flows["effluent"]
        reactor_in = flows["reactor_in"]
        cond = flows["condensation"]
        purge_total = float(flows["purge_total"][0])
        vapor_fraction = flows["vapor_fraction"]
        f10 = flows["f10"]
        f11 = flows["f11"]
        overhead = flows["overhead"]

        d_reactor = reactor_in + production - effluent
        state.reactor_vapor += dt * d_reactor * _LIGHT_MASK
        state.reactor_liquid += dt * d_reactor * _HEAVY_MASK

        vapor_out = (state.recycle_flow + purge_total) * vapor_fraction
        state.separator_vapor += dt * (effluent * (1.0 - cond) - vapor_out)
        state.separator_liquid += dt * (effluent * cond - f10)
        state.stripper_liquid += dt * (f10 - overhead - f11)
        state.clip_nonnegative()

        self._update_temperatures(flows, rates, idv, dt)

        recycle_target = float(flows["recycle_target"][0])
        tau_recycle = float(INTERNAL["recycle_tau"])
        state.recycle_flow += dt * (recycle_target - state.recycle_flow) / tau_recycle
        state.recycle_flow = max(state.recycle_flow, 0.0)

        state.time_hours += dt

    def _update_ambient(self, dt: float, idv: Dict[int, float]) -> None:
        """Advance the slow ambient random walks of the added randomness model."""
        state = self.state
        if not self.enable_process_variation:
            return
        sqrt_dt = np.sqrt(dt)
        walk = float(INTERNAL["feed1_pressure_walk_std"])
        state.feed1_pressure_factor += (
            walk * sqrt_dt * self._ambient.standard_normal()
            + 0.15 * (1.0 - state.feed1_pressure_factor) * dt
        )
        state.feed1_pressure_factor = float(np.clip(state.feed1_pressure_factor, 0.7, 1.3))

        comp_walk = float(INTERNAL["feed4_composition_walk_std"])
        state.feed4_composition_shift += (
            comp_walk * sqrt_dt * self._ambient.standard_normal()
            - 0.2 * state.feed4_composition_shift * dt
        )
        state.feed4_composition_shift = float(
            np.clip(state.feed4_composition_shift, -0.06, 0.06)
        )

        cw_walk = float(INTERNAL["cw_inlet_walk_std"])
        state.cw_inlet_shift += (
            cw_walk * sqrt_dt * self._ambient.standard_normal()
            - 0.3 * state.cw_inlet_shift * dt
        )
        state.cw_inlet_shift = float(np.clip(state.cw_inlet_shift, -4.0, 4.0))

        if idv.get(13):
            state.kinetics_drift += 0.05 * sqrt_dt * self._ambient.standard_normal() - 0.02 * dt
            state.kinetics_drift = float(np.clip(state.kinetics_drift, -0.5, 0.2))
        else:
            state.kinetics_drift *= max(1.0 - 0.5 * dt, 0.0)

    def _cooling_water_inlets(self, idv: Dict[int, float]) -> Dict[str, float]:
        """Reactor / condenser cooling-water inlet temperatures with disturbances."""
        state = self.state
        reactor_inlet = float(INTERNAL["reactor_cw_inlet_nominal"])
        condenser_inlet = float(INTERNAL["condenser_cw_inlet_nominal"])
        reactor_inlet += 5.0 * float(idv.get(4, 0.0))
        condenser_inlet += 5.0 * float(idv.get(5, 0.0))
        reactor_scale = 1.0 if idv.get(11) else 0.15
        condenser_scale = 1.0 if idv.get(12) else 0.15
        reactor_inlet += reactor_scale * state.cw_inlet_shift
        condenser_inlet += condenser_scale * state.cw_inlet_shift
        return {"reactor": reactor_inlet, "condenser": condenser_inlet}

    def _update_temperatures(self, flows, rates, idv: Dict[int, float], dt: float) -> None:
        state = self.state
        effective = flows["xmv_effective"]
        inlets = self._cooling_water_inlets(idv)

        reactor_inlet = inlets["reactor"]
        nominal_driving = float(INTERNAL["reactor_temp_nominal"]) - float(
            INTERNAL["reactor_cw_inlet_nominal"]
        )
        cooling_norm = (effective[9] / self._xmv_nominal[9]) * (
            (state.reactor_temp - reactor_inlet) / nominal_driving
        )
        heat_norm = rates.heat_release
        reactor_target = (
            float(INTERNAL["reactor_temp_nominal"])
            + float(INTERNAL["reactor_heat_gain"]) * (heat_norm - 1.0)
            - float(INTERNAL["reactor_cooling_gain"]) * (cooling_norm - 1.0)
            + 1.5 * float(idv.get(3, 0.0))
        )
        if idv.get(9) and self.enable_process_variation:
            reactor_target += 0.6 * self._ambient.standard_normal()
        if idv.get(10) and self.enable_process_variation:
            reactor_target += 0.4 * self._ambient.standard_normal()
        tau_r = float(INTERNAL["reactor_temp_tau"])
        state.reactor_temp += dt * (reactor_target - state.reactor_temp) / tau_r

        condenser_inlet = inlets["condenser"]
        effluent_total = float(flows["effluent"].sum())
        nominal_sep_driving = float(INTERNAL["separator_temp_nominal"]) - float(
            INTERNAL["condenser_cw_inlet_nominal"]
        )
        cooling_ratio = max(effective[10] / self._xmv_nominal[10], 0.05)
        # np.power instead of ``**``: the ufunc loop is what the batch
        # kernel evaluates row-wise, and np.float64.__pow__ does not take
        # that loop — routing both paths through the same ufunc is what keeps
        # serial and batched runs bitwise-identical (same shape-stable
        # discipline as the einsum PCA projections).
        separator_target = condenser_inlet + nominal_sep_driving * (
            effluent_total / self._effluent_nominal
        ) / np.power(cooling_ratio, 0.6)
        tau_s = float(INTERNAL["separator_temp_tau"])
        state.separator_temp += dt * (separator_target - state.separator_temp) / tau_s

        steam = float(flows["steam"][0])
        f10_total = float(flows["f10"].sum())
        stripper_target = (
            float(INTERNAL["stripper_temp_nominal"])
            + 25.0 * (steam / float(INTERNAL["steam_nominal"]) - 1.0)
            - 12.0 * (f10_total / self._f10_nominal - 1.0)
        )
        tau_c = float(INTERNAL["stripper_temp_tau"])
        state.stripper_temp += dt * (stripper_target - state.stripper_temp) / tau_c

        tau_cw = float(INTERNAL["cw_outlet_tau"])
        nominal_rise = float(INTERNAL["reactor_cw_outlet_nominal"]) - float(
            INTERNAL["reactor_cw_inlet_nominal"]
        )
        reactor_cw_target = reactor_inlet + nominal_rise * (
            (state.reactor_temp - reactor_inlet) / nominal_driving
        ) * np.power(self._xmv_nominal[9] / max(effective[9], 5.0), 0.8)
        state.reactor_cw_outlet += dt * (reactor_cw_target - state.reactor_cw_outlet) / tau_cw

        nominal_cond_rise = float(INTERNAL["separator_cw_outlet_nominal"]) - float(
            INTERNAL["condenser_cw_inlet_nominal"]
        )
        condenser_cw_target = condenser_inlet + nominal_cond_rise * (
            (state.separator_temp - condenser_inlet) / nominal_sep_driving
        ) * np.power(self._xmv_nominal[10] / max(effective[10], 5.0), 0.8)
        state.separator_cw_outlet += (
            dt * (condenser_cw_target - state.separator_cw_outlet) / tau_cw
        )

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def _composition_percent(self, vector: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Scale internal mole fractions so the nominal point matches the table."""
        total = max(float(vector.sum()), 1e-9)
        fraction = vector / total
        return fraction * scale

    def measure(self, noisy: bool = True) -> np.ndarray:
        flows = self._last_flows
        state = self.state
        xmeas = np.zeros(41)

        feed1_total = float(flows["feed1"].sum())
        feed2_total = float(flows["feed2"].sum())
        feed3_total = float(flows["feed3"].sum())
        feed4_total = float(flows["feed4"].sum())
        reactor_in = flows["reactor_in"]
        reactor_feed_total = float(reactor_in.sum())
        purge_total = float(flows["purge_total"][0])
        f10_total = float(flows["f10"].sum())
        f11_total = float(flows["f11"].sum())
        steam = float(flows["steam"][0])

        xmeas[0] = 0.25052 * feed1_total / float(INTERNAL["feed1_nominal"])
        xmeas[1] = 3664.0 * feed2_total / float(INTERNAL["feed2_nominal"])
        xmeas[2] = 4509.3 * feed3_total / float(INTERNAL["feed3_nominal"])
        xmeas[3] = 9.3477 * feed4_total / float(INTERNAL["feed4_nominal"])
        xmeas[4] = 26.902 * state.recycle_flow / self._recycle_nominal
        xmeas[5] = 42.339 * reactor_feed_total / self._reactor_feed_nominal
        xmeas[6] = state.reactor_pressure_kpa
        xmeas[7] = state.reactor_level_percent
        xmeas[8] = state.reactor_temp
        xmeas[9] = 0.33712 * purge_total / self._purge_nominal
        xmeas[10] = state.separator_temp
        xmeas[11] = state.separator_level_percent
        xmeas[12] = state.separator_pressure_kpa
        xmeas[13] = 25.160 * f10_total / self._f10_nominal
        xmeas[14] = state.stripper_level_percent
        xmeas[15] = 3102.2 * (0.5 + 0.5 * state.separator_pressure_kpa / self._sep_pressure_nominal)
        xmeas[16] = 22.949 * f11_total / self._f11_nominal
        xmeas[17] = state.stripper_temp
        xmeas[18] = steam
        xmeas[19] = 341.43 * (state.recycle_flow / self._recycle_nominal) * (
            state.reactor_pressure_kpa / self._pressure_nominal
        )
        xmeas[20] = state.reactor_cw_outlet
        xmeas[21] = state.separator_cw_outlet

        stream6 = self._composition_percent(reactor_in, self._stream6_scale)
        xmeas[22:28] = stream6[:6]

        purge_fraction = self._composition_percent(
            flows["vapor_fraction"], self._purge_scale
        )
        xmeas[28:36] = purge_fraction

        product_fraction = self._composition_percent(
            state.stripper_liquid, self._product_scale
        )
        xmeas[36:41] = product_fraction[3:]

        if noisy:
            return self._noise.apply(xmeas)
        return self._xmeas_registry.clip(xmeas)
