"""State vector of the reduced-order Tennessee-Eastman model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.te.constants import COMPONENTS, INTERNAL

__all__ = ["TEState", "BatchTEState"]

_LIGHTS = ("A", "B", "C")
_HEAVIES = ("D", "E", "F", "G", "H")

# Constants of the derived quantities, spelled as TEState's properties
# compute them so the batched values stay bitwise-identical.
_REACTOR_MOLES = sum(INTERNAL["reactor_vapor_nominal"].values())
_REACTOR_TEMP_K = float(INTERNAL["reactor_temp_nominal"]) + 273.15
_REACTOR_PRESSURE = float(INTERNAL["reactor_pressure_nominal"])
_SEPARATOR_MOLES = sum(INTERNAL["separator_vapor_nominal"].values())
_SEPARATOR_TEMP_K = float(INTERNAL["separator_temp_nominal"]) + 273.15
_SEPARATOR_PRESSURE = float(INTERNAL["separator_pressure_nominal"])
_REACTOR_CAPACITY = float(INTERNAL["reactor_liquid_capacity"])
_SEPARATOR_CAPACITY = float(INTERNAL["separator_liquid_capacity"])
_STRIPPER_CAPACITY = float(INTERNAL["stripper_liquid_capacity"])


def _component_vector(values: Dict[str, float]) -> np.ndarray:
    """Expand a sparse ``{component: moles}`` mapping into an 8-vector."""
    vector = np.zeros(len(COMPONENTS))
    for component, amount in values.items():
        vector[COMPONENTS.index(component)] = float(amount)
    return vector


@dataclass
class TEState:
    """Dynamic state of the plant.

    Molar inventories are 8-vectors ordered as :data:`repro.te.constants.COMPONENTS`
    (A, B, C, D, E, F, G, H); entries that are structurally zero for a vessel
    (e.g. heavies in the reactor vapour) simply stay at zero.

    Attributes
    ----------
    reactor_vapor / reactor_liquid:
        Vapour (A-C) and liquid (D-H) inventories of the reactor, kmol.
    separator_vapor / separator_liquid:
        Inventories of the vapour-liquid separator, kmol.
    stripper_liquid:
        Liquid inventory of the product stripper, kmol.
    reactor_temp / separator_temp / stripper_temp:
        Vessel temperatures, deg C.
    reactor_cw_outlet / separator_cw_outlet:
        Cooling-water outlet temperatures, deg C.
    recycle_flow:
        Compressor recycle flow (kmol/h), modelled with a first-order lag.
    feed1_pressure_factor / feed4_composition_shift / cw_inlet_shift:
        Slow ambient random-walk states of the added randomness model.
    time_hours:
        Simulation clock.
    """

    reactor_vapor: np.ndarray
    reactor_liquid: np.ndarray
    separator_vapor: np.ndarray
    separator_liquid: np.ndarray
    stripper_liquid: np.ndarray
    reactor_temp: float
    separator_temp: float
    stripper_temp: float
    reactor_cw_outlet: float
    separator_cw_outlet: float
    recycle_flow: float
    feed1_pressure_factor: float = 1.0
    feed4_composition_shift: float = 0.0
    cw_inlet_shift: float = 0.0
    kinetics_drift: float = 0.0
    time_hours: float = 0.0

    @classmethod
    def nominal(cls) -> "TEState":
        """The base-case operating point of Downs & Vogel."""
        return cls(
            reactor_vapor=_component_vector(INTERNAL["reactor_vapor_nominal"]),
            reactor_liquid=_component_vector(INTERNAL["reactor_liquid_nominal"]),
            separator_vapor=_component_vector(INTERNAL["separator_vapor_nominal"]),
            separator_liquid=_component_vector(INTERNAL["separator_liquid_nominal"]),
            stripper_liquid=_component_vector(INTERNAL["stripper_liquid_nominal"]),
            reactor_temp=float(INTERNAL["reactor_temp_nominal"]),
            separator_temp=float(INTERNAL["separator_temp_nominal"]),
            stripper_temp=float(INTERNAL["stripper_temp_nominal"]),
            reactor_cw_outlet=float(INTERNAL["reactor_cw_outlet_nominal"]),
            separator_cw_outlet=float(INTERNAL["separator_cw_outlet_nominal"]),
            recycle_flow=float(INTERNAL["recycle_nominal"]),
        )

    def copy(self) -> "TEState":
        """A deep copy of the state."""
        return TEState(
            reactor_vapor=self.reactor_vapor.copy(),
            reactor_liquid=self.reactor_liquid.copy(),
            separator_vapor=self.separator_vapor.copy(),
            separator_liquid=self.separator_liquid.copy(),
            stripper_liquid=self.stripper_liquid.copy(),
            reactor_temp=self.reactor_temp,
            separator_temp=self.separator_temp,
            stripper_temp=self.stripper_temp,
            reactor_cw_outlet=self.reactor_cw_outlet,
            separator_cw_outlet=self.separator_cw_outlet,
            recycle_flow=self.recycle_flow,
            feed1_pressure_factor=self.feed1_pressure_factor,
            feed4_composition_shift=self.feed4_composition_shift,
            cw_inlet_shift=self.cw_inlet_shift,
            kinetics_drift=self.kinetics_drift,
            time_hours=self.time_hours,
        )

    # -- derived quantities --------------------------------------------
    @property
    def reactor_level_percent(self) -> float:
        """Reactor liquid level, % of capacity."""
        capacity = float(INTERNAL["reactor_liquid_capacity"])
        return 100.0 * float(self.reactor_liquid.sum()) / capacity

    @property
    def separator_level_percent(self) -> float:
        """Separator liquid level, % of capacity."""
        capacity = float(INTERNAL["separator_liquid_capacity"])
        return 100.0 * float(self.separator_liquid.sum()) / capacity

    @property
    def stripper_level_percent(self) -> float:
        """Stripper liquid level, % of capacity."""
        capacity = float(INTERNAL["stripper_liquid_capacity"])
        return 100.0 * float(self.stripper_liquid.sum()) / capacity

    @property
    def reactor_pressure_kpa(self) -> float:
        """Reactor pressure (kPa gauge) from the vapour inventory and temperature."""
        nominal_moles = sum(INTERNAL["reactor_vapor_nominal"].values())
        nominal_temp_k = float(INTERNAL["reactor_temp_nominal"]) + 273.15
        moles = float(self.reactor_vapor.sum())
        temp_k = self.reactor_temp + 273.15
        nominal_pressure = float(INTERNAL["reactor_pressure_nominal"])
        return nominal_pressure * (moles / nominal_moles) * (temp_k / nominal_temp_k)

    @property
    def separator_pressure_kpa(self) -> float:
        """Separator pressure (kPa gauge) from the vapour inventory and temperature."""
        nominal_moles = sum(INTERNAL["separator_vapor_nominal"].values())
        nominal_temp_k = float(INTERNAL["separator_temp_nominal"]) + 273.15
        moles = float(self.separator_vapor.sum())
        temp_k = self.separator_temp + 273.15
        nominal_pressure = float(INTERNAL["separator_pressure_nominal"])
        return nominal_pressure * (moles / nominal_moles) * (temp_k / nominal_temp_k)

    def clip_nonnegative(self) -> None:
        """Clamp all molar inventories to be non-negative (numerical guard)."""
        # np.clip with no upper bound dispatches to np.maximum; calling the
        # ufunc directly gives the same bits without the wrapper layers.
        np.maximum(self.reactor_vapor, 0.0, out=self.reactor_vapor)
        np.maximum(self.reactor_liquid, 0.0, out=self.reactor_liquid)
        np.maximum(self.separator_vapor, 0.0, out=self.separator_vapor)
        np.maximum(self.separator_liquid, 0.0, out=self.separator_liquid)
        np.maximum(self.stripper_liquid, 0.0, out=self.stripper_liquid)


@dataclass
class BatchTEState:
    """Dynamic state of ``B`` independent plants, stored row-wise.

    The molar inventories become ``(B, 8)`` arrays and every scalar state of
    :class:`TEState` becomes a ``(B,)`` array; the simulation clock stays a
    single scalar because batched runs advance in lockstep.  Each derived
    quantity applies exactly the arithmetic of the corresponding
    :class:`TEState` property as elementwise ufuncs, which is what anchors
    the batch kernel's bitwise equivalence to the serial simulator.
    """

    reactor_vapor: np.ndarray
    reactor_liquid: np.ndarray
    separator_vapor: np.ndarray
    separator_liquid: np.ndarray
    stripper_liquid: np.ndarray
    reactor_temp: np.ndarray
    separator_temp: np.ndarray
    stripper_temp: np.ndarray
    reactor_cw_outlet: np.ndarray
    separator_cw_outlet: np.ndarray
    recycle_flow: np.ndarray
    feed1_pressure_factor: np.ndarray
    feed4_composition_shift: np.ndarray
    cw_inlet_shift: np.ndarray
    kinetics_drift: np.ndarray
    time_hours: float = 0.0
    _derived: Optional[Tuple[np.ndarray, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    #: Names of the per-row array fields (everything except the clock).
    ARRAY_FIELDS = (
        "reactor_vapor",
        "reactor_liquid",
        "separator_vapor",
        "separator_liquid",
        "stripper_liquid",
        "reactor_temp",
        "separator_temp",
        "stripper_temp",
        "reactor_cw_outlet",
        "separator_cw_outlet",
        "recycle_flow",
        "feed1_pressure_factor",
        "feed4_composition_shift",
        "cw_inlet_shift",
        "kinetics_drift",
    )

    @classmethod
    def nominal(cls, n_rows: int) -> "BatchTEState":
        """``n_rows`` copies of the Downs & Vogel base case."""
        single = TEState.nominal()

        def tile_vec(vector: np.ndarray) -> np.ndarray:
            return np.tile(np.asarray(vector, dtype=float), (n_rows, 1))

        def fill(value: float) -> np.ndarray:
            return np.full(n_rows, float(value))

        return cls(
            reactor_vapor=tile_vec(single.reactor_vapor),
            reactor_liquid=tile_vec(single.reactor_liquid),
            separator_vapor=tile_vec(single.separator_vapor),
            separator_liquid=tile_vec(single.separator_liquid),
            stripper_liquid=tile_vec(single.stripper_liquid),
            reactor_temp=fill(single.reactor_temp),
            separator_temp=fill(single.separator_temp),
            stripper_temp=fill(single.stripper_temp),
            reactor_cw_outlet=fill(single.reactor_cw_outlet),
            separator_cw_outlet=fill(single.separator_cw_outlet),
            recycle_flow=fill(single.recycle_flow),
            feed1_pressure_factor=fill(single.feed1_pressure_factor),
            feed4_composition_shift=fill(single.feed4_composition_shift),
            cw_inlet_shift=fill(single.cw_inlet_shift),
            kinetics_drift=fill(single.kinetics_drift),
        )

    @property
    def n_rows(self) -> int:
        """Number of plants in the batch."""
        return self.reactor_vapor.shape[0]

    def take(self, indices: np.ndarray) -> None:
        """Keep only the given rows (compaction after trips / early stops)."""
        for name in self.ARRAY_FIELDS:
            setattr(self, name, getattr(self, name)[indices])
        self._derived = None

    # -- derived quantities (row-wise mirrors of TEState) ---------------
    def mark_changed(self) -> None:
        """Drop the stored derived quantities after the state was updated.

        The pressures and levels are read by the measurement map, the flow
        network and the safety check of every step, so they are computed
        once per state; whatever mutates the arrays calls this afterwards.
        """
        self._derived = None

    def _derived_values(self) -> Tuple[np.ndarray, ...]:
        """Reactor and separator pressure, reactor, separator and stripper
        level, computed on first use after a change."""
        derived = self._derived
        if derived is None:
            moles = np.add.reduce(self.reactor_vapor, axis=1)
            temp_k = self.reactor_temp + 273.15
            reactor_pressure = (
                _REACTOR_PRESSURE * (moles / _REACTOR_MOLES) * (temp_k / _REACTOR_TEMP_K)
            )
            moles = np.add.reduce(self.separator_vapor, axis=1)
            temp_k = self.separator_temp + 273.15
            separator_pressure = (
                _SEPARATOR_PRESSURE
                * (moles / _SEPARATOR_MOLES)
                * (temp_k / _SEPARATOR_TEMP_K)
            )
            derived = self._derived = (
                reactor_pressure,
                separator_pressure,
                100.0 * np.add.reduce(self.reactor_liquid, axis=1) / _REACTOR_CAPACITY,
                100.0 * np.add.reduce(self.separator_liquid, axis=1) / _SEPARATOR_CAPACITY,
                100.0 * np.add.reduce(self.stripper_liquid, axis=1) / _STRIPPER_CAPACITY,
            )
        return derived

    @property
    def reactor_pressure_kpa(self) -> np.ndarray:
        """Reactor pressure (kPa gauge) per row."""
        return self._derived_values()[0]

    @property
    def separator_pressure_kpa(self) -> np.ndarray:
        """Separator pressure (kPa gauge) per row."""
        return self._derived_values()[1]

    @property
    def reactor_level_percent(self) -> np.ndarray:
        """Reactor liquid level, % of capacity, per row."""
        return self._derived_values()[2]

    @property
    def separator_level_percent(self) -> np.ndarray:
        """Separator liquid level, % of capacity, per row."""
        return self._derived_values()[3]

    @property
    def stripper_level_percent(self) -> np.ndarray:
        """Stripper liquid level, % of capacity, per row."""
        return self._derived_values()[4]

    def clip_nonnegative(self) -> None:
        """Clamp all molar inventories to be non-negative (numerical guard)."""
        np.maximum(self.reactor_vapor, 0.0, out=self.reactor_vapor)
        np.maximum(self.reactor_liquid, 0.0, out=self.reactor_liquid)
        np.maximum(self.separator_vapor, 0.0, out=self.separator_vapor)
        np.maximum(self.separator_liquid, 0.0, out=self.separator_liquid)
        np.maximum(self.stripper_liquid, 0.0, out=self.stripper_liquid)
        self._derived = None
