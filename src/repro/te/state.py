"""State vector of the reduced-order Tennessee-Eastman model."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict

import numpy as np

from repro.common.operands import f64
from repro.te.constants import COMPONENTS, INTERNAL

__all__ = ["TEState", "BatchTEState", "QUANTITY_ROWS"]

_LIGHTS = ("A", "B", "C")
_HEAVIES = ("D", "E", "F", "G", "H")

# Constants of the derived quantities, spelled as TEState's properties
# compute them so the batched values stay bitwise-identical; one row each
# for the reactor and the separator (pressures) and for the reactor,
# separator and stripper (levels).  BatchTEState repeats them to its width.
_NOMINAL_PRESSURES = np.array(
    [
        [float(INTERNAL["reactor_pressure_nominal"])],
        [float(INTERNAL["separator_pressure_nominal"])],
    ]
)
_NOMINAL_MOLES = np.array(
    [
        [sum(INTERNAL["reactor_vapor_nominal"].values())],
        [sum(INTERNAL["separator_vapor_nominal"].values())],
    ]
)
_NOMINAL_TEMPS_K = np.array(
    [
        [float(INTERNAL["reactor_temp_nominal"]) + 273.15],
        [float(INTERNAL["separator_temp_nominal"]) + 273.15],
    ]
)
_CAPACITIES = np.array(
    [
        [float(INTERNAL["reactor_liquid_capacity"])],
        [float(INTERNAL["separator_liquid_capacity"])],
        [float(INTERNAL["stripper_liquid_capacity"])],
    ]
)


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


#: Rows of :attr:`BatchTEState.inventory`, each an 8-vector of moles: the
#: vapours, whose totals give the pressures, then the liquids, whose totals
#: give the levels.
INVENTORY_ROWS = (
    "reactor_vapor",
    "separator_vapor",
    "reactor_liquid",
    "separator_liquid",
    "stripper_liquid",
)
#: Rows of :attr:`BatchTEState.lags`: the states that follow a first-order
#: lag, the recycle flow first so the five temperatures form one slice.
LAG_ROWS = (
    "recycle_flow",
    "reactor_temp",
    "separator_temp",
    "stripper_temp",
    "reactor_cw_outlet",
    "separator_cw_outlet",
)
#: Rows of :attr:`BatchTEState.ambient`: the slow random-walk states.
AMBIENT_ROWS = (
    "feed1_pressure_factor",
    "feed4_composition_shift",
    "cw_inlet_shift",
    "kinetics_drift",
)
#: Rows of :attr:`BatchTEState.quantities`, named as the plants' safety
#: quantities are.
QUANTITY_ROWS = (
    "reactor_pressure",
    "separator_pressure",
    "reactor_level",
    "separator_level",
    "stripper_level",
)


def _row_view(name: str, doc: str) -> property:
    """A named field of a stacked state: reads its bound view, writes into
    its stack in place."""

    def set(self, value) -> None:
        getattr(self, name)[...] = value
        self.mark_changed()

    return property(attrgetter(name), set, doc=doc)


class BatchTEState:
    """Dynamic state of ``B`` independent plants, stacked by kind.

    Every field of :class:`TEState` is here too, as a named view into one
    of three stacks: the five molar inventories are one ``(5, B, 8)``
    array (:data:`INVENTORY_ROWS`), the recycle flow and the five
    temperatures one ``(6, B)`` array (:data:`LAG_ROWS`) and the ambient
    random walks one ``(4, B)`` array (:data:`AMBIENT_ROWS`).  Stacking
    along a new leading axis keeps each field one contiguous block.
    Assigning a named field writes into its stack.  The simulation clock
    stays a single scalar because batched runs advance in lockstep.

    The named views, the derived quantities' constants repeated to the
    batch width and their buffers are bound when the state is built and
    when :meth:`take` replaces the stacks, together with :attr:`derive`, the
    closure that derives the pressures, levels and inventory totals into
    those buffers.  Whatever writes into the stacks calls
    :meth:`mark_changed` (or :attr:`derive`) afterwards.  The derived
    arrays are the state's own: the next change writes them again, so a
    caller that keeps one copies it.

    Each derived quantity applies exactly the arithmetic of the
    corresponding :class:`TEState` property, element by element, which is
    what anchors the batch kernel's bitwise equivalence to the serial
    simulator: stacking rows changes how many NumPy calls a step makes,
    never the operations one element sees.
    """

    inventory_totals: np.ndarray
    """Molar total of every inventory, ``(5, B)`` in :data:`INVENTORY_ROWS` order."""
    quantities: np.ndarray
    """The pressures and levels stacked, ``(5, B)`` in :data:`QUANTITY_ROWS`
    order: reactor and separator pressure (kPa gauge), then reactor,
    separator and stripper level (% of capacity)."""
    derive: Callable[[], None]
    """Derives :attr:`inventory_totals` and :attr:`quantities` from the
    stacks, into the same arrays; built per width."""

    def __init__(
        self,
        inventory: np.ndarray,
        lags: np.ndarray,
        ambient: np.ndarray,
        time_hours: float = 0.0,
    ):
        self.inventory = inventory
        self.lags = lags
        self.ambient = ambient
        self.time_hours = time_hours
        self._bind()

    @classmethod
    def nominal(cls, n_rows: int) -> "BatchTEState":
        """``n_rows`` copies of the Downs & Vogel base case."""
        single = TEState.nominal()
        inventory = np.array([getattr(single, name) for name in INVENTORY_ROWS])
        lags = np.array([float(getattr(single, name)) for name in LAG_ROWS])
        ambient = np.array([float(getattr(single, name)) for name in AMBIENT_ROWS])
        return cls(
            inventory=np.tile(inventory[:, None, :], (1, n_rows, 1)),
            lags=np.tile(lags[:, None], (1, n_rows)),
            ambient=np.tile(ambient[:, None], (1, n_rows)),
        )

    def _bind(self) -> None:
        """Bind the named views of the stacks, then build :attr:`derive` over
        the derived quantities' buffers, their scratch and their constants
        at the stacks' width (a call whose operands share one shape skips
        NumPy's broadcasting set-up), and derive."""
        for stack, names in (
            (self.inventory, INVENTORY_ROWS),
            (self.lags, LAG_ROWS),
            (self.ambient, AMBIENT_ROWS),
        ):
            for name, view in zip(names, stack):
                setattr(self, "_" + name, view)
        n_rows = self.n_rows
        pressures, moles, temps_k, capacities = (
            np.repeat(constant, n_rows, axis=1)
            for constant in (_NOMINAL_PRESSURES, _NOMINAL_MOLES, _NOMINAL_TEMPS_K, _CAPACITIES)
        )
        inventory, temperatures = self.inventory, self.lags[1:3]
        totals = self.inventory_totals = np.empty((len(INVENTORY_ROWS), n_rows))
        quantities = self.quantities = np.empty((len(QUANTITY_ROWS), n_rows))
        vapor_totals, liquid_totals = totals[0:2], totals[2:5]
        pressures_out, levels_out = quantities[0:2], quantities[2:5]
        temp_k, moles_ratio = np.empty((2, 2, n_rows))
        liquid_percent = np.empty((3, n_rows))
        kelvin, hundred = f64[273.15], f64[100.0]
        reduce, add, multiply, divide = np.add.reduce, np.add, np.multiply, np.divide

        def derive() -> None:
            reduce(inventory, 2, None, totals)
            add(temperatures, kelvin, temp_k)
            divide(vapor_totals, moles, moles_ratio)
            multiply(pressures, moles_ratio, moles_ratio)
            divide(temp_k, temps_k, temp_k)
            multiply(moles_ratio, temp_k, pressures_out)
            multiply(hundred, liquid_totals, liquid_percent)
            divide(liquid_percent, capacities, levels_out)

        self.derive = derive
        derive()

    @property
    def n_rows(self) -> int:
        """Number of plants in the batch."""
        return self.inventory.shape[1]

    def take(self, indices: np.ndarray) -> None:
        """Keep only the given rows (compaction after trips / early stops)."""
        self.inventory = self.inventory[:, indices]
        self.lags = self.lags[:, indices]
        self.ambient = self.ambient[:, indices]
        self._bind()

    def snapshot_row(self, row: int) -> TEState:
        """Row ``row`` as a serial :class:`TEState` (a copy), on the batch clock."""
        values: Dict[str, object] = {
            name: self.inventory[index, row].copy()
            for index, name in enumerate(INVENTORY_ROWS)
        }
        for stack, names in ((self.lags, LAG_ROWS), (self.ambient, AMBIENT_ROWS)):
            values.update(
                {name: float(stack[index, row]) for index, name in enumerate(names)}
            )
        return TEState(time_hours=self.time_hours, **values)

    def restore_row(self, row: int, state: TEState) -> None:
        """Give row ``row`` the values of ``state``; the batch clock takes
        its clock, which every row shares."""
        for stack, names in (
            (self.inventory, INVENTORY_ROWS),
            (self.lags, LAG_ROWS),
            (self.ambient, AMBIENT_ROWS),
        ):
            for index, name in enumerate(names):
                stack[index, row] = getattr(state, name)
        self.time_hours = state.time_hours
        self.mark_changed()

    # -- derived quantities (row-wise mirrors of TEState) ---------------
    def mark_changed(self) -> None:
        """Derive the quantities anew after the state was updated.

        The pressures, levels and inventory totals are read by the
        measurement map, the flow network and the safety check of every
        step, so they are derived once per state; whatever mutates the
        arrays calls this (or :attr:`derive`, which it runs) afterwards.
        ``inventory_totals`` is the ``(5, B)`` molar total of every
        inventory, ``quantities`` the ``(5, B)`` reactor and separator
        pressure and reactor, separator and stripper level: the serial
        properties' arithmetic, ``pressure * (moles / nominal moles) *
        (kelvin / nominal kelvin)`` and ``100 * total / capacity``, one
        ufunc call per operation.
        """
        self.derive()

    @property
    def reactor_pressure_kpa(self) -> np.ndarray:
        """Reactor pressure (kPa gauge) per row."""
        return self.quantities[0]

    @property
    def separator_pressure_kpa(self) -> np.ndarray:
        """Separator pressure (kPa gauge) per row."""
        return self.quantities[1]

    @property
    def reactor_level_percent(self) -> np.ndarray:
        """Reactor liquid level, % of capacity, per row."""
        return self.quantities[2]

    @property
    def separator_level_percent(self) -> np.ndarray:
        """Separator liquid level, % of capacity, per row."""
        return self.quantities[3]

    @property
    def stripper_level_percent(self) -> np.ndarray:
        """Stripper liquid level, % of capacity, per row."""
        return self.quantities[4]

    def clip_nonnegative(self) -> None:
        """Clamp all molar inventories to be non-negative (numerical guard)."""
        np.maximum(self.inventory, f64[0.0], out=self.inventory)
        self.mark_changed()


for _stack, _rows in (
    ("inventory", INVENTORY_ROWS),
    ("lags", LAG_ROWS),
    ("ambient", AMBIENT_ROWS),
):
    _shape = "``(B, 8)``" if _stack == "inventory" else "``(B,)``"
    for _name in _rows:
        setattr(
            BatchTEState,
            _name,
            _row_view("_" + _name, f"``{_name}`` per row, {_shape}."),
        )
del _name, _stack, _rows, _shape
