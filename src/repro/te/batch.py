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
* a Python-float operand may become a 0-d float64 array
  (:data:`repro.common.operands.f64`) or a row of the same value repeated
  to the batch width: the ufunc sees the same float64 value;
* a two-operand product or sum may swap its operands (IEEE multiplication
  and addition commute), so ``per_percent * valve`` becomes one ``valve *
  gain_row`` product over the whole command matrix;
* it never uses ``@``, ``einsum`` or ``dot``, never swaps ``.clip`` for
  ``minimum``/``maximum`` (they differ on ``-0.0``), and hands ``exp`` and
  ``power`` their input as before: a fresh contiguous array and a 0-d
  exponent (NumPy may take another loop for another layout).

Why: at a batch's widths a NumPy call costs per call, not per element, and
its operands set most of that cost.  With numpy 2.4 on a 2-vCPU Xeon VM, a
same-shape call costs about 0.4 µs, a Python-float operand adds half as
much again, and a broadcast operand doubles it or more, so the step makes
few calls, each over operands of one shape.

The interpreter's work around those calls costs as much again, so each
width is bound once: the widened constants, the 0-d operands of the
calibrated scalars, the views of the state's stacks, two flow tables and
the output buffers of the stacked calls are bound when the batch forms or
compacts, and a step writes into them (``out=``, which gives the bits of a
fresh result) instead of slicing, allocating or looking them up.  What a
step hands out is made fresh or copied, and the flow table the next
measurement reads is double-buffered, so nothing a caller holds is written
by the next step.

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
the rows, which draw in lockstep, read one slice of it per step.  A row
moves to another batch (:meth:`BatchTEPlant.snapshot_row`,
:meth:`BatchTEPlant.restore_rows`) with a copy of each generator and the
draws it had fetched but not read, which it reads first.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.common.operands import f64
from repro.common.randomness import RandomStream
from repro.process.disturbances import BatchIdv
from repro.te.constants import COMPONENTS, INTERNAL, N_XMV
from repro.te.plant import _HEAVY_MASK, _IDX, _LIGHT_MASK, TEPlant
from repro.te.state import BatchTEState, TEState

__all__ = ["BatchTEPlant", "PlantRow"]

#: The heavy (D-H) components, as a slice of a component vector (the ones
#: of ``_HEAVY_MASK``).
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
_FEED1, _FEED2, _FEED3, _FEED4, _EFFLUENT, _F10, _F11, _REACTOR_IN, _VAPOR_FRACTION = range(9)

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
#: (axis 1), which :meth:`BatchTEPlant._bind` widens to the batch.
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
    # Gains of the nine flow readings, in _HEAD_COLUMNS order.
    "metered_gains": _column(
        0.25052, 3664.0, 4509.3, 9.3477, 25.160, 22.949, 42.339, 26.902, 0.33712
    ),
}

#: XMEAS columns of the first 22 readings, in the order
#: :meth:`BatchTEPlant.measure` stacks them: the nine flow readings ``gain *
#: total / nominal`` (feeds 1-4, streams 10 and 11, reactor feed, recycle,
#: purge), the readings copied from the state (the pressures and levels of
#: :attr:`BatchTEState.quantities`, the five temperatures, the steam flow),
#: then XMEAS(16) and XMEAS(20).
_HEAD_COLUMNS = np.array(
    [0, 1, 2, 3, 13, 16, 5, 4, 9, 6, 12, 7, 11, 14, 8, 10, 17, 20, 21, 18, 15, 19]
)
#: The stacked rows in XMEAS order: one ``take`` lays them out.
_HEAD_ORDER = np.argsort(_HEAD_COLUMNS)


class _DrawBlock:
    """Each row's draws of one random stream, fetched a block at a time into
    one buffer whose axis 0 is the draw and axis 1 the row.

    Every row has the same number of draws buffered, so one shared cursor
    reads them.  :meth:`snapshot_row` and :meth:`restore` move a row's
    stream between batches: a copy of its generator plus the draws it had
    fetched but not read, which come first when the row is restored.
    """

    _generators: List[np.random.Generator]
    _buffer: np.ndarray
    _cursor: int
    _block: int

    def _fresh(self, generator: np.random.Generator, count: int) -> np.ndarray:
        """``count`` further buffered draws of one row's generator."""
        raise NotImplementedError

    def take(self, indices: Sequence[int]) -> None:
        """Keep only the given rows."""
        self._generators = [self._generators[i] for i in indices]
        self._buffer = self._buffer[:, indices]

    def snapshot_row(self, row: int) -> Tuple[np.random.Generator, np.ndarray]:
        """A copy of row ``row``'s generator and of its unread draws."""
        return copy.deepcopy(self._generators[row]), self._buffer[self._cursor :, row].copy()

    def restore(self, rows: Sequence[Tuple[np.random.Generator, np.ndarray]]) -> None:
        """Restart the block from one :meth:`snapshot_row` pair per row.

        Each row reads its unread draws first, then fresh ones from a copy of
        its generator (a restored row never shares a generator), topped up
        so that every row has the same number buffered.
        """
        self._generators = [copy.deepcopy(generator) for generator, _ in rows]
        length = max([self._block] + [len(unread) for _, unread in rows])
        buffer = np.empty((length, len(rows)) + self._buffer.shape[2:])
        for row, (generator, (_, unread)) in enumerate(zip(self._generators, rows)):
            buffer[: len(unread), row] = unread
            buffer[len(unread) :, row] = self._fresh(generator, length - len(unread))
        self._buffer, self._cursor = buffer, 0


class _NoiseBlock(_DrawBlock):
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
        self._block = max(int(block), 1)
        self._buffer = np.empty((self._block, len(self._generators), len(scale)))
        self._cursor = len(self._buffer)

    def _fresh(self, generator: np.random.Generator, count: int) -> np.ndarray:
        return generator.standard_normal((count, len(self._scale))) * self._scale

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


class _WalkBlock(_DrawBlock):
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

    def _fresh(self, generator: np.random.Generator, count: int) -> np.ndarray:
        return generator.standard_normal(count)

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

    base: Optional[np.ndarray] = None
    kinetics: Optional[np.ndarray] = None
    reactor_9: Optional[np.ndarray] = None
    reactor_10: Optional[np.ndarray] = None


class _FlowTable:
    """One flow table of a lockstep width, the batched mirror of the serial
    plant's flow dictionary: the arrays a step writes its stream table
    into, and the views of them that the step and the next measurement
    read, bound once per width.

    Per-row scalars of the serial path are ``(B,)`` arrays; the component
    vectors of the nine streams of :data:`STREAM_ROWS` are one ``(9, B,
    8)`` stack, ``streams``.  Feeds 2 and 3 carry only D and E: their other
    columns are zero from allocation on and never written.  The light
    columns of ``condensation`` hold the base fractions for good; each step
    writes the heavy ones.
    """

    #: The entries a :class:`PlantRow` copies, and whether their rows run
    #: along axis 1 (the others along axis 0).
    ENTRIES = (
        ("xmv_effective", False),
        ("streams", True),
        ("totals", True),
        ("condensation", False),
        ("overhead", False),
        ("purge_total", False),
        ("recycle_target", False),
        ("steam", False),
        ("steam_excess", False),
    )

    def __init__(self, n_rows: int, condensation_base: np.ndarray):
        effective = self.xmv_effective = np.empty((n_rows, N_XMV))
        valve_flows = self.valve_flows = np.empty((n_rows, N_XMV))
        streams = self.streams = np.zeros((len(STREAM_ROWS), n_rows, len(COMPONENTS)))
        totals = self.totals = np.empty((len(STREAM_ROWS), n_rows))
        self.condensation = np.repeat(condensation_base[None], n_rows, axis=0)
        self.heavy_condensation = self.condensation[:, _HEAVIES]
        self.overhead = np.empty((n_rows, len(COMPONENTS)))
        self.purge_total = np.empty(n_rows)
        self.recycle_target = np.empty(n_rows)
        self.steam_excess = np.empty(n_rows)
        (
            self.feed1,
            self.feed2,
            self.feed3,
            self.feed4,
            self.effluent,
            self.f10,
            self.f11,
            self.reactor_in,
            self.vapor_fraction,
        ) = streams
        self.f10_f11 = streams[_F10 : _F11 + 1]
        self.feed2_d = self.feed2[:, _IDX["D"]]
        self.feed3_e = self.feed3[:, _IDX["E"]]
        # Per XMV column, the flow one percent of opening passes (see
        # BatchTEPlant._calibrate): feeds 2, 3, 1 and 4, the purge, the two
        # level-driven streams and the steam.
        self.feed2_flow, self.feed3_flow = valve_flows[:, 0], valve_flows[:, 1]
        self.feed1_flow, self.feed4_flow = valve_flows[:, 2], valve_flows[:, 3]
        self.feed4_flow_column = valve_flows[:, 3:4]
        self.purge_flow = valve_flows[:, 5]
        self.level_flows = valve_flows[:, 6:8].T
        self.steam = valve_flows[:, 8]
        self.recycle_valve, self.condenser_valve = effective[:, 4], effective[:, 10]
        # XMV(10) and XMV(11), the two cooling-water valves, as a (2, B) view.
        self.cw_valves = effective[:, 9:11].T
        # What measure() stacks and reads.
        self.head_sources = (
            totals[0:4],
            totals[_F10 : _REACTOR_IN + 1],
            self.purge_total[None],
            self.steam[None],
        )
        self.lag_flow_totals = totals[_EFFLUENT : _F10 + 1]
        self.gas_streams, self.gas_totals = streams[_REACTOR_IN:], totals[_REACTOR_IN:]


@dataclass
class PlantRow:
    """One row of a :class:`BatchTEPlant` at one instant, copied out of it.

    ``state`` is the row's dynamic state, ``flows`` its row of the last flow
    table (what the next measurement reads), ``stuck_cw`` the held positions
    of the two cooling-water valves (NaN: not held), and ``noise`` and
    ``ambient`` its two random streams as :meth:`_DrawBlock.snapshot_row`
    gives them.
    """

    state: TEState
    flows: Dict[str, np.ndarray]
    stuck_cw: Tuple[float, float]
    noise: Tuple[np.random.Generator, np.ndarray]
    ambient: Tuple[np.random.Generator, np.ndarray]


class BatchTEPlant(TEPlant):
    """``B`` Tennessee-Eastman plants advanced in lockstep.

    Everything a step reads that depends only on the batch's rows and
    width — the constants widened to the width, the views of the state's
    stacks, two flow tables and the buffers of the stacked calls — is bound
    by :meth:`_bind` when the batch forms or compacts (:meth:`take`); a
    step runs its ufunc calls into them.  The flow table is double-buffered:
    a step, like :meth:`restore_rows`, writes the table the step before it
    did not, so the table the last :meth:`measure` read is still whole
    while the next one is written.  What the plant hands out is made fresh:
    each :meth:`measure` returns a new array and each :class:`PlantRow`
    holds copies.

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
        self._dt = None  # the step the dt operands are bound for
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
            f64[float(driving)] for driving in _ROW_CONSTANTS["cw_driving"][:, 0]
        )
        self._row_constants = dict(
            _ROW_CONSTANTS,
            cw_xmv_nominal=self._xmv_nominal[9:11, None],
            # Per XMV column, the flow one percent of opening passes: feeds
            # 2, 3, 1 and 4, the purge, streams 10 and 11 and the steam; the
            # columns no flow reads are padded with 1.0.
            valve_gains=np.array(
                [
                    [
                        self._feed2_per_percent,
                        self._feed3_per_percent,
                        self._feed1_per_percent,
                        self._feed4_per_percent,
                        1.0,
                        self._purge_per_percent,
                        self._f10_per_percent,
                        self._f11_per_percent,
                        self._steam_per_percent,
                        1.0,
                        1.0,
                        1.0,
                    ]
                ]
            ),
            # Nominals of the nine flow readings, in _HEAD_COLUMNS order.
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
            # Nominal effluent and stream-10 totals (temperature targets).
            lag_flow_nominals=_column(self._effluent_nominal, self._f10_nominal),
            # Per-component rows, (1, 8), and the heavy (D-H) part of two.
            feed1_comp=self._feed1_comp[None],
            feed4_comp=self._feed4_comp_base[None],
            k_reactor=self._k_reactor[None],
            strip_base=self._strip_base[None],
            condensation_heavy=self._cond_base[None, _HEAVIES],
            product_scale=self._product_scale[None, _HEAVIES],
            # The physical bounds of every XMV and XMEAS, (1, 12) and (1, 41).
            xmv_lower=self._xmv_registry.lower_bounds()[None],
            xmv_upper=self._xmv_registry.upper_bounds()[None],
            xmeas_lower=self._xmeas_registry.lower_bounds()[None],
            xmeas_upper=self._xmeas_registry.upper_bounds()[None],
        )
        # The calibrated scalars a step reads, as operands.
        self._feed4_base_ac = (
            f64[self._feed4_comp_base[_IDX["A"]]],
            f64[self._feed4_comp_base[_IDX["C"]]],
        )
        self._operand_feed1_capacity = f64[self._feed1_capacity]
        self._operand_sep_pressure = f64[self._sep_pressure_nominal]
        self._operand_pressure = f64[self._pressure_nominal]
        self._operand_recycle = f64[self._recycle_nominal]
        self._operand_recycle_valve = f64[self._xmv_nominal[4]]
        self._operand_condenser_valve = f64[self._xmv_nominal[10]]

    def _bind(self) -> None:
        """Bind everything a step reads that depends only on the batch's
        rows and width.

        The stacked calls' constants are widened to the width: a ufunc call
        whose operands share one shape skips NumPy's broadcasting set-up,
        which costs more than the arithmetic at a batch's sizes; a constant
        repeated along the row axis gives every element the same operand,
        so no bit changes.  The row axis is the constant's length-1 axis:
        axis 0 of a per-row vector ``(1, n)``, axis 1 of a stacked column
        ``(k, 1)`` or stack ``(k, 1, 8)``.  Then the views of the state's
        stacks, the two flow tables and the buffers of the stacked calls.
        """
        state = self.state
        n_rows = state.n_rows
        wide = self._wide = {
            name: np.repeat(constant, n_rows, axis=0 if constant.shape[0] == 1 else 1)
            for name, constant in self._row_constants.items()
        }
        self._kinetics.bind(n_rows)
        self._tables = [_FlowTable(n_rows, self._cond_base) for _ in range(2)]

        # Views of the state's stacks.
        inventory, lags, ambient = state.inventory, state.lags, state.ambient
        self._inventory = inventory
        self._reactor_stack = inventory[0:3:2]
        self._separator_vapor = inventory[1]
        self._level_inventories = inventory[3:5]
        self._stripper_heavies = inventory[4][:, _HEAVIES]
        self._lags = lags
        self._recycle_flow, self._reactor_temp = lags[0], lags[1]
        self._separator_temp = lags[2]
        self._recycle_column = lags[0][:, None]
        self._vessel_temps, self._cw_outlets = lags[1:4], lags[4:6]
        self._reactor_separator_temps = lags[1:3]
        self._lagged = lags[0:4]
        self._recycle_row, self._temperatures = lags[0][None], lags[1:]
        self._walks = ambient[0:3]
        self._feed1_walk, self._walk_shifts = ambient[0], ambient[1:3]
        self._feed1_pressure, self._feed4_shift = ambient[0], ambient[1]
        self._cw_inlet_shift, self._kinetics_drift = ambient[2], ambient[3]

        # Buffers of the stacked calls, with their views.
        self._feed1_total = np.empty(n_rows)
        self._feed1_total_column = self._feed1_total[:, None]
        composition = self._feed4_composition = wide["feed4_comp"].copy()
        self._feed4_a = composition[:, _IDX["A"]]
        self._feed4_c = composition[:, _IDX["C"]]
        self._feed4_sum = np.empty(n_rows)
        self._feed4_sum_column = self._feed4_sum[:, None]
        self._feed4_fractions = np.empty((n_rows, len(COMPONENTS)))
        # Separator vapour and reactor, separator and stripper liquid
        # totals, floored.
        floored = self._floored_totals = np.empty((4, n_rows))
        self._floored_vapor_column = floored[0, :, None]
        self._floored_level_columns = floored[2:4, :, None]
        self._pressure_factor = np.empty(n_rows)
        self._pressure_factor_column = self._pressure_factor[:, None]
        masked = self._masked = np.empty((2, n_rows, len(COMPONENTS)))
        self._masked_vapor, self._masked_liquid = masked
        self._condenser_shift = np.empty(n_rows)
        self._condenser_shift_column = self._condenser_shift[:, None]
        self._level_flows = np.empty((2, n_rows))
        self._level_flow_columns = self._level_flows[:, :, None]
        self._steam_factor = np.empty(n_rows)
        self._steam_factor_column = self._steam_factor[:, None]
        self._strip = np.empty((n_rows, len(COMPONENTS)))
        change = self._change = np.empty_like(inventory)
        self._change_rows = tuple(change)
        self._vapor_out_total = np.empty(n_rows)
        self._vapor_out_total_column = self._vapor_out_total[:, None]
        self._vapor_out = np.empty((n_rows, len(COMPONENTS)))
        step = self._walk_step = np.empty((3, n_rows))
        self._feed1_step, self._shift_steps = step[0], step[1:3]
        noise = self._walk_noise = np.empty((3, n_rows))
        self._feed1_noise, self._shift_noise = noise[0], noise[1:3]
        self._base_draws = _AmbientDraws()
        inlets = self._cw_inlet_temps = np.empty((2, n_rows))
        self._reactor_inlet, self._condenser_inlet = inlets
        targets = self._targets = np.empty((4, n_rows))
        self._recycle_target_row, self._reactor_target = targets[0], targets[1]
        self._separator_target, self._stripper_target = targets[2], targets[3]
        valve_ratios = self._valve_ratios = np.empty((2, n_rows))
        self._reactor_valve_ratio, self._condenser_valve_ratio = valve_ratios
        flow_ratios = self._flow_ratios = np.empty((2, n_rows))
        self._effluent_ratio, self._f10_ratio = flow_ratios
        head = self._head = np.empty((len(_HEAD_COLUMNS), n_rows))
        self._metered, self._head_stacked = head[0:9], head[:20]
        self._separator_pressure_reading, self._compressor_work = head[20], head[21]
        xmeas = self._xmeas
        # The first 22 readings, (22, B): one ``take`` lays them out.
        self._xmeas_head = xmeas[:, :22].T
        self._xmeas_stream6, self._xmeas_purge = xmeas[:, 22:28], xmeas[:, 28:36]
        self._xmeas_product = xmeas[:, 36:41]
        self._gas_floor = np.empty((2, n_rows))
        self._gas_floor_columns = self._gas_floor[:, :, None]
        fractions = self._gas_fractions = np.empty((2, n_rows, len(COMPONENTS)))
        self._stream6_fractions = fractions[0, :, :6]
        self._purge_fractions = fractions[1]
        self._stripper_floor = np.empty(n_rows)
        self._stripper_floor_column = self._stripper_floor[:, None]

    def _bind_dt(self, dt: float) -> None:
        """Bind the operands a step of ``dt`` hours reads."""
        self._dt = dt
        self._dt_operand = f64[dt]
        self._sqrt_dt = f64[np.sqrt(dt)]
        self._drift_decay = f64[max(1.0 - 0.5 * dt, 0.0)]

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
        self._cw_held = False
        self._xmeas = np.empty((n_rows, len(self._xmeas_registry)))
        self._bind()
        self._last_flows = self._tables[0]
        self._compute_flows_batch(
            np.tile(self._xmv_nominal, (n_rows, 1)), BatchIdv.none(n_rows), self._last_flows
        )
        np.add.reduce(self._last_flows.streams, axis=2, out=self._last_flows.totals)

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
        last = self._last_flows
        self._bind()
        flows = self._last_flows = self._tables[0]
        for name, row_axis_1 in _FlowTable.ENTRIES:
            value = getattr(last, name)
            getattr(flows, name)[...] = value[:, indices] if row_axis_1 else value[indices]

    def snapshot_row(self, row: int) -> PlantRow:
        """Everything row ``row``'s later steps read, copied out of the batch."""
        flows = self._last_flows
        return PlantRow(
            state=self.state.snapshot_row(row),
            flows={
                name: (
                    getattr(flows, name)[:, row] if row_axis_1 else getattr(flows, name)[row]
                ).copy()
                for name, row_axis_1 in _FlowTable.ENTRIES
            },
            stuck_cw=(
                float(self._stuck_reactor_cw_rows[row]),
                float(self._stuck_condenser_cw_rows[row]),
            ),
            noise=self._noise_draws.snapshot_row(row),
            ambient=self._ambient_draws.snapshot_row(row),
        )

    def restore_rows(self, rows: Sequence[PlantRow]) -> None:
        """Give row ``i`` the plant of ``rows[i]``, one snapshot per row.

        The rows go on from where their snapshots were taken, bit for bit,
        each on a copy of its own random streams; every snapshot must be
        taken at the same clock, which the batch shares.  The restored flow
        table is written into the table the last step did not write, so the
        one before the restore stays whole.
        """
        if len(rows) != self.n_rows:
            raise ConfigurationError(
                f"expected {self.n_rows} row snapshots, got {len(rows)}"
            )
        for index, row in enumerate(rows):
            self.state.restore_row(index, row.state)
        flows = self._spare_flows()
        for name, row_axis_1 in _FlowTable.ENTRIES:
            getattr(flows, name)[...] = np.stack(
                [row.flows[name] for row in rows], axis=1 if row_axis_1 else 0
            )
        self._last_flows = flows
        self._stuck_reactor_cw_rows = np.array([row.stuck_cw[0] for row in rows])
        self._stuck_condenser_cw_rows = np.array([row.stuck_cw[1] for row in rows])
        self._cw_held = True
        self._noise_draws.restore([row.noise for row in rows])
        self._ambient_draws.restore([row.ambient for row in rows])

    def _spare_flows(self) -> _FlowTable:
        """The flow table the last step did not write."""
        first, second = self._tables
        return second if self._last_flows is first else first

    # ------------------------------------------------------------------
    # Flow network (row-wise mirror of TEPlant._compute_flows)
    # ------------------------------------------------------------------
    def _stick_cw_valves(self, effective: np.ndarray, idv: BatchIdv) -> None:
        """Row-wise valve sticking, mirroring :meth:`TEPlant._effective_xmv`."""
        for index, stuck in (
            (14, self._stuck_reactor_cw_rows),
            (15, self._stuck_condenser_cw_rows),
        ):
            if index not in idv.possible:
                stuck.fill(np.nan)
                continue
            column = 9 if index == 14 else 10
            active = idv.active(index)
            newly = active & np.isnan(stuck)
            stuck[newly] = effective[newly, column]
            effective[:, column] = np.where(active, stuck, effective[:, column])
            stuck[~active] = np.nan
        self._cw_held = 14 in idv.possible or 15 in idv.possible

    def _feed4_composition_batch(self, idv: BatchIdv) -> np.ndarray:
        """Row-wise stream-4 composition (:meth:`TEPlant._feed4_composition`)."""
        possible = idv.possible
        shift = self._feed4_shift
        if 8 in possible:
            shift = np.where(idv.active(8), shift * f64[8.0], shift)
        if 1 in possible:
            shift = np.where(idv.active(1), shift + f64[-0.05] * idv.value(1), shift)
        a, b, c = _IDX["A"], _IDX["B"], _IDX["C"]
        if 2 in possible:
            composition = self._wide["feed4_comp"].copy()
            column_a, column_c = composition[:, a], composition[:, c]
        else:
            # Only the A and C columns move: the rest hold the base.
            composition = self._feed4_composition
            column_a, column_c = self._feed4_a, self._feed4_c
        base_a, base_c = self._feed4_base_ac
        floor = f64[0.01]
        np.maximum(base_a + shift, floor, out=column_a)
        np.maximum(base_c - shift, floor, out=column_c)
        if 2 in possible:
            active2 = idv.active(2)
            extra_b = f64[0.025] * idv.value(2)
            half_b = extra_b / f64[2.0]
            composition[:, b] = np.where(
                active2, composition[:, b] + extra_b, composition[:, b]
            )
            composition[:, a] = np.where(
                active2,
                np.maximum(composition[:, a] - half_b, floor),
                composition[:, a],
            )
            composition[:, c] = np.where(
                active2,
                np.maximum(composition[:, c] - half_b, floor),
                composition[:, c],
            )
        np.add.reduce(composition, axis=1, out=self._feed4_sum)
        return np.divide(composition, self._feed4_sum_column, out=self._feed4_fractions)

    def _compute_flows_batch(
        self, xmv: np.ndarray, idv: BatchIdv, flows: _FlowTable
    ) -> None:
        """Row-wise stream table into ``flows``, mirroring
        :meth:`TEPlant._compute_flows`.

        Every expression keeps the serial operand order so each row stays
        bitwise-identical.
        """
        wide = self._wide
        state = self.state
        possible = idv.possible
        effective = flows.xmv_effective
        np.asarray(xmv, dtype=float).clip(wide["xmv_lower"], wide["xmv_upper"], out=effective)
        if self._cw_held or 14 in possible or 15 in possible:
            self._stick_cw_valves(effective, idv)
        # The eight flows proportional to a valve opening, in one product:
        # column j is the serial ``per_percent * effective[j]`` (a product
        # commutes; the columns no flow reads are multiplied by 1.0).
        np.multiply(effective, wide["valve_gains"], out=flows.valve_flows)

        feed1_total = self._feed1_total
        np.minimum(flows.feed1_flow, self._operand_feed1_capacity, out=feed1_total)
        if 6 in possible:
            feed1_total *= np.where(idv.active(6), f64[0.0], f64[1.0])
        feed1_total *= self._feed1_pressure
        np.multiply(self._feed1_total_column, wide["feed1_comp"], out=flows.feed1)

        flows.feed2_d[...] = flows.feed2_flow
        flows.feed3_e[...] = flows.feed3_flow
        feed4_total = flows.feed4_flow_column
        if 7 in possible:
            feed4_total = (
                flows.feed4_flow * np.where(idv.active(7), f64[0.8], f64[1.0])
            )[:, None]
        np.multiply(feed4_total, self._feed4_composition_batch(idv), out=flows.feed4)

        totals, quantities = state.inventory_totals, state.quantities
        pressure_ratio = quantities[1] / self._operand_sep_pressure

        np.multiply(flows.purge_flow, np.square(pressure_ratio), out=flows.purge_total)
        np.multiply(
            self._operand_recycle * pressure_ratio,
            f64[1.0]
            + f64[0.4] * (self._operand_recycle_valve - flows.recycle_valve) / f64[100.0],
            out=flows.recycle_target,
        )

        # Separator vapour and reactor, separator and stripper liquid totals.
        np.maximum(totals[1:5], f64[1e-9], out=self._floored_totals)
        np.divide(self._separator_vapor, self._floored_vapor_column, out=flows.vapor_fraction)

        # Effluent: k * (vapour * LIGHT * pressure_factor + liquid * HEAVY).
        pressure_factor = self._pressure_factor
        np.maximum(quantities[0], f64[0.0], out=pressure_factor)
        np.divide(pressure_factor, self._operand_pressure, out=pressure_factor)
        masked_vapor = self._masked_vapor
        np.multiply(self._reactor_stack, wide["reactor_masks"], out=self._masked)
        np.multiply(masked_vapor, self._pressure_factor_column, out=masked_vapor)
        effluent = flows.effluent
        np.add(masked_vapor, self._masked_liquid, out=effluent)
        np.multiply(wide["k_reactor"], effluent, out=effluent)

        np.add(
            f64[_CONDENSATION_COOLING_GAIN]
            * (flows.condenser_valve - self._operand_condenser_valve)
            / f64[100.0],
            f64[0.004] * (f64[_SEPARATOR_TEMP_NOMINAL] - self._separator_temp),
            out=self._condenser_shift,
        )
        # The condenser shift moves only the heavy components' fractions.
        heavy = flows.heavy_condensation
        np.add(wide["condensation_heavy"], self._condenser_shift_column, out=heavy)
        heavy.clip(f64[0.02], f64[0.98], out=heavy)

        # Streams 10 and 11 leave the separator and the stripper at a rate
        # set by the valve and the square root of the vessel's level.
        levels = np.maximum(quantities[3:5], f64[0.0])
        np.multiply(flows.level_flows, np.sqrt(levels / f64[50.0]), out=self._level_flows)
        np.divide(
            self._level_flow_columns * self._level_inventories,
            self._floored_level_columns,
            out=flows.f10_f11,
        )

        # steam / nominal - 1, which the stripper temperature target reads too.
        steam_excess = flows.steam_excess
        np.subtract(flows.steam / f64[_STEAM_NOMINAL], f64[1.0], out=steam_excess)
        np.add(
            f64[1.0], f64[_STRIPPING_STEAM_GAIN] * steam_excess, out=self._steam_factor
        )
        strip = self._strip
        np.multiply(wide["strip_base"], self._steam_factor_column, out=strip)
        strip.clip(f64[0.0], f64[0.995], out=strip)
        overhead = flows.overhead
        np.multiply(strip, flows.f10, out=overhead)

        np.add(
            flows.feed1
            + flows.feed2
            + flows.feed3
            + flows.feed4
            + self._recycle_column * flows.vapor_fraction,
            overhead,
            out=flows.reactor_in,
        )

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
        possible = idv.possible
        if not (13 in possible or 9 in possible or 10 in possible):
            # Every row takes just the three base walks.
            draws = self._base_draws
            draws.base = self._ambient_draws.base()
            return draws
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
        dt = float(dt_hours)
        if dt != self._dt:
            self._bind_dt(dt)

        draws = self._draw_ambient(idv)
        if draws is not None:
            self._update_ambient_batch(idv, draws)
        flows = self._spare_flows()
        self._compute_flows_batch(manipulated, idv, flows)
        self._last_flows = flows

        kinetics = self._kinetics
        kinetics.rates_batch(self._reactor_stack, self._reactor_temp, self._kinetics_drift)
        production = kinetics.consumption_batch()

        effluent, f10, cond = flows.effluent, flows.f10, flows.condensation
        vapor_fraction = flows.vapor_fraction

        # One (5, B, 8) increment of the five inventories, row for row of
        # BatchTEState.inventory; the reactor's change enters twice and is
        # masked below to its vapour and its liquid.
        change = self._change
        reactor_vapor, separator_vapor, reactor_liquid, separator_liquid, stripper = (
            self._change_rows
        )
        np.subtract(flows.reactor_in + production, effluent, out=reactor_vapor)
        reactor_liquid[...] = reactor_vapor
        np.add(self._recycle_flow, flows.purge_total, out=self._vapor_out_total)
        vapor_out = self._vapor_out
        np.multiply(self._vapor_out_total_column, vapor_fraction, out=vapor_out)
        np.subtract(effluent * (f64[1.0] - cond), vapor_out, out=separator_vapor)
        np.subtract(effluent * cond, f10, out=separator_liquid)
        np.subtract(f10 - flows.overhead, flows.f11, out=stripper)
        change *= self._dt_operand
        change *= self._wide["balance_masks"]
        inventory = self._inventory
        inventory += change
        np.maximum(inventory, f64[0.0], out=inventory)

        self._update_lags_batch(flows, idv, draws)

        state = self.state
        state.time_hours += dt
        state.mark_changed()

    def _update_ambient_batch(self, idv: BatchIdv, draws: _AmbientDraws) -> None:
        """Row-wise ambient walks (mirrors :meth:`TEPlant._update_ambient`).

        The three base walks run as one ``(3, B)`` update: ``walk + (std *
        sqrt(dt) * draw + reversion * dt)``, where the feed-1 factor reverts
        by ``+ 0.15 * (1 - x) * dt`` and the two shifts by ``- k * x * dt``.
        """
        wide = self._wide
        dt_operand, sqrt_dt = self._dt_operand, self._sqrt_dt
        walks, step = self._walks, self._walk_step
        feed1_step, shift_steps = self._feed1_step, self._shift_steps
        np.subtract(f64[1.0], self._feed1_walk, out=feed1_step)
        np.multiply(f64[0.15], feed1_step, out=feed1_step)
        np.multiply(wide["walk_reversion"], self._walk_shifts, out=shift_steps)
        step *= dt_operand
        noise = self._walk_noise
        np.multiply(wide["walk_stds"], sqrt_dt, out=noise)
        noise *= draws.base
        np.add(self._feed1_noise, feed1_step, out=feed1_step)
        np.subtract(self._shift_noise, shift_steps, out=shift_steps)
        np.add(walks, step, out=step)
        step.clip(wide["walk_lower"], wide["walk_upper"], out=walks)

        drift = self._kinetics_drift
        if 13 in idv.possible:
            drifted = (
                drift + (f64[0.05] * sqrt_dt * draws.kinetics - f64[0.02] * dt_operand)
            ).clip(f64[-0.5], f64[0.2])
            drift[:] = np.where(idv.active(13), drifted, drift * self._drift_decay)
        else:
            np.multiply(drift, self._drift_decay, out=drift)

    def _update_lags_batch(
        self, flows: _FlowTable, idv: BatchIdv, draws: Optional[_AmbientDraws]
    ) -> None:
        """Row-wise mirror of :meth:`TEPlant._update_temperatures` and of the
        recycle-flow lag that follows it in :meth:`TEPlant.step`.

        The recycle flow and the three vessel temperatures follow their
        targets as one ``(4, B)`` lag; the two cooling-water outlets track
        the updated vessel temperatures, so they follow as a second,
        ``(2, B)`` lag.  A lag is ``values + dt * (targets - values) /
        taus``, computed in place.
        """
        wide = self._wide
        possible = idv.possible
        one = f64[1.0]
        dt_operand = self._dt_operand
        cw_valves = flows.cw_valves
        # The totals of every stream, which the next measurement reads too.
        np.add.reduce(flows.streams, axis=2, out=flows.totals)

        # Reactor and condenser cooling-water inlet temperatures, (2, B).
        inlets = self._cw_inlet_temps
        base = wide["cw_inlets"]
        if 4 in possible or 5 in possible:
            base = base + f64[5.0] * np.array([idv.value(4), idv.value(5)])
        if 11 in possible or 12 in possible:
            scale = np.where(np.array([idv.active(11), idv.active(12)]), f64[1.0], f64[0.15])
            np.add(base, scale * self._cw_inlet_shift, out=inlets)
        else:
            np.add(base, f64[0.15] * self._cw_inlet_shift, out=inlets)

        targets = self._targets
        self._recycle_target_row[...] = flows.recycle_target

        # Each cooling-water valve over its nominal opening, and the
        # effluent and stream-10 totals over theirs.
        np.divide(cw_valves, wide["cw_xmv_nominal"], out=self._valve_ratios)
        np.divide(flows.lag_flow_totals, wide["lag_flow_nominals"], out=self._flow_ratios)

        cooling_norm = self._reactor_valve_ratio * (
            (self._reactor_temp - self._reactor_inlet) / self._reactor_driving
        )
        reactor_target = self._reactor_target
        np.subtract(
            f64[_REACTOR_TEMP_NOMINAL]
            + f64[_REACTOR_HEAT_GAIN] * (self._kinetics.heat_release_batch() - one),
            f64[_REACTOR_COOLING_GAIN] * (cooling_norm - one),
            out=reactor_target,
        )
        if 3 in possible:
            reactor_target += f64[1.5] * idv.value(3)
        if self.enable_process_variation and 9 in possible:
            reactor_target[:] = np.where(
                idv.active(9), reactor_target + f64[0.6] * draws.reactor_9, reactor_target
            )
        if self.enable_process_variation and 10 in possible:
            reactor_target[:] = np.where(
                idv.active(10),
                reactor_target + f64[0.4] * draws.reactor_10,
                reactor_target,
            )

        cooling_ratio = np.maximum(self._condenser_valve_ratio, f64[0.05])
        np.add(
            self._condenser_inlet,
            self._separator_driving
            * self._effluent_ratio
            / np.power(cooling_ratio, f64[0.6]),
            out=self._separator_target,
        )
        np.subtract(
            f64[_STRIPPER_TEMP_NOMINAL] + f64[25.0] * flows.steam_excess,
            f64[12.0] * (self._f10_ratio - one),
            out=self._stripper_target,
        )
        lagged = self._lagged
        np.subtract(targets, lagged, out=targets)
        np.multiply(dt_operand, targets, out=targets)
        np.divide(targets, wide["lag_taus"], out=targets)
        np.add(lagged, targets, out=lagged)
        recycle_flow = self._recycle_flow
        np.maximum(recycle_flow, f64[0.0], out=recycle_flow)

        # Reactor and condenser cooling water, from the updated reactor and
        # separator temperatures.
        cw_targets = inlets + wide["cw_rise"] * (
            (self._reactor_separator_temps - inlets) / wide["cw_driving"]
        ) * np.power(
            wide["cw_xmv_nominal"] / np.maximum(cw_valves, f64[5.0]), f64[0.8]
        )
        outlets = self._cw_outlets
        np.subtract(cw_targets, outlets, out=cw_targets)
        np.multiply(dt_operand, cw_targets, out=cw_targets)
        np.divide(cw_targets, f64[_CW_OUTLET_TAU], out=cw_targets)
        np.add(outlets, cw_targets, out=outlets)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measure(self, noisy: bool = True) -> np.ndarray:
        """Per-row sensor vectors, ``(B, 41)`` (mirrors :meth:`TEPlant.measure`).

        Returns a new array on every call.
        """
        flows = self._last_flows
        state = self.state
        wide = self._wide
        quantities = state.quantities
        feed_totals, downstream_totals, purge_total, steam = flows.head_sources

        # The first 22 readings as rows of one (22, B) stack, in
        # _HEAD_COLUMNS order, laid out in XMEAS order by one take.
        head = self._head
        np.concatenate(
            (
                feed_totals,
                downstream_totals,
                self._recycle_row,
                purge_total,
                quantities,
                self._temperatures,
                steam,
            ),
            out=self._head_stacked,
        )
        metered = self._metered
        np.multiply(wide["metered_gains"], metered, out=metered)
        np.divide(metered, wide["metered_nominals"], out=metered)
        np.multiply(
            f64[3102.2],
            f64[0.5] + f64[0.5] * quantities[1] / self._operand_sep_pressure,
            out=self._separator_pressure_reading,
        )
        np.multiply(
            f64[341.43] * (self._recycle_flow / self._operand_recycle),
            quantities[0] / self._operand_pressure,
            out=self._compressor_work,
        )
        # ``mode="wrap"`` gathers straight into the readings (every index
        # is in range, so it changes no value).
        head.take(_HEAD_ORDER, axis=0, out=self._xmeas_head, mode="wrap")

        # Stream-6, purge and product analysers: each vector over its
        # floored total, times the analyser calibration.
        fractions = self._gas_fractions
        np.maximum(flows.gas_totals, f64[1e-9], out=self._gas_floor)
        np.divide(flows.gas_streams, self._gas_floor_columns, out=fractions)
        np.multiply(fractions, wide["gas_analyser_scales"], out=fractions)
        self._xmeas_stream6[...] = self._stream6_fractions
        self._xmeas_purge[...] = self._purge_fractions
        np.maximum(state.inventory_totals[4], f64[1e-9], out=self._stripper_floor)
        np.multiply(
            self._stripper_heavies / self._stripper_floor_column,
            wide["product_scale"],
            out=self._xmeas_product,
        )

        xmeas = self._xmeas
        readings = xmeas + self._noise_draws.next() if noisy else xmeas
        return readings.clip(wide["xmeas_lower"], wide["xmeas_upper"])

    # ------------------------------------------------------------------
    # Scalar PlantModel methods that do not apply to a batch
    # ------------------------------------------------------------------
    def step(self, manipulated, dt_hours, disturbances=None):  # pragma: no cover
        raise NotImplementedError("use step_batch with a BatchIdv")
