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
  ``power`` their input as before: a contiguous array and a 0-d exponent
  (NumPy may take another loop for another layout);
* it writes a result into a bound buffer (``out``, which gives the bits of
  a fresh result), one ufunc call per operation of the serial expression,
  in the serial order.

Why: at a batch's widths a NumPy call costs per call, not per element, and
its operands set most of that cost.  With numpy 2.4 on a 2-vCPU Xeon VM, a
same-shape call costs about 0.32 µs written ``f(a, b, out)`` with its
operands in local variables, a Python-float operand adds half as much
again and a broadcast operand doubles it, so the step makes few calls,
each over operands of one shape.  The interpreter's work around the calls
— attribute loads, subscripts, keyword arguments, temporaries and helper
frames — cost about as much as the calls themselves, so the step of a
width is built once, when the batch forms or compacts, as closures whose
operands are locals of the build: the widened constants, the 0-d operands,
the views of the state's stacks, two flow tables, a scratch buffer for
every intermediate and the ufuncs themselves.  A step is then a straight
run of ufunc calls with positional ``out`` (``maximum`` and ``minimum``
keep ``out=``: their positional ``out`` is deprecated), branching only
where a disturbance may act on some row.  What a step hands out is made
fresh or copied, and the flow table the next measurement reads is
double-buffered, so nothing a caller holds is written by the next step.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    """One step's ambient random-walk draws for every row, on a step where
    some row may take more than its three base draws.

    ``base`` holds the three base walks, ``(3, B)``.  The IDV(13) kinetics
    walk and the IDV(9)/IDV(10) temperature shocks are ``(B,)`` arrays
    whose inactive rows hold a zero placeholder; a placeholder is never
    consumed (the update selects the no-draw branch), so the underlying
    streams advance exactly as the serial plant's would.
    """

    base: np.ndarray
    kinetics: np.ndarray
    reactor_9: np.ndarray
    reactor_10: np.ndarray


#: The disturbances that make some row draw more than its three base walks.
_EXTRA_DRAW_IDVS = frozenset((9, 10, 13))
#: The disturbances that move a cooling-water inlet temperature.
_INLET_IDVS = frozenset((4, 5, 11, 12))
#: The disturbances that move stream 4's flow or composition.
_FEED4_IDVS = frozenset((1, 2, 7, 8))


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

    :meth:`BatchTEPlant._bind` gives each table its closures: ``compute``
    writes the table from a command matrix, ``advance`` steps the plant
    through it and ``measure`` reads the sensors from it.
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

    compute: Callable[[np.ndarray, BatchIdv], None]
    advance: Callable[[np.ndarray, BatchIdv], None]
    measure: Callable[[bool], np.ndarray]

    def __init__(self, n_rows: int, condensation_base: np.ndarray):
        effective = self.xmv_effective = np.empty((n_rows, N_XMV))
        valve_flows = self.valve_flows = np.empty((n_rows, N_XMV))
        streams = self.streams = np.zeros((len(STREAM_ROWS), n_rows, len(COMPONENTS)))
        self.totals = np.empty((len(STREAM_ROWS), n_rows))
        self.condensation = np.repeat(condensation_base[None], n_rows, axis=0)
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
        # The steam flow (column 8 of the valve flows).
        self.steam = valve_flows[:, 8]
        # XMV(10) and XMV(11), the two cooling-water valves, as a (2, B) view.
        self.cw_valves = effective[:, 9:11].T


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

    The step of a width is built by :meth:`_bind` when the batch forms or
    compacts (:meth:`take`): two flow tables, each with three closures
    (:class:`_FlowTable`), whose operands — the constants widened to the
    width, the views of the state's stacks, the 0-d operands, a scratch
    buffer per intermediate and the ufuncs themselves — are locals of the
    build.  A step runs one table's ``advance`` closure: a straight run of
    ufunc calls, branching only where a disturbance may act on some row.
    The integration step's operands are 0-d cells those closures hold,
    written when ``dt`` changes (:meth:`_bind_dt`).

    The flow table is double-buffered: a step, like :meth:`restore_rows`,
    writes the table the step before it did not, so the table the last
    :meth:`measure` read is still whole while the next one is written.
    What the plant hands out is made fresh: each :meth:`measure` returns a
    new array and each :class:`PlantRow` holds copies.

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
        self._dt = None  # the step the dt cells hold
        # The cells of the integration step, its square root and the drift
        # decay, read by every width's closures.
        self._dt_cells = tuple(np.zeros(()) for _ in range(3))
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

    def _bind(self) -> None:
        """Build the step of the batch's width.

        The stacked calls' constants are widened to the width: a ufunc call
        whose operands share one shape skips NumPy's broadcasting set-up,
        which costs more than the arithmetic at a batch's sizes; a constant
        repeated along the row axis gives every element the same operand,
        so no bit changes.  The row axis is the constant's length-1 axis:
        axis 0 of a per-row vector ``(1, n)``, axis 1 of a stacked column
        ``(k, 1)`` or stack ``(k, 1, 8)``.  Then the kinetics, the ambient
        walks and two flow tables with their closures.
        """
        n_rows = self.state.n_rows
        wide = {
            name: np.repeat(constant, n_rows, axis=0 if constant.shape[0] == 1 else 1)
            for name, constant in self._row_constants.items()
        }
        state = self.state
        react = self._kinetics.bind(state.inventory[0:3:2], state.lags[1], state.ambient[3])
        walk = self._walk_step(wide) if self.enable_process_variation else None
        xmeas = np.empty((n_rows, len(self._xmeas_registry)))
        self._tables = [_FlowTable(n_rows, self._cond_base) for _ in range(2)]
        for table in self._tables:
            table.compute = self._flow_step(table, wide)
            table.advance = self._advance_step(table, wide, walk, react)
            table.measure = self._measure_step(table, wide, xmeas)
        if self._dt is not None:
            self._bind_dt(self._dt)

    def _bind_dt(self, dt: float) -> None:
        """Write the operands a step of ``dt`` hours reads into the cells the
        closures hold: ``dt``, ``sqrt(dt)``, the drift decay ``max(1 - dt /
        2, 0)`` and the walks' noise scale ``std * sqrt(dt)``."""
        self._dt = dt
        dt_cell, sqrt_dt, drift_decay = self._dt_cells
        dt_cell[...] = dt
        sqrt_dt[...] = np.sqrt(dt)
        drift_decay[...] = max(1.0 - 0.5 * dt, 0.0)
        if self.enable_process_variation:
            np.multiply(self._walk_stds, sqrt_dt, out=self._walk_scale)

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
        self._bind()
        flows = self._last_flows = self._tables[0]
        flows.compute(np.tile(self._xmv_nominal, (n_rows, 1)), BatchIdv.none(n_rows))

    def take(self, indices: np.ndarray) -> None:
        """Keep only the given rows (compaction after trips / early stops)."""
        self.state.take(indices)
        index_list = [int(i) for i in np.asarray(indices)]
        self._batch_seeds = [self._batch_seeds[i] for i in index_list]
        self._noise_draws.take(index_list)
        self._ambient_draws.take(index_list)
        self._stuck_reactor_cw_rows = self._stuck_reactor_cw_rows[indices]
        self._stuck_condenser_cw_rows = self._stuck_condenser_cw_rows[indices]
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
        one before the restore stays whole.  Everything is written into the
        buffers the width's closures hold, so they stay as built.
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
    # Disturbed branches: the parts of a step that only run while some
    # row's disturbance may act (``BatchIdv.possible``), with temporaries.
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

    def _release_cw_valves(self) -> None:
        """No row's valve can stick at this step: let every held one go."""
        self._stuck_reactor_cw_rows.fill(np.nan)
        self._stuck_condenser_cw_rows.fill(np.nan)
        self._cw_held = False

    def _disturbed_feed4(
        self, idv: BatchIdv, flow: np.ndarray, shift: np.ndarray, out: np.ndarray
    ) -> None:
        """Row-wise stream 4 into ``out`` while IDV(1), (2), (7) or (8) may act
        (mirrors :meth:`TEPlant._feed4_composition` and the feed-4
        availability of :meth:`TEPlant._compute_flows`)."""
        possible = idv.possible
        total = flow[:, None]
        if 7 in possible:
            total = (flow * np.where(idv.active(7), f64[0.8], f64[1.0]))[:, None]
        if 8 in possible:
            shift = np.where(idv.active(8), shift * f64[8.0], shift)
        if 1 in possible:
            shift = np.where(idv.active(1), shift + f64[-0.05] * idv.value(1), shift)
        a, b, c = _IDX["A"], _IDX["B"], _IDX["C"]
        base = self._feed4_comp_base
        composition = np.repeat(base[None], idv.n_rows, axis=0)
        floor = f64[0.01]
        np.maximum(f64[base[a]] + shift, floor, out=composition[:, a])
        np.maximum(f64[base[c]] - shift, floor, out=composition[:, c])
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
        total_moles = np.add.reduce(composition, axis=1)
        np.multiply(total, composition / total_moles[:, None], out=out)

    def _disturbed_ambient(self, idv: BatchIdv) -> _AmbientDraws:
        """Consume each row's ambient draws for one step, in serial order,
        while IDV(9), (10) or (13) may act.

        The serial plant draws, per step and in this order: the three base
        random walks, the IDV(13) kinetics walk when active, then the
        IDV(9)/IDV(10) temperature shocks inside the temperature update.
        Each row consumes exactly that many values from its own stream.
        """
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

    def _disturbed_drift(self, idv: BatchIdv, draws: _AmbientDraws) -> None:
        """The kinetics drift while IDV(13) may act: the active rows walk, the
        others decay (mirrors :meth:`TEPlant._update_ambient`)."""
        drift = self.state.kinetics_drift
        dt, sqrt_dt, decay = self._dt_cells
        drifted = (
            drift + (f64[0.05] * sqrt_dt * draws.kinetics - f64[0.02] * dt)
        ).clip(f64[-0.5], f64[0.2])
        drift[:] = np.where(idv.active(13), drifted, drift * decay)

    # ------------------------------------------------------------------
    # The closures of a width
    # ------------------------------------------------------------------
    def _walk_step(
        self, wide: Dict[str, np.ndarray]
    ) -> Callable[[BatchIdv], Optional[_AmbientDraws]]:
        """The ambient walks of one step (mirrors :meth:`TEPlant._update_ambient`).

        The three base walks run as one ``(3, B)`` update: ``walk + (std *
        sqrt(dt) * draw + reversion * dt)``, where the feed-1 factor reverts
        by ``+ 0.15 * (1 - x) * dt`` and the two shifts by ``- k * x * dt``.
        The closure returns the step's draws of a disturbed step (``None``
        on a step where every row takes just its three base draws).
        """
        n_rows = self.state.n_rows
        ambient = self.state.ambient
        walks, shifts, feed1_walk, drift = ambient[0:3], ambient[1:3], ambient[0], ambient[3]
        step, noise = np.empty((2, 3, n_rows))
        feed1_step, shift_steps = step[0], step[1:3]
        feed1_noise, shift_noise = noise[0], noise[1:3]
        self._walk_stds = wide["walk_stds"]
        scale = self._walk_scale = np.empty((3, n_rows))
        reversion, lower, upper = wide["walk_reversion"], wide["walk_lower"], wide["walk_upper"]
        dt, _, decay = self._dt_cells
        one, feed1_reversion = f64[1.0], f64[0.15]
        base_draws, disturbed_draws = self._ambient_draws.base, self._disturbed_ambient
        disturbed_drift = self._disturbed_drift
        add, subtract, multiply = np.add, np.subtract, np.multiply

        def walk(idv: BatchIdv) -> Optional[_AmbientDraws]:
            possible = idv.possible
            if possible and not _EXTRA_DRAW_IDVS.isdisjoint(possible):
                draws = disturbed_draws(idv)
                base = draws.base
            else:
                draws, base = None, base_draws()
            subtract(one, feed1_walk, feed1_step)
            multiply(feed1_reversion, feed1_step, feed1_step)
            multiply(reversion, shifts, shift_steps)
            multiply(step, dt, step)
            multiply(scale, base, noise)
            add(feed1_noise, feed1_step, feed1_step)
            subtract(shift_noise, shift_steps, shift_steps)
            add(walks, step, step)
            step.clip(lower, upper, out=walks)
            if possible and 13 in possible:
                disturbed_drift(idv, draws)
            else:
                multiply(drift, decay, drift)
            return draws

        return walk

    def _flow_step(
        self, flows: _FlowTable, wide: Dict[str, np.ndarray]
    ) -> Callable[[np.ndarray, BatchIdv], None]:
        """The closure that writes ``flows`` from a command matrix and the
        state (mirrors :meth:`TEPlant._compute_flows`), every stream total
        included.

        Every expression keeps the serial operand order, one ufunc call per
        operation, so each row stays bitwise-identical.
        """
        state = self.state
        n_rows = state.n_rows
        inventory, lags, ambient = state.inventory, state.lags, state.ambient
        quantities = state.quantities
        effective, valve_flows, streams = flows.xmv_effective, flows.valve_flows, flows.streams
        feed1, feed2, feed3, feed4, effluent, f10, _, reactor_in, vapor_fraction = streams
        f10_f11, stream_totals = streams[_F10 : _F11 + 1], flows.totals
        feed2_d, feed3_e = feed2[:, _IDX["D"]], feed3[:, _IDX["E"]]
        feed2_flow, feed3_flow = valve_flows[:, 0], valve_flows[:, 1]
        feed1_flow, feed4_flow = valve_flows[:, 2], valve_flows[:, 3]
        feed4_flow_column, purge_flow = valve_flows[:, 3:4], valve_flows[:, 5]
        level_valve_flows, steam = valve_flows[:, 6:8].T, flows.steam
        recycle_valve, condenser_valve = effective[:, 4], effective[:, 10]
        heavy_condensation = flows.condensation[:, _HEAVIES]
        purge_total, recycle_target = flows.purge_total, flows.recycle_target
        steam_excess, overhead = flows.steam_excess, flows.overhead
        # Views of the state.
        reactor_stack, separator_vapor = inventory[0:3:2], inventory[1]
        level_inventories, floor_sources = inventory[3:5], state.inventory_totals[1:5]
        recycle_column, separator_temp = lags[0][:, None], lags[2]
        feed1_pressure, feed4_shift = ambient[0], ambient[1]
        reactor_pressure, separator_pressure = quantities[0], quantities[1]
        level_quantities = quantities[3:5]
        # Constants widened to the width.
        xmv_lower, xmv_upper = wide["xmv_lower"], wide["xmv_upper"]
        valve_gains, feed1_comp = wide["valve_gains"], wide["feed1_comp"]
        k_reactor = wide["k_reactor"]
        reactor_masks, condensation_heavy = wide["reactor_masks"], wide["condensation_heavy"]
        strip_base = wide["strip_base"]
        # Scratch: the feed-1 total, the feed-4 composition (its columns
        # other than A and C hold the base for good) and the intermediates.
        feed1_total = np.empty(n_rows)
        feed1_total_column = feed1_total[:, None]
        composition = np.repeat(self._feed4_comp_base[None], n_rows, axis=0)
        feed4_a, feed4_c = composition[:, _IDX["A"]], composition[:, _IDX["C"]]
        feed4_sum = np.empty(n_rows)
        feed4_sum_column = feed4_sum[:, None]
        feed4_fractions = np.empty((n_rows, len(COMPONENTS)))
        (
            shifted,
            pressure_ratio,
            ratio_squared,
            recycle_scale,
            valve_term,
            pressure_factor,
            valve_shift,
            temp_shift,
            condenser_shift,
            steam_factor,
        ) = np.empty((10, n_rows))
        pressure_factor_column = pressure_factor[:, None]
        condenser_shift_column = condenser_shift[:, None]
        steam_factor_column = steam_factor[:, None]
        # Separator vapour and reactor, separator and stripper liquid totals,
        # floored.
        floored = np.empty((4, n_rows))
        floored_vapor_column, floored_level_columns = floored[0, :, None], floored[2:4, :, None]
        masked = np.empty((2, n_rows, len(COMPONENTS)))
        masked_vapor, masked_liquid = masked
        levels, level_roots, level_flow_totals = np.empty((3, 2, n_rows))
        level_flow_columns = level_flow_totals[:, :, None]
        level_streams = np.empty((2, n_rows, len(COMPONENTS)))
        strip, recycled = np.empty((2, n_rows, len(COMPONENTS)))
        # Operands.
        zero, one, hundred, tiny = f64[0.0], f64[1.0], f64[100.0], f64[1e-9]
        feed1_capacity = f64[self._feed1_capacity]
        feed4_base_a = f64[self._feed4_comp_base[_IDX["A"]]]
        feed4_base_c = f64[self._feed4_comp_base[_IDX["C"]]]
        feed4_floor = f64[0.01]
        separator_nominal, pressure_nominal = (
            f64[self._sep_pressure_nominal],
            f64[self._pressure_nominal],
        )
        recycle_nominal, recycle_valve_nominal = (
            f64[self._recycle_nominal],
            f64[self._xmv_nominal[4]],
        )
        recycle_valve_gain = f64[0.4]
        condenser_valve_nominal = f64[self._xmv_nominal[10]]
        cooling_gain, temp_gain = f64[_CONDENSATION_COOLING_GAIN], f64[0.004]
        separator_temp_nominal = f64[_SEPARATOR_TEMP_NOMINAL]
        condensation_low, condensation_high = f64[0.02], f64[0.98]
        fifty, steam_nominal = f64[50.0], f64[_STEAM_NOMINAL]
        stripping_gain, strip_high = f64[_STRIPPING_STEAM_GAIN], f64[0.995]
        stick, disturbed_feed4 = self._stick_cw_valves, self._disturbed_feed4
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        maximum, minimum, square, sqrt = np.maximum, np.minimum, np.square, np.sqrt
        reduce = np.add.reduce

        def compute(xmv: np.ndarray, idv: BatchIdv) -> None:
            possible = idv.possible
            xmv.clip(xmv_lower, xmv_upper, out=effective)
            if possible and (14 in possible or 15 in possible):
                stick(effective, idv)
            # The eight flows proportional to a valve opening, in one
            # product: column j is the serial ``per_percent * effective[j]``
            # (a product commutes; the columns no flow reads are multiplied
            # by 1.0).
            multiply(effective, valve_gains, valve_flows)

            minimum(feed1_flow, feed1_capacity, out=feed1_total)
            if possible and 6 in possible:
                multiply(feed1_total, np.where(idv.active(6), zero, one), feed1_total)
            multiply(feed1_total, feed1_pressure, feed1_total)
            multiply(feed1_total_column, feed1_comp, feed1)
            feed2_d[...] = feed2_flow
            feed3_e[...] = feed3_flow
            if possible and not _FEED4_IDVS.isdisjoint(possible):
                disturbed_feed4(idv, feed4_flow, feed4_shift, feed4)
            else:
                # Only the A and C fractions move with the ambient shift.
                add(feed4_base_a, feed4_shift, shifted)
                maximum(shifted, feed4_floor, out=feed4_a)
                subtract(feed4_base_c, feed4_shift, shifted)
                maximum(shifted, feed4_floor, out=feed4_c)
                reduce(composition, 1, None, feed4_sum)
                divide(composition, feed4_sum_column, feed4_fractions)
                multiply(feed4_flow_column, feed4_fractions, feed4)

            divide(separator_pressure, separator_nominal, pressure_ratio)
            square(pressure_ratio, ratio_squared)
            multiply(purge_flow, ratio_squared, purge_total)
            # recycle * ratio * (1 + 0.4 * (nominal valve - valve) / 100)
            multiply(recycle_nominal, pressure_ratio, recycle_scale)
            subtract(recycle_valve_nominal, recycle_valve, valve_term)
            multiply(recycle_valve_gain, valve_term, valve_term)
            divide(valve_term, hundred, valve_term)
            add(one, valve_term, valve_term)
            multiply(recycle_scale, valve_term, recycle_target)

            maximum(floor_sources, tiny, out=floored)
            divide(separator_vapor, floored_vapor_column, vapor_fraction)

            # Effluent: k * (vapour * LIGHT * pressure_factor + liquid * HEAVY).
            maximum(reactor_pressure, zero, out=pressure_factor)
            divide(pressure_factor, pressure_nominal, pressure_factor)
            multiply(reactor_stack, reactor_masks, masked)
            multiply(masked_vapor, pressure_factor_column, masked_vapor)
            add(masked_vapor, masked_liquid, effluent)
            multiply(k_reactor, effluent, effluent)

            # The condenser shift moves only the heavy components' fractions:
            # gain * (valve - nominal) / 100 + 0.004 * (nominal - temperature).
            subtract(condenser_valve, condenser_valve_nominal, valve_shift)
            multiply(cooling_gain, valve_shift, valve_shift)
            divide(valve_shift, hundred, valve_shift)
            subtract(separator_temp_nominal, separator_temp, temp_shift)
            multiply(temp_gain, temp_shift, temp_shift)
            add(valve_shift, temp_shift, condenser_shift)
            add(condensation_heavy, condenser_shift_column, heavy_condensation)
            heavy_condensation.clip(condensation_low, condensation_high, out=heavy_condensation)

            # Streams 10 and 11 leave the separator and the stripper at a
            # rate set by the valve and the square root of the vessel's level.
            maximum(level_quantities, zero, out=levels)
            divide(levels, fifty, levels)
            sqrt(levels, level_roots)
            multiply(level_valve_flows, level_roots, level_flow_totals)
            multiply(level_flow_columns, level_inventories, level_streams)
            divide(level_streams, floored_level_columns, f10_f11)

            # steam / nominal - 1, which the stripper temperature target reads too.
            divide(steam, steam_nominal, steam_excess)
            subtract(steam_excess, one, steam_excess)
            multiply(stripping_gain, steam_excess, steam_factor)
            add(one, steam_factor, steam_factor)
            multiply(strip_base, steam_factor_column, strip)
            strip.clip(zero, strip_high, out=strip)
            multiply(strip, f10, overhead)

            add(feed1, feed2, reactor_in)
            add(reactor_in, feed3, reactor_in)
            add(reactor_in, feed4, reactor_in)
            multiply(recycle_column, vapor_fraction, recycled)
            add(reactor_in, recycled, reactor_in)
            add(reactor_in, overhead, reactor_in)
            # The totals of every stream, which the step's temperature
            # targets and the next measurement read.
            reduce(streams, 2, None, stream_totals)

        return compute

    def _advance_step(
        self,
        flows: _FlowTable,
        wide: Dict[str, np.ndarray],
        walk: Optional[Callable[[BatchIdv], Optional[_AmbientDraws]]],
        react: Callable[[], None],
    ) -> Callable[[np.ndarray, BatchIdv], None]:
        """The closure of one plant step through ``flows`` (mirrors
        :meth:`TEPlant.step`): the ambient walks, the flow table, the
        kinetics, the balance and the lags.

        The balance is one ``(5, B, 8)`` increment of the five inventories,
        row for row of :attr:`BatchTEState.inventory`; the reactor's change
        enters twice and is masked to its vapour and its liquid.  The
        recycle flow and the three vessel temperatures follow their targets
        as one ``(4, B)`` lag; the two cooling-water outlets track the
        updated vessel temperatures, so they follow as a second, ``(2, B)``
        lag (mirrors :meth:`TEPlant._update_temperatures` and the recycle
        lag after it).  A lag is ``values + dt * (targets - values) /
        taus``, one ufunc call per operation.
        """
        state = self.state
        n_rows = state.n_rows
        inventory, lags = state.inventory, state.lags
        kinetics = self._kinetics
        production, heat = kinetics.production, kinetics.heat_release
        compute = flows.compute
        effluent, f10, f11 = flows.effluent, flows.f10, flows.f11
        reactor_in, vapor_fraction = flows.reactor_in, flows.vapor_fraction
        overhead, condensation = flows.overhead, flows.condensation
        purge_total, recycle_target = flows.purge_total, flows.recycle_target
        steam_excess, cw_valves = flows.steam_excess, flows.cw_valves
        lag_flow_totals = flows.totals[_EFFLUENT : _F10 + 1]
        change = np.empty_like(inventory)
        (
            reactor_vapor_change,
            separator_vapor_change,
            reactor_liquid_change,
            separator_liquid_change,
            stripper_change,
        ) = change
        vapor_out_total = np.empty(n_rows)
        vapor_out_total_column = vapor_out_total[:, None]
        vapor_out, uncondensed = np.empty((2, n_rows, len(COMPONENTS)))
        recycle_flow, reactor_temp = lags[0], lags[1]
        lagged, outlets, vessel_temps = lags[0:4], lags[4:6], lags[1:3]
        cw_inlet_shift = state.ambient[2]
        inlets = np.empty((2, n_rows))
        reactor_inlet, condenser_inlet = inlets
        targets = np.empty((4, n_rows))
        recycle_target_row, reactor_target, separator_target, stripper_target = targets
        valve_ratios, flow_ratios = np.empty((2, 2, n_rows))
        reactor_valve_ratio, condenser_valve_ratio = valve_ratios
        effluent_ratio, f10_ratio = flow_ratios
        (
            inlet_shift,
            cooling_norm,
            heat_term,
            cooling_ratio,
            separator_heat,
            ratio_power,
            steam_term,
            f10_term,
        ) = np.empty((8, n_rows))
        cw_terms, cw_floor, cw_power = np.empty((3, 2, n_rows))
        balance_masks, cw_inlet_base = wide["balance_masks"], wide["cw_inlets"]
        cw_xmv_nominal, lag_flow_nominals = wide["cw_xmv_nominal"], wide["lag_flow_nominals"]
        lag_taus, cw_rise, cw_driving = wide["lag_taus"], wide["cw_rise"], wide["cw_driving"]
        reactor_driving, separator_driving = (
            f64[float(driving)] for driving in _ROW_CONSTANTS["cw_driving"][:, 0]
        )
        dt = self._dt_cells[0]
        zero, one = f64[0.0], f64[1.0]
        inlet_scale = f64[0.15]
        reactor_temp_nominal, heat_gain = f64[_REACTOR_TEMP_NOMINAL], f64[_REACTOR_HEAT_GAIN]
        cooling_gain, cooling_floor = f64[_REACTOR_COOLING_GAIN], f64[0.05]
        separator_exponent = f64[0.6]
        stripper_temp_nominal, steam_gain, f10_gain = (
            f64[_STRIPPER_TEMP_NOMINAL],
            f64[25.0],
            f64[12.0],
        )
        cw_valve_floor, cw_exponent, cw_tau = f64[5.0], f64[0.8], f64[_CW_OUTLET_TAU]
        variation = self.enable_process_variation
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        maximum, power = np.maximum, np.power

        def advance(manipulated: np.ndarray, idv: BatchIdv) -> None:
            possible = idv.possible
            draws = walk(idv) if walk is not None else None
            compute(manipulated, idv)
            react()

            # d_reactor = reactor_in + production - effluent; the separator
            # keeps effluent * (1 - cond) - vapour out and effluent * cond -
            # f10, the stripper f10 - overhead - f11.
            add(reactor_in, production, reactor_vapor_change)
            subtract(reactor_vapor_change, effluent, reactor_vapor_change)
            reactor_liquid_change[...] = reactor_vapor_change
            add(recycle_flow, purge_total, vapor_out_total)
            multiply(vapor_out_total_column, vapor_fraction, vapor_out)
            subtract(one, condensation, uncondensed)
            multiply(effluent, uncondensed, uncondensed)
            subtract(uncondensed, vapor_out, separator_vapor_change)
            multiply(effluent, condensation, separator_liquid_change)
            subtract(separator_liquid_change, f10, separator_liquid_change)
            subtract(f10, overhead, stripper_change)
            subtract(stripper_change, f11, stripper_change)
            multiply(change, dt, change)
            multiply(change, balance_masks, change)
            add(inventory, change, inventory)
            maximum(inventory, zero, out=inventory)

            # Reactor and condenser cooling-water inlet temperatures, (2, B).
            if possible and not _INLET_IDVS.isdisjoint(possible):
                _disturbed_inlets(idv, cw_inlet_base, cw_inlet_shift, inlets)
            else:
                multiply(inlet_scale, cw_inlet_shift, inlet_shift)
                add(cw_inlet_base, inlet_shift, inlets)
            recycle_target_row[...] = recycle_target
            # Each cooling-water valve over its nominal opening, and the
            # effluent and stream-10 totals over theirs.
            divide(cw_valves, cw_xmv_nominal, valve_ratios)
            divide(lag_flow_totals, lag_flow_nominals, flow_ratios)

            # nominal + gain * (heat - 1) - gain * (cooling - 1), where
            # cooling = valve ratio * ((temperature - inlet) / driving).
            subtract(reactor_temp, reactor_inlet, cooling_norm)
            divide(cooling_norm, reactor_driving, cooling_norm)
            multiply(reactor_valve_ratio, cooling_norm, cooling_norm)
            subtract(heat, one, heat_term)
            multiply(heat_gain, heat_term, heat_term)
            add(reactor_temp_nominal, heat_term, heat_term)
            subtract(cooling_norm, one, cooling_norm)
            multiply(cooling_gain, cooling_norm, cooling_norm)
            subtract(heat_term, cooling_norm, reactor_target)
            if possible:
                if 3 in possible:
                    add(reactor_target, f64[1.5] * idv.value(3), reactor_target)
                if variation and 9 in possible:
                    reactor_target[:] = np.where(
                        idv.active(9), reactor_target + f64[0.6] * draws.reactor_9, reactor_target
                    )
                if variation and 10 in possible:
                    reactor_target[:] = np.where(
                        idv.active(10),
                        reactor_target + f64[0.4] * draws.reactor_10,
                        reactor_target,
                    )

            # inlet + driving * effluent ratio / max(valve ratio, 0.05)^0.6
            maximum(condenser_valve_ratio, cooling_floor, out=cooling_ratio)
            multiply(separator_driving, effluent_ratio, separator_heat)
            power(cooling_ratio, separator_exponent, ratio_power)
            divide(separator_heat, ratio_power, separator_heat)
            add(condenser_inlet, separator_heat, separator_target)
            # nominal + 25 * steam excess - 12 * (f10 ratio - 1)
            multiply(steam_gain, steam_excess, steam_term)
            add(stripper_temp_nominal, steam_term, steam_term)
            subtract(f10_ratio, one, f10_term)
            multiply(f10_gain, f10_term, f10_term)
            subtract(steam_term, f10_term, stripper_target)
            subtract(targets, lagged, targets)
            multiply(dt, targets, targets)
            divide(targets, lag_taus, targets)
            add(lagged, targets, lagged)
            maximum(recycle_flow, zero, out=recycle_flow)

            # Reactor and condenser cooling water, from the updated reactor
            # and separator temperatures: inlet + rise * ((temperature -
            # inlet) / driving) * (nominal / max(valve, 5))^0.8.
            subtract(vessel_temps, inlets, cw_terms)
            divide(cw_terms, cw_driving, cw_terms)
            multiply(cw_rise, cw_terms, cw_terms)
            maximum(cw_valves, cw_valve_floor, out=cw_floor)
            divide(cw_xmv_nominal, cw_floor, cw_floor)
            power(cw_floor, cw_exponent, cw_power)
            multiply(cw_terms, cw_power, cw_terms)
            add(inlets, cw_terms, cw_terms)
            subtract(cw_terms, outlets, cw_terms)
            multiply(dt, cw_terms, cw_terms)
            divide(cw_terms, cw_tau, cw_terms)
            add(outlets, cw_terms, outlets)

        return advance

    def _measure_step(
        self, flows: _FlowTable, wide: Dict[str, np.ndarray], xmeas: np.ndarray
    ) -> Callable[[bool], np.ndarray]:
        """The closure that reads every row's sensors from ``flows`` and the
        state (mirrors :meth:`TEPlant.measure`) into ``xmeas`` and returns a
        new array of the clipped readings."""
        state = self.state
        n_rows = state.n_rows
        quantities, lags = state.quantities, state.lags
        totals = flows.totals
        # The first 22 readings as rows of one (22, B) stack, in
        # _HEAD_COLUMNS order, laid out in XMEAS order by one take.
        head = np.empty((len(_HEAD_COLUMNS), n_rows))
        head_stacked, metered = head[:20], head[0:9]
        separator_pressure_reading, compressor_work = head[20], head[21]
        head_sources = (
            totals[0:4],
            totals[_F10 : _REACTOR_IN + 1],
            lags[0][None],
            flows.purge_total[None],
            quantities,
            lags[1:],
            flows.steam[None],
        )
        xmeas_head = xmeas[:, :22].T
        xmeas_stream6, xmeas_purge = xmeas[:, 22:28], xmeas[:, 28:36]
        xmeas_product = xmeas[:, 36:41]
        gas_streams, gas_totals = flows.streams[_REACTOR_IN:], totals[_REACTOR_IN:]
        gas_floor = np.empty((2, n_rows))
        gas_floor_columns = gas_floor[:, :, None]
        fractions = np.empty((2, n_rows, len(COMPONENTS)))
        stream6_fractions, purge_fractions = fractions[0, :, :6], fractions[1]
        stripper_total = state.inventory_totals[4]
        stripper_heavies = state.inventory[4][:, _HEAVIES]
        stripper_floor = np.empty(n_rows)
        stripper_floor_column = stripper_floor[:, None]
        product_fractions = np.empty((n_rows, len(COMPONENTS) - 3))
        reading_term, recycle_term, pressure_term = np.empty((3, n_rows))
        readings = np.empty_like(xmeas)
        separator_pressure, reactor_pressure, recycle_flow = quantities[1], quantities[0], lags[0]
        metered_gains, metered_nominals = wide["metered_gains"], wide["metered_nominals"]
        gas_scales, product_scale = wide["gas_analyser_scales"], wide["product_scale"]
        xmeas_lower, xmeas_upper = wide["xmeas_lower"], wide["xmeas_upper"]
        half, tiny = f64[0.5], f64[1e-9]
        separator_nominal, pressure_nominal = (
            f64[self._sep_pressure_nominal],
            f64[self._pressure_nominal],
        )
        recycle_nominal = f64[self._recycle_nominal]
        separator_reading_gain, work_gain = f64[3102.2], f64[341.43]
        noise = self._noise_draws.next
        add, multiply, divide, maximum = np.add, np.multiply, np.divide, np.maximum
        concatenate = np.concatenate

        def measure(noisy: bool) -> np.ndarray:
            concatenate(head_sources, 0, head_stacked)
            multiply(metered_gains, metered, metered)
            divide(metered, metered_nominals, metered)
            # 3102.2 * (0.5 + 0.5 * separator pressure / nominal)
            multiply(half, separator_pressure, reading_term)
            divide(reading_term, separator_nominal, reading_term)
            add(half, reading_term, reading_term)
            multiply(separator_reading_gain, reading_term, separator_pressure_reading)
            # 341.43 * (recycle / nominal) * (reactor pressure / nominal)
            divide(recycle_flow, recycle_nominal, recycle_term)
            multiply(work_gain, recycle_term, recycle_term)
            divide(reactor_pressure, pressure_nominal, pressure_term)
            multiply(recycle_term, pressure_term, compressor_work)
            # ``"wrap"`` gathers straight into the readings (every index is
            # in range, so it changes no value).
            head.take(_HEAD_ORDER, 0, xmeas_head, "wrap")

            # Stream-6, purge and product analysers: each vector over its
            # floored total, times the analyser calibration.
            maximum(gas_totals, tiny, out=gas_floor)
            divide(gas_streams, gas_floor_columns, fractions)
            multiply(fractions, gas_scales, fractions)
            xmeas_stream6[...] = stream6_fractions
            xmeas_purge[...] = purge_fractions
            maximum(stripper_total, tiny, out=stripper_floor)
            divide(stripper_heavies, stripper_floor_column, product_fractions)
            multiply(product_fractions, product_scale, xmeas_product)
            if noisy:
                add(xmeas, noise(), readings)
                return readings.clip(xmeas_lower, xmeas_upper)
            return xmeas.clip(xmeas_lower, xmeas_upper)

        return measure

    # ------------------------------------------------------------------
    # The traced entry points
    # ------------------------------------------------------------------
    def step_batch(self, manipulated: np.ndarray, dt_hours: float, idv: BatchIdv) -> None:
        """Advance every row by ``dt_hours`` (mirrors :meth:`TEPlant.step`)."""
        dt = float(dt_hours)
        if dt != self._dt:
            self._bind_dt(dt)
        if self._cw_held and not (14 in idv.possible or 15 in idv.possible):
            self._release_cw_valves()
        first, second = self._tables
        flows = second if self._last_flows is first else first
        flows.advance(np.asarray(manipulated, dtype=float), idv)
        self._last_flows = flows
        state = self.state
        state.time_hours += dt
        state.derive()

    def measure(self, noisy: bool = True) -> np.ndarray:
        """Per-row sensor vectors, ``(B, 41)`` (mirrors :meth:`TEPlant.measure`).

        Returns a new array on every call.
        """
        return self._last_flows.measure(noisy)

    # ------------------------------------------------------------------
    # Scalar PlantModel methods that do not apply to a batch
    # ------------------------------------------------------------------
    def step(self, manipulated, dt_hours, disturbances=None):  # pragma: no cover
        raise NotImplementedError("use step_batch with a BatchIdv")


def _disturbed_inlets(
    idv: BatchIdv, base: np.ndarray, shift: np.ndarray, out: np.ndarray
) -> None:
    """Row-wise cooling-water inlet temperatures into ``out`` while IDV(4),
    (5), (11) or (12) may act (mirrors :meth:`TEPlant._cooling_water_inlets`)."""
    possible = idv.possible
    if 4 in possible or 5 in possible:
        base = base + f64[5.0] * np.array([idv.value(4), idv.value(5)])
    if 11 in possible or 12 in possible:
        scale = np.where(np.array([idv.active(11), idv.active(12)]), f64[1.0], f64[0.15])
        np.add(base, scale * shift, out=out)
    else:
        np.add(base, f64[0.15] * shift, out=out)
