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
from repro.te.constants import COMPONENTS, INTERNAL
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

    base: np.ndarray
    kinetics: Optional[np.ndarray] = None
    reactor_9: Optional[np.ndarray] = None
    reactor_10: Optional[np.ndarray] = None


#: The entries of a flow table whose rows run along axis 1 (the others
#: along axis 0).
_ROW_AXIS_1 = ("streams", "totals")


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
        # Stream-4 A and C base fractions, as operands.
        self._feed4_base_ac = (
            f64[self._feed4_comp_base[_IDX["A"]]],
            f64[self._feed4_comp_base[_IDX["C"]]],
        )

    def _fit_width(self, n_rows: int) -> None:
        """Widen the stacked calls' constants to ``n_rows`` rows.

        A ufunc call whose operands share one shape skips NumPy's
        broadcasting set-up, which costs more than the arithmetic at a
        batch's sizes; a constant repeated along the row axis gives every
        element the same operand, so no bit changes.  The row axis is the
        constant's length-1 axis: axis 0 of a per-row vector ``(1, n)``,
        axis 1 of a stacked column ``(k, 1)`` or stack ``(k, 1, 8)``.
        """
        self._wide = {
            name: np.repeat(constant, n_rows, axis=0 if constant.shape[0] == 1 else 1)
            for name, constant in self._row_constants.items()
        }
        # The condensation fractions of every row: the light columns are
        # the base fractions for good, each flow table writes the heavy ones.
        self._condensation = np.repeat(self._cond_base[None], n_rows, axis=0)

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
            key: value[:, indices] if key in _ROW_AXIS_1 else value[indices]
            for key, value in self._last_flows.items()
        }

    def snapshot_row(self, row: int) -> PlantRow:
        """Everything row ``row``'s later steps read, copied out of the batch."""
        return PlantRow(
            state=self.state.snapshot_row(row),
            flows={
                key: (value[:, row] if key in _ROW_AXIS_1 else value[row]).copy()
                for key, value in self._last_flows.items()
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
        taken at the same clock, which the batch shares.
        """
        if len(rows) != self.n_rows:
            raise ConfigurationError(
                f"expected {self.n_rows} row snapshots, got {len(rows)}"
            )
        for index, row in enumerate(rows):
            self.state.restore_row(index, row.state)
        self._last_flows = {
            key: np.stack(
                [row.flows[key] for row in rows], axis=1 if key in _ROW_AXIS_1 else 0
            )
            for key in rows[0].flows
        }
        self._stuck_reactor_cw_rows = np.array([row.stuck_cw[0] for row in rows])
        self._stuck_condenser_cw_rows = np.array([row.stuck_cw[1] for row in rows])
        self._noise_draws.restore([row.noise for row in rows])
        self._ambient_draws.restore([row.ambient for row in rows])

    # ------------------------------------------------------------------
    # Flow network (row-wise mirror of TEPlant._compute_flows)
    # ------------------------------------------------------------------
    def _effective_xmv_batch(self, xmv: np.ndarray, idv: BatchIdv) -> np.ndarray:
        """Row-wise valve sticking, mirroring :meth:`TEPlant._effective_xmv`."""
        wide = self._wide
        effective = np.asarray(xmv, dtype=float).clip(wide["xmv_lower"], wide["xmv_upper"])
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
        composition = self._wide["feed4_comp"].copy()
        shift = state.feed4_composition_shift
        if idv.may_be_active(8):
            shift = np.where(idv.active(8), shift * f64[8.0], shift)
        if idv.may_be_active(1):
            shift = np.where(idv.active(1), shift + f64[-0.05] * idv.value(1), shift)
        a, b, c = _IDX["A"], _IDX["B"], _IDX["C"]
        base_a, base_c = self._feed4_base_ac
        floor = f64[0.01]
        np.maximum(base_a + shift, floor, out=composition[:, a])
        np.maximum(base_c - shift, floor, out=composition[:, c])
        if idv.may_be_active(2):
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
        wide = self._wide
        effective = self._effective_xmv_batch(xmv, idv)
        # The eight flows proportional to a valve opening, in one product:
        # column j is the serial ``per_percent * effective[j]`` (a product
        # commutes; the columns no flow reads are multiplied by 1.0).
        valve_flows = effective * wide["valve_gains"]
        # Feeds 2 and 3 carry only D and E respectively: start from zeros.
        streams = np.zeros((len(STREAM_ROWS), state.n_rows, len(COMPONENTS)))
        feed1, feed2 = streams[_FEED1], streams[_FEED2]
        feed3, feed4 = streams[_FEED3], streams[_FEED4]
        effluent, f10 = streams[_EFFLUENT], streams[_F10]
        reactor_in, vapor_fraction = streams[_REACTOR_IN], streams[_VAPOR_FRACTION]

        feed1_total = np.minimum(valve_flows[:, 2], f64[self._feed1_capacity])
        if idv.may_be_active(6):
            feed1_total = feed1_total * np.where(idv.active(6), f64[0.0], f64[1.0])
        feed1_total = feed1_total * state.feed1_pressure_factor
        np.multiply(feed1_total[:, None], wide["feed1_comp"], out=feed1)

        feed2[:, _IDX["D"]] = valve_flows[:, 0]
        feed3[:, _IDX["E"]] = valve_flows[:, 1]
        feed4_total = valve_flows[:, 3]
        if idv.may_be_active(7):
            feed4_total = feed4_total * np.where(idv.active(7), f64[0.8], f64[1.0])
        np.multiply(
            feed4_total[:, None], self._feed4_composition_batch(idv, state), out=feed4
        )

        totals, quantities = state.inventory_totals, state.quantities
        reactor_pressure = quantities[0]
        pressure_ratio = quantities[1] / f64[self._sep_pressure_nominal]

        purge_total = valve_flows[:, 5] * np.square(pressure_ratio)
        recycle_target = (
            f64[self._recycle_nominal]
            * pressure_ratio
            * (
                f64[1.0]
                + f64[0.4] * (f64[self._xmv_nominal[4]] - effective[:, 4]) / f64[100.0]
            )
        )

        # Separator vapour and reactor, separator and stripper liquid totals.
        floored = np.maximum(totals[1:5], f64[1e-9])
        np.divide(state.separator_vapor, floored[0, :, None], out=vapor_fraction)

        # Effluent: k * (vapour * LIGHT * pressure_factor + liquid * HEAVY).
        nominal_pressure = f64[self._pressure_nominal]
        pressure_factor = np.maximum(reactor_pressure, f64[0.0]) / nominal_pressure
        masked = state.inventory[0:3:2] * wide["reactor_masks"]
        np.multiply(masked[0], pressure_factor[:, None], out=masked[0])
        np.add(masked[0], masked[1], out=effluent)
        np.multiply(wide["k_reactor"], effluent, out=effluent)

        condenser_shift = (
            f64[_CONDENSATION_COOLING_GAIN]
            * (effective[:, 10] - f64[self._xmv_nominal[10]])
            / f64[100.0]
            + f64[0.004] * (f64[_SEPARATOR_TEMP_NOMINAL] - state.separator_temp)
        )
        # The condenser shift moves only the heavy components' fractions.
        cond = self._condensation
        heavy = cond[:, _HEAVIES]
        np.add(wide["condensation_heavy"], condenser_shift[:, None], out=heavy)
        heavy.clip(f64[0.02], f64[0.98], out=heavy)

        # Streams 10 and 11 leave the separator and the stripper at a rate
        # set by the valve and the square root of the vessel's level.
        levels = np.maximum(quantities[3:5], f64[0.0])
        level_flows = valve_flows[:, 6:8].T * np.sqrt(levels / f64[50.0])
        np.divide(
            level_flows[:, :, None] * state.inventory[3:5],
            floored[2:4, :, None],
            out=streams[_F10 : _F11 + 1],
        )

        steam = valve_flows[:, 8]
        # steam / nominal - 1, which the stripper temperature target reads too.
        steam_excess = steam / f64[_STEAM_NOMINAL] - f64[1.0]
        steam_factor = f64[1.0] + f64[_STRIPPING_STEAM_GAIN] * steam_excess
        strip = (wide["strip_base"] * steam_factor[:, None]).clip(f64[0.0], f64[0.995])
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
            "steam_excess": steam_excess,
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

        streams = flows["streams"]
        effluent, f10, f11 = streams[_EFFLUENT], streams[_F10], streams[_F11]
        reactor_in, vapor_fraction = streams[_REACTOR_IN], streams[_VAPOR_FRACTION]
        cond = flows["condensation"]

        # One (5, B, 8) increment of the five inventories, row for row of
        # BatchTEState.inventory; the reactor's change enters twice and is
        # masked below to its vapour and its liquid.
        change = np.empty_like(state.inventory)
        np.subtract(reactor_in + production, effluent, out=change[0])
        change[2] = change[0]
        vapor_out = (state.recycle_flow + flows["purge_total"])[:, None] * vapor_fraction
        np.subtract(effluent * (f64[1.0] - cond), vapor_out, out=change[1])
        np.subtract(effluent * cond, f10, out=change[3])
        np.subtract(f10 - flows["overhead"], f11, out=change[4])
        change *= f64[dt]
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
        dt_operand = f64[dt]
        sqrt_dt = f64[np.sqrt(dt)]
        walks = state.ambient[0:3]
        step = np.empty_like(walks)
        np.subtract(f64[1.0], walks[0], out=step[0])
        np.multiply(f64[0.15], step[0], out=step[0])
        np.multiply(wide["walk_reversion"], walks[1:3], out=step[1:3])
        step *= dt_operand
        noise = wide["walk_stds"] * sqrt_dt
        noise *= draws.base
        np.add(noise[0], step[0], out=step[0])
        np.subtract(noise[1:3], step[1:3], out=step[1:3])
        np.add(walks, step, out=step)
        step.clip(wide["walk_lower"], wide["walk_upper"], out=walks)

        drift = state.kinetics_drift
        decay = f64[max(1.0 - 0.5 * dt, 0.0)]
        if idv.may_be_active(13):
            drifted = (
                drift + (f64[0.05] * sqrt_dt * draws.kinetics - f64[0.02] * dt_operand)
            ).clip(f64[-0.5], f64[0.2])
            drift[:] = np.where(idv.active(13), drifted, drift * decay)
        else:
            np.multiply(drift, decay, out=drift)

    def _cooling_water_inlets_batch(self, idv: BatchIdv) -> np.ndarray:
        """Row-wise reactor and condenser cooling-water inlet temperatures,
        ``(2, B)``."""
        inlets = self._wide["cw_inlets"]
        if idv.may_be_active(4) or idv.may_be_active(5):
            inlets = inlets + f64[5.0] * np.array([idv.value(4), idv.value(5)])
        if idv.may_be_active(11) or idv.may_be_active(12):
            scale = np.where(
                np.array([idv.active(11), idv.active(12)]), f64[1.0], f64[0.15]
            )
            return inlets + scale * self.state.cw_inlet_shift
        return inlets + f64[0.15] * self.state.cw_inlet_shift

    @staticmethod
    def _lag(values: np.ndarray, targets: np.ndarray, dt, taus) -> None:
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
        wide = self._wide
        one = f64[1.0]
        dt_operand = f64[dt]
        effective = flows["xmv_effective"]
        # XMV(10) and XMV(11), the two cooling-water valves, as a (2, B) view.
        cw_valves = effective[:, 9:11].T
        totals = _stream_totals(flows)
        inlets = self._cooling_water_inlets_batch(idv)
        targets = np.empty((4, state.n_rows))
        targets[0] = flows["recycle_target"]

        # Each cooling-water valve over its nominal opening, and the
        # effluent and stream-10 totals over theirs.
        valve_ratios = cw_valves / wide["cw_xmv_nominal"]
        flow_ratios = totals[_EFFLUENT : _F10 + 1] / wide["lag_flow_nominals"]

        cooling_norm = valve_ratios[0] * (
            (state.reactor_temp - inlets[0]) / f64[self._reactor_driving]
        )
        reactor_target = targets[1]
        np.subtract(
            f64[_REACTOR_TEMP_NOMINAL]
            + f64[_REACTOR_HEAT_GAIN] * (rates.heat_release - one),
            f64[_REACTOR_COOLING_GAIN] * (cooling_norm - one),
            out=reactor_target,
        )
        if idv.may_be_active(3):
            reactor_target += f64[1.5] * idv.value(3)
        if self.enable_process_variation and idv.may_be_active(9):
            reactor_target[:] = np.where(
                idv.active(9), reactor_target + f64[0.6] * draws.reactor_9, reactor_target
            )
        if self.enable_process_variation and idv.may_be_active(10):
            reactor_target[:] = np.where(
                idv.active(10),
                reactor_target + f64[0.4] * draws.reactor_10,
                reactor_target,
            )

        cooling_ratio = np.maximum(valve_ratios[1], f64[0.05])
        np.add(
            inlets[1],
            f64[self._separator_driving]
            * flow_ratios[0]
            / np.power(cooling_ratio, f64[0.6]),
            out=targets[2],
        )
        np.subtract(
            f64[_STRIPPER_TEMP_NOMINAL] + f64[25.0] * flows["steam_excess"],
            f64[12.0] * (flow_ratios[1] - one),
            out=targets[3],
        )
        self._lag(lags[0:4], targets, dt_operand, wide["lag_taus"])
        np.maximum(lags[0], f64[0.0], out=lags[0])

        # Reactor and condenser cooling water, from the updated reactor and
        # separator temperatures.
        cw_targets = inlets + wide["cw_rise"] * (
            (lags[1:3] - inlets) / wide["cw_driving"]
        ) * np.power(
            wide["cw_xmv_nominal"] / np.maximum(cw_valves, f64[5.0]), f64[0.8]
        )
        self._lag(lags[4:6], cw_targets, dt_operand, f64[_CW_OUTLET_TAU])

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measure(self, noisy: bool = True) -> np.ndarray:
        """Per-row sensor vectors, ``(B, 41)`` (mirrors :meth:`TEPlant.measure`)."""
        flows = self._last_flows
        state = self.state
        wide = self._wide
        totals = _stream_totals(flows)
        inventory_totals, quantities = state.inventory_totals, state.quantities
        recycle_flow = state.recycle_flow
        xmeas = self._xmeas

        # The first 22 readings as rows of one (22, B) stack, in
        # _HEAD_COLUMNS order, laid out in XMEAS order by one take.
        head = np.empty((len(_HEAD_COLUMNS), state.n_rows))
        np.concatenate(
            (
                totals[0:4],
                totals[_F10 : _REACTOR_IN + 1],
                recycle_flow[None],
                flows["purge_total"][None],
                quantities,
                state.lags[1:],
                flows["steam"][None],
            ),
            out=head[:20],
        )
        metered = head[0:9]
        np.multiply(wide["metered_gains"], metered, out=metered)
        np.divide(metered, wide["metered_nominals"], out=metered)
        np.multiply(
            f64[3102.2],
            f64[0.5] + f64[0.5] * quantities[1] / f64[self._sep_pressure_nominal],
            out=head[20],
        )
        np.multiply(
            f64[341.43] * (recycle_flow / f64[self._recycle_nominal]),
            quantities[0] / f64[self._pressure_nominal],
            out=head[21],
        )
        xmeas[:, :22] = head.take(_HEAD_ORDER, axis=0).T

        # Stream-6, purge and product analysers: each vector over its
        # floored total, times the analyser calibration.
        fractions = (
            flows["streams"][_REACTOR_IN:]
            / np.maximum(totals[_REACTOR_IN:], f64[1e-9])[:, :, None]
            * wide["gas_analyser_scales"]
        )
        xmeas[:, 22:28] = fractions[0, :, :6]
        xmeas[:, 28:36] = fractions[1]
        np.multiply(
            state.stripper_liquid[:, _HEAVIES]
            / np.maximum(inventory_totals[4], f64[1e-9])[:, None],
            wide["product_scale"],
            out=xmeas[:, 36:41],
        )

        readings = xmeas + self._noise_draws.next() if noisy else xmeas
        return readings.clip(wide["xmeas_lower"], wide["xmeas_upper"])

    # ------------------------------------------------------------------
    # Scalar PlantModel methods that do not apply to a batch
    # ------------------------------------------------------------------
    def step(self, manipulated, dt_hours, disturbances=None):  # pragma: no cover
        raise NotImplementedError("use step_batch with a BatchIdv")
