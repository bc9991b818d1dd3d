"""Bitwise pins for the batched plant's per-row random-draw blocks.

:class:`~repro.te.batch.BatchTEPlant` fetches each row's measurement noise
and ambient random-walk draws a block of ``rng_block`` steps at a time and
serves every row from one shared cursor.  Here one batch steps in lockstep
with one serial :class:`~repro.te.plant.TEPlant` per row, for several block
sizes, over more steps than one default block, through a compaction in the
middle of a block and through IDV(9), IDV(10) and IDV(13) windows, which
make rows take different numbers of ambient draws.  Every ``measure()`` row
and every state field must match the serial plant bit for bit.
"""

import numpy as np
import pytest

from repro.process.disturbances import BatchIdv
from repro.te.batch import BatchTEPlant
from repro.te.plant import TEPlant
from repro.te.state import AMBIENT_ROWS, INVENTORY_ROWS, LAG_ROWS

SEEDS = (101, 202, 303, 404)
DT = 1.0 / 120.0  # 30 samples per hour, 4 integration steps per sample
N_STEPS = 600  # more than two default (256-step) noise blocks
#: Per row, ``{idv: (first step, end step)}``: row 0 an IDV(9) window,
#: row 1 an IDV(13) window, row 2 all three at once, row 3 none.
WINDOWS = (
    {9: (100, 250)},
    {13: (150, 400)},
    {9: (300, 500), 10: (320, 450), 13: (200, 360)},
    {},
)
#: The step after which the batch drops row 1, inside an IDV(13) window
#: and not on a block boundary for any tested block size.
TAKE_AFTER = 211
KEPT = [0, 2, 3]


def active_idv(row: int, step: int) -> dict:
    return {
        index: 1.0
        for index, (start, end) in WINDOWS[row].items()
        if start <= step < end
    }


def commands(plant: TEPlant, rows: int, step: int) -> np.ndarray:
    """Nominal valves with a small per-row, per-step wobble."""
    nominal = plant.manipulated_variables.nominal_values()
    wobble = 0.5 * np.sin(0.05 * step + np.arange(rows)[:, None] + np.arange(12))
    return nominal + wobble


def assert_state_equal(batch: BatchTEPlant, local: int, serial: TEPlant, label: str):
    state = batch.state
    for name in INVENTORY_ROWS + LAG_ROWS + AMBIENT_ROWS:
        expected = np.asarray(getattr(serial.state, name), dtype=float)
        actual = getattr(state, name)[local]
        assert expected.tobytes() == actual.tobytes(), f"{label}: {name}"
    assert serial.state.time_hours == state.time_hours, label


@pytest.mark.parametrize("rng_block", [1, 3, 256])
def test_blocks_match_serial_streams(rng_block):
    batch = BatchTEPlant(SEEDS, rng_block=rng_block)
    serial = [TEPlant(seed=seed) for seed in SEEDS]
    rows = list(range(len(SEEDS)))  # original row of each batch position
    uneven_steps = 0
    for step in range(N_STEPS):
        label = f"rng_block={rng_block} step={step}"
        measured = batch.measure()
        for local, row in enumerate(rows):
            expected = serial[row].measure()
            assert expected.tobytes() == measured[local].tobytes(), f"{label} row {row}"

        xmv = commands(batch, len(rows), step)
        idvs = [active_idv(row, step) for row in rows]
        magnitudes = np.zeros((len(rows), 21))
        for local, idv in enumerate(idvs):
            for index, value in idv.items():
                magnitudes[local, index] = value
        scheduled = frozenset(index for idv in idvs for index in idv)
        uneven_steps += bool(scheduled & {9, 10, 13})
        batch.step_batch(xmv, DT, BatchIdv(magnitudes, scheduled))
        for local, row in enumerate(rows):
            serial[row].step(xmv[local], DT, idvs[local])
            assert_state_equal(batch, local, serial[row], f"{label} row {row}")

        if step == TAKE_AFTER:
            batch.take(np.array([rows.index(row) for row in KEPT]))
            rows = list(KEPT)
    assert uneven_steps > 0 and len(rows) == len(KEPT)
