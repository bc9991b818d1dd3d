"""Property test: the batched controller against one serial controller per row.

:class:`~repro.control.batch.BatchDecentralizedController` evaluates all of
its PI loops for all rows as ``(B, L)`` arrays.  Fed the same measurement
matrices as ``B`` independent
:class:`~repro.control.te_controller.TEDecentralizedController` instances,
its commands must be bitwise-equal to theirs at every step — through the
pressure and level overrides (alone and together on the E-feed loop),
through output saturation at 0 and at 100 % (both anti-windup branches),
and across a mid-sequence compaction with :meth:`take`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.batch import BatchDecentralizedController
from repro.control.te_controller import TEDecentralizedController
from repro.te.constants import N_XMEAS, XMEAS_TABLE

NOMINAL = np.array([row[2] for row in XMEAS_TABLE], dtype=float)
#: Per-entry multipliers of the nominal measurement: large ones drive the
#: errors far enough to saturate the valves at either end.
FACTORS = np.array([-10.0, 0.0, 0.5, 0.95, 1.0, 1.05, 2.0, 10.0])
#: Filtered override signals straddle 2760 kPa and 82 %.
PRESSURES = np.array([2650.0, 2740.0, 2770.0, 2850.0, 3100.0])
LEVELS = np.array([60.0, 80.0, 84.0, 95.0, 120.0])


def measurement_matrices(seed: int, n_rows: int, n_steps: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrices = NOMINAL * rng.choice(FACTORS, size=(n_steps, n_rows, N_XMEAS))
    matrices[:, :, 6] = rng.choice(PRESSURES, size=(n_steps, n_rows))
    matrices[:, :, 7] = rng.choice(LEVELS, size=(n_steps, n_rows))
    return matrices


def test_batch_controller_matches_serial_controllers():
    seen = {"both overrides": 0, "output at 0": 0, "output at 100": 0, "take": 0}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 5),
        n_steps=st.integers(2, 14),
        dt_hours=st.sampled_from([0.0025, 0.05, 0.3, 1.0]),
        take_at=st.integers(0, 13),
        keep=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def check(seed, n_rows, n_steps, dt_hours, take_at, keep):
        batch = BatchDecentralizedController(None, n_rows)
        serial = [TEDecentralizedController() for _ in range(n_rows)]
        rows = list(range(n_rows))
        for step, matrix in enumerate(measurement_matrices(seed, n_rows, n_steps)):
            if step == take_at:
                kept = [i for i, flag in enumerate(keep[: len(rows)]) if flag] or [0]
                batch.take(np.array(kept))
                rows = [rows[i] for i in kept]
                seen["take"] += 1
            commands = batch.update(matrix[rows], dt_hours)
            for local, row in enumerate(rows):
                controller = serial[row]
                expected = controller.update(matrix[row], dt_hours)
                assert commands[local].tobytes() == expected.tobytes()
                seen["both overrides"] += int(
                    controller._filtered_pressure > controller.pressure_override_start_kpa
                    and controller._filtered_level > controller.level_override_start_percent
                )
            seen["output at 0"] += int((commands == 0.0).sum())
            seen["output at 100"] += int((commands == 100.0).sum())

    check()
    # The generated sequences reach every branch the property is about.
    assert all(count > 0 for count in seen.values()), seen


def test_returned_commands_are_never_written_again():
    # update() hands out its stored command matrix without a copy, so no
    # later update or fallback_row may write into a matrix it returned.
    batch = BatchDecentralizedController(None, 3)
    gains = [0.5 * loop.definition.kc for loop in TEDecentralizedController().loops]
    matrices = measurement_matrices(seed=11, n_rows=3, n_steps=4)
    returned = []  # (commands, a copy taken when they were returned)
    for step, dt_hours in enumerate((0.05, 0.05, 0.0, 0.05)):
        commands = batch.update(matrices[step], dt_hours)
        returned.append((commands, commands.copy()))
        batch.fallback_row(step % 3, gains)
        for commands, snapshot in returned:
            assert commands.tobytes() == snapshot.tobytes()
    # A zero interval returns the stored matrix: the last commands, with
    # the row that just fell back at the nominal valve positions.
    held = batch.update(matrices[-1], 0.0)
    nominal = BatchDecentralizedController(None, 1).update(matrices[-1][:1], 0.0)
    assert held[0].tobytes() == nominal[0].tobytes()
    assert held[1:].tobytes() == returned[-1][1][1:].tobytes()


def test_restored_rows_go_on_like_their_sources():
    # Each row of a new batch takes the state of a controller row that has
    # already run (two steps apart), and goes on exactly as that row does.
    matrices = measurement_matrices(seed=5, n_rows=2, n_steps=8)
    sources = [BatchDecentralizedController(None, 1) for _ in range(2)]
    for row, source in enumerate(sources):
        for matrix in matrices[: 2 + 2 * row]:
            source.update(matrix[row : row + 1], 0.05)
    batch = BatchDecentralizedController(None, 2)
    batch.restore_rows([source.snapshot_row(0) for source in sources])
    for matrix in matrices[4:]:
        commands = batch.update(matrix, 0.05)
        for row, source in enumerate(sources):
            expected = source.update(matrix[row : row + 1], 0.05)
            assert commands[row].tobytes() == expected[0].tobytes()
