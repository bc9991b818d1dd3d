"""Nothing a caller of the lockstep kernel holds is written by a later step.

Every lockstep component binds its constants, views and buffers once per
width and steps into them.  What the components hand out must therefore
not be one of those buffers: a measurement, a transmitted vector, a
command matrix, a :class:`~repro.te.batch.PlantRow` and the arrays of an
onset checkpoint are made fresh or copied.  The flow table the next
measurement reads is the plant's own, double-buffered: the table one step
leaves is still whole after the next step, a compaction or a restore (the
step after that writes it again).  Each case below holds those values and
a copy of each, drives the batch on (steps of one sample, a trip with its
noiseless fallback measurement, a compaction mid-sample, a restore, a
width change) and compares.
"""

import copy

import numpy as np
import pytest

from repro.batch import BatchSimulator
from repro.batch.prefix import PrefixStore, prefix_key
from repro.common.config import SimulationConfig
from repro.control.batch import BatchDecentralizedController
from repro.control.te_controller import TEDecentralizedController
from repro.experiments.parallel import RunSpec
from repro.experiments.registry import get_scenario
from repro.experiments.scenarios import normal_scenario
from repro.network.attacks import AttackSchedule, IntegrityAttack
from repro.network.channel import BatchChannel, Channel
from repro.process.disturbances import BatchIdv
from repro.te.batch import BatchTEPlant, PlantRow, _FlowTable
from repro.te.constants import N_XMEAS, N_XMV

SEEDS = (11, 22, 33)
DT = 1.0 / 120.0
STEPS_PER_SAMPLE = 4


def same(expected, actual) -> bool:
    """Bitwise equality of held values: arrays, plant rows, generators,
    and tuples, lists and dicts of them."""
    if isinstance(expected, np.ndarray) or np.isscalar(expected):
        return np.asarray(expected).tobytes() == np.asarray(actual).tobytes()
    if isinstance(expected, np.random.Generator):
        return expected.bit_generator.state == actual.bit_generator.state
    if isinstance(expected, PlantRow):
        return all(
            same(getattr(expected, name), getattr(actual, name))
            for name in ("flows", "stuck_cw", "noise", "ambient")
        ) and all(
            same(np.asarray(value), np.asarray(getattr(actual.state, name)))
            for name, value in vars(expected.state).items()
        )
    if isinstance(expected, dict):
        return expected.keys() == actual.keys() and all(
            same(value, actual[key]) for key, value in expected.items()
        )
    if isinstance(expected, (tuple, list)):
        return len(expected) == len(actual) and all(
            same(e, a) for e, a in zip(expected, actual)
        )
    return expected == actual


class Held:
    """Values a caller holds, each with a deep copy to compare against."""

    def __init__(self):
        self._values = []

    def __call__(self, label, value):
        self._values.append((label, value, copy.deepcopy(value)))
        return value

    def flows(self, label, plant):
        """The arrays of the flow table the next measurement reads."""
        return self(
            label,
            {name: getattr(plant._last_flows, name) for name, _ in _FlowTable.ENTRIES},
        )

    def assert_unchanged(self):
        for label, value, expected in self._values:
            assert same(expected, value), f"{label} was written after it was handed out"


class Batch:
    """A bare lockstep loop over the components, as the batch simulator
    runs it; the middle row's sensor channel is compromised from t = 0, so
    its channel hands out a copy while the actuator channel passes the
    command matrix through."""

    def __init__(self, seeds=SEEDS):
        self.plant = BatchTEPlant(seeds)
        self.controller = BatchDecentralizedController(None, len(seeds))
        attack = IntegrityAttack(7, 0.0, injected=2700.0)
        self.sensors = BatchChannel(
            [
                Channel("sensors", N_XMEAS, AttackSchedule([attack]) if row == 1 else None)
                for row in range(len(seeds))
            ]
        )
        self.actuators = BatchChannel(
            [Channel("actuators", N_XMV) for _ in seeds]
        )

    def step(self, held: Held = None, label=""):
        plant = self.plant
        time = plant.time_hours
        measured = plant.measure()
        received = self.sensors.transmit(measured, time)
        commands = self.controller.update(received, DT)
        applied = self.actuators.transmit(commands, time)
        if held is not None:
            held(f"{label} measurement", measured)
            held(f"{label} transmitted measurement", received)
            held(f"{label} command matrix", commands)
            held(f"{label} transmitted commands", applied)
        plant.step_batch(applied, DT, BatchIdv.none(plant.n_rows))
        return measured

    def take(self, keep):
        for component in (self.plant, self.controller, self.sensors, self.actuators):
            component.take(np.asarray(keep))


def test_the_steps_of_one_sample_write_nothing_held():
    batch, held = Batch(), Held()
    batch.step()
    held("plant row", batch.plant.snapshot_row(1))
    held("controller row", batch.controller.snapshot_row(1))
    for step in range(STEPS_PER_SAMPLE):
        batch.step(held, f"step {step}")
    held.assert_unchanged()


@pytest.mark.parametrize("operation", ["step", "take", "restore"])
def test_a_flow_table_stays_whole_through_the_next_operation(operation):
    batch, held = Batch(), Held()
    batch.step()
    batch.step()
    held.flows("flow table", batch.plant)
    before = batch.plant._last_flows
    if operation == "step":
        batch.step()
    elif operation == "take":
        batch.take([2, 0])
    else:
        rows = [batch.plant.snapshot_row(row) for row in (2, 0, 1)]
        batch.plant.restore_rows(rows)
    assert batch.plant._last_flows is not before
    held.assert_unchanged()


def test_the_trip_fallback_measurement_is_a_new_array():
    # A trip before the first sample records the noiseless state, measured
    # after the step that tripped; the kept rows record the noisy reading
    # taken before it.
    batch, held = Batch(), Held()
    noisy = held("measurement", batch.step())
    fallback = batch.plant.measure(noisy=False)
    assert fallback is not noisy
    batch.take([0, 2])
    held("kept rows", noisy[[0, 2]])
    batch.step()
    held.assert_unchanged()
    assert not np.array_equal(noisy, fallback)


def test_a_compaction_mid_sample_writes_nothing_held():
    batch, held = Batch(), Held()
    batch.step()
    held("plant row", batch.plant.snapshot_row(2))
    for step in range(2):
        batch.step(held, f"step {step}")
    batch.take([0, 2])
    for step in range(2, STEPS_PER_SAMPLE + 2):
        batch.step(held, f"step {step}")
    held.assert_unchanged()


def test_a_width_change_writes_nothing_held_and_rebinds_every_view():
    batch, twin, held = Batch(), Batch(seeds=SEEDS[2:]), Held()
    # The twin is row 2 alone from the start; once the batch drops to that
    # row, the two must step alike, which they cannot through a view left
    # on the old width.
    for step in range(3):
        batch.step(held, f"step {step}")
        twin.step()
    held("plant row", batch.plant.snapshot_row(2))
    batch.take([2])
    for step in range(3, 3 + 2 * STEPS_PER_SAMPLE):
        measured = batch.step(held, f"step {step}")
        assert same(twin.step(), measured), f"step {step}"
    held.assert_unchanged()


def test_restored_rows_write_nothing_held():
    source, target, held = Batch(), Batch(seeds=SEEDS[:2]), Held()
    for _ in range(3):
        source.step()
        target.step()
    rows = [held(f"plant row {row}", source.plant.snapshot_row(row)) for row in (2, 0)]
    states = [held(f"controller row {row}", source.controller.snapshot_row(row)) for row in (2, 0)]
    held("target measurement", target.plant.measure(noisy=False))
    target.plant.restore_rows(rows)
    target.controller.restore_rows(states)
    # The restored rows measure what the source rows measure: the next
    # measurement reads the restored flow table, not the one before.
    assert same(
        source.plant.measure(noisy=False)[[2, 0]], target.plant.measure(noisy=False)
    )
    for step in range(2 * STEPS_PER_SAMPLE):
        target.step(held, f"step {step}")
    held.assert_unchanged()


def test_a_controller_hands_out_each_command_matrix_once():
    controller = BatchDecentralizedController(None, 3)
    measurements = BatchTEPlant(SEEDS).measure()
    held = Held()
    held("commands", controller.update(measurements, DT))
    controller.fallback_row(
        1, [0.5 * loop.definition.kc for loop in TEDecentralizedController().loops]
    )
    held("commands after a fallback", controller.update(measurements, DT))
    controller.restore_rows([controller.snapshot_row(row) for row in (2, 1, 0)])
    held("commands after a restore", controller.update(measurements, DT))
    controller.take(np.array([0, 2]))
    controller.update(measurements[[0, 2]], DT)
    held.assert_unchanged()


def test_checkpoint_arrays_are_never_written(monkeypatch):
    config = SimulationConfig(duration_hours=3.0, samples_per_hour=20, seed=0)
    producer = RunSpec(
        scenario=normal_scenario(), simulation=config.with_seed(5), anomaly_start_hour=1.5
    )
    consumers = [
        RunSpec(
            scenario=get_scenario(name),
            simulation=config.with_seed(5),
            anomaly_start_hour=1.5,
        )
        for name in ("idv6", "dos_xmv3")
    ]
    held, kept = Held(), []
    keep = PrefixStore.keep

    def hold_and_keep(self, key, checkpoint, budget):
        kept.append(checkpoint)
        held("checkpoint", vars(checkpoint))
        return keep(self, key, checkpoint, budget)

    monkeypatch.setattr(PrefixStore, "keep", hold_and_keep)
    store = PrefixStore()
    store.expect(consumers)
    simulator = BatchSimulator(batch_size=4)
    simulator.run_specs([producer], prefixes=store)
    assert kept and store.get(prefix_key(consumers[0])) is kept[0]
    simulator.run_specs(consumers, prefixes=store)
    assert store.n_resumed == 2
    held.assert_unchanged()


@pytest.mark.parametrize("noisy", [True, False])
def test_every_measurement_is_a_new_array(noisy):
    plant = BatchTEPlant(SEEDS)
    first = plant.measure(noisy=noisy)
    assert plant.measure(noisy=noisy) is not first
