"""Bitwise pins for every IDV branch of the batched plant.

The batched plant carries its own row-wise code for each disturbance the
serial plant models: feed composition (IDV 1, 2, 8), feed loss (6, 7),
temperature shocks (3, 9, 10), cooling-water inlets (4, 5, 11, 12), kinetics
drift (13) and valve sticking (14, 15).  One lockstep batch holds one row
per disturbance IDV(1)-IDV(20) plus a quiet ``normal`` row, each disturbance
opening and closing inside the run, and every row must match
:func:`repro.experiments.runner.run_scenario` bit for bit.
"""

import numpy as np
import pytest

from repro.batch import run_specs_batched
from repro.common.config import SimulationConfig
from repro.experiments.injections import DisturbanceInjection
from repro.experiments.parallel import RunSpec
from repro.experiments.registry import get_scenario
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import Scenario
from repro.te.constants import N_IDV

CONFIG = SimulationConfig(duration_hours=2.0, samples_per_hour=25, seed=0)
WINDOW = (0.4, 1.2)
#: IDV(14)/IDV(15) open a second window, so the stuck valve is released
#: when the first one closes and latches again on a new position.
RELATCH = (1.5, 1.9)


def idv_scenario(index: int) -> Scenario:
    magnitude = 0.5 if index <= 5 else 1.0
    injections = [
        DisturbanceInjection(
            index, magnitude=magnitude, start_hour=WINDOW[0], end_hour=WINDOW[1]
        )
    ]
    if index in (14, 15):
        injections.append(
            DisturbanceInjection(index, start_hour=RELATCH[0], end_hour=RELATCH[1])
        )
    return Scenario(name=f"idv{index}-windowed", injections=tuple(injections))


@pytest.fixture(scope="module")
def specs():
    scenarios = [idv_scenario(index) for index in range(1, N_IDV + 1)]
    scenarios.append(get_scenario("normal"))
    return [
        RunSpec(
            scenario=scenario,
            simulation=CONFIG.with_seed(900 + row),
            anomaly_start_hour=WINDOW[0],
        )
        for row, scenario in enumerate(scenarios)
    ]


@pytest.fixture(scope="module")
def batched(specs):
    # One group (the specs differ only by seed), one batch of 21 rows.
    return run_specs_batched(specs, batch_size=len(specs))


def test_one_row_per_idv_plus_normal(specs):
    assert len(specs) == N_IDV + 1
    indices = [
        injection.index
        for spec in specs
        for injection in spec.scenario.disturbance_injections
    ]
    assert sorted(set(indices)) == list(range(1, N_IDV + 1))


def test_every_row_bitwise_equal_to_serial(specs, batched):
    for spec, result in zip(specs, batched):
        serial = run_scenario(
            spec.scenario,
            spec.simulation,
            anomaly_start_hour=spec.anomaly_start_hour,
        )
        label = spec.scenario.name
        for view in ("controller_data", "process_data"):
            expected = getattr(serial, view)
            actual = getattr(result, view)
            assert expected.values.tobytes() == actual.values.tobytes(), label
            assert np.array_equal(expected.timestamps, actual.timestamps), label
        assert serial.metadata == result.metadata, label
        assert serial.shutdown_time_hours == result.shutdown_time_hours, label
        assert serial.shutdown_reason == result.shutdown_reason, label
