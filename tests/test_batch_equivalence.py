"""Strict equivalence pins: the batch kernel vs the serial simulator.

The batched lockstep simulator (:mod:`repro.batch`) must produce per-run
results **bitwise-identical** to :func:`repro.experiments.runner.run_scenario`
— data views, timestamps, metadata, safety-trip truncation (including the
trip-before-first-sample fallback semantics), and live early stopping.  Any
divergence between the two kernels is a bug, never a tolerance.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.batch import BatchSimulator, run_specs_batched
from repro.common.config import (
    EarlyStopPolicy,
    ExperimentConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.common.exceptions import ConfigurationError
from repro.experiments.evaluation import Evaluation
from repro.experiments.injections import (
    BiasInjection,
    DisturbanceInjection,
    DriftInjection,
    ReplayInjection,
    StuckAtInjection,
)
from repro.experiments.parallel import RunSpec
from repro.experiments.registry import get_scenario, scenario_names
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import Scenario


def assert_results_identical(serial, batched, label=""):
    """Every observable facet of the two results must match bitwise."""
    assert np.array_equal(
        serial.controller_data.values, batched.controller_data.values
    ), f"{label}: controller view differs"
    assert np.array_equal(
        serial.process_data.values, batched.process_data.values
    ), f"{label}: process view differs"
    assert np.array_equal(
        serial.controller_data.timestamps, batched.controller_data.timestamps
    ), f"{label}: timestamps differ"
    assert serial.controller_data.metadata == batched.controller_data.metadata, label
    assert serial.process_data.metadata == batched.process_data.metadata, label
    assert serial.metadata == batched.metadata, label
    assert serial.shutdown_time_hours == batched.shutdown_time_hours, label
    assert serial.shutdown_reason == batched.shutdown_reason, label
    assert serial.config == batched.config, label
    assert serial.stopped_early == batched.stopped_early, label
    assert serial.early_stop_time_hours == batched.early_stop_time_hours, label


def run_serial(spec: RunSpec, live_analyzer=None):
    return run_scenario(
        spec.scenario,
        spec.simulation,
        anomaly_start_hour=spec.anomaly_start_hour,
        early_stop=spec.early_stop,
        live_analyzer=live_analyzer,
    )


class TestFiveScenarioEquivalence:
    """All five registered paper scenarios, horizon long enough to trip."""

    # 14 h with a 4 h onset: IDV(6) and the XMV(3)/XMEAS(1) attacks trip the
    # plant well inside the horizon, exercising per-row truncation while the
    # normal and DoS rows keep stepping.
    CONFIG = SimulationConfig(duration_hours=14.0, samples_per_hour=30, seed=0)

    @pytest.fixture(scope="class")
    def specs(self):
        return [
            RunSpec(
                scenario=get_scenario(name),
                simulation=self.CONFIG.with_seed(400 + index),
                anomaly_start_hour=4.0,
            )
            for index, name in enumerate(sorted(scenario_names()))
        ]

    @pytest.fixture(scope="class")
    def batched(self, specs):
        return run_specs_batched(specs)

    def test_five_scenarios_registered(self):
        assert len(scenario_names()) == 5

    def test_bitwise_identical_per_scenario(self, specs, batched):
        for spec, result in zip(specs, batched):
            assert_results_identical(run_serial(spec), result, spec.scenario.name)

    def test_safety_trips_occurred_in_batch(self, batched):
        tripped = [r for r in batched if r.shutdown_time_hours is not None]
        assert len(tripped) >= 2
        completed = [r for r in batched if r.completed]
        assert completed, "the normal run must survive the horizon"


class TestAllAnomalyTypes:
    """Bias, drift, stuck-at and replay injections, windowed and scaled."""

    CONFIG = SimulationConfig(duration_hours=4.0, samples_per_hour=25, seed=7)

    def composite_scenario(self):
        return Scenario(
            name="composite-batch",
            injections=(
                BiasInjection("sensor", 1, offset=0.05, start_hour=1.0, end_hour=2.5),
                DriftInjection("sensor", 9, rate_per_hour=0.4, start_hour=1.5),
                StuckAtInjection("actuator", 10, start_hour=2.0, end_hour=3.0),
                ReplayInjection("sensor", 7, record_hours=0.5, start_hour=2.0),
                DisturbanceInjection(4, magnitude=0.6, start_hour=0.5, end_hour=3.5),
            ),
        )

    def test_composite_scenario_bitwise(self):
        spec = RunSpec(
            scenario=self.composite_scenario(),
            simulation=self.CONFIG,
            anomaly_start_hour=1.0,
        )
        assert_results_identical(
            run_serial(spec), run_specs_batched([spec])[0], "composite"
        )

    def test_magnitude_sweep_rows_in_one_batch(self):
        base = get_scenario("idv6")
        specs = [
            RunSpec(
                scenario=base.scaled(magnitude),
                simulation=self.CONFIG.with_seed(31 + index),
                anomaly_start_hour=1.0,
            )
            for index, magnitude in enumerate((0.25, 0.5, 1.0, 2.0))
        ]
        for spec, result in zip(specs, run_specs_batched(specs)):
            assert_results_identical(run_serial(spec), result, spec.scenario.name)

    def test_noise_disabled_and_safety_disabled(self):
        config = replace(self.CONFIG, enable_noise=False, enable_safety=False)
        specs = [
            RunSpec(
                scenario=get_scenario("attack_xmv3"),
                simulation=config.with_seed(91),
                anomaly_start_hour=1.0,
            ),
            RunSpec(
                scenario=get_scenario("normal"),
                simulation=config.with_seed(92),
                anomaly_start_hour=1.0,
            ),
        ]
        for spec, result in zip(specs, run_specs_batched(specs)):
            assert_results_identical(run_serial(spec), result, spec.scenario.name)


class TestEarlyStopEquivalence:
    """Live early stopping truncates batched rows exactly like serial runs."""

    @pytest.fixture(scope="class")
    def analyzer(self):
        evaluation = Evaluation(
            ExperimentConfig.smoke(seed=2016).with_parallel(ParallelConfig.serial())
        )
        evaluation.calibrate(keep_results=False)
        return evaluation.analyzer

    def test_early_stop_rows_bitwise(self, analyzer):
        config = ExperimentConfig.smoke(seed=2016)
        policy = EarlyStopPolicy(grace_samples=10)
        specs = [
            RunSpec(
                scenario=get_scenario(name),
                simulation=config.simulation.with_seed(700 + index),
                anomaly_start_hour=config.anomaly_start_hour,
                early_stop=policy,
                live_token="batch-test",
            )
            for index, name in enumerate(
                ("normal", "idv6", "attack_xmv3", "attack_xmeas1", "dos_xmv3")
            )
        ]
        batched = run_specs_batched(specs, live_analyzer=analyzer)
        stopped = 0
        for spec, result in zip(specs, batched):
            assert_results_identical(
                run_serial(spec, live_analyzer=analyzer), result, spec.scenario.name
            )
            stopped += bool(result.stopped_early)
        assert stopped >= 1, "at least one anomalous run must truncate"

    def test_early_stop_without_analyzer_raises(self):
        spec = RunSpec(
            scenario=get_scenario("idv6"),
            simulation=SimulationConfig.fast(seed=1),
            anomaly_start_hour=5.0,
            early_stop=EarlyStopPolicy(),
        )
        with pytest.raises(ConfigurationError):
            run_specs_batched([spec])


class TestBatchSimulatorValidation:
    def test_invalid_batch_size(self):
        with pytest.raises(ConfigurationError):
            BatchSimulator(batch_size=0)

    def test_onset_outside_horizon_rejected(self):
        spec = RunSpec(
            scenario=get_scenario("idv6"),
            simulation=SimulationConfig(duration_hours=2.0, samples_per_hour=10),
            anomaly_start_hour=5.0,
        )
        with pytest.raises(ConfigurationError):
            run_specs_batched([spec])

    def test_mixed_configs_grouped_not_mixed_up(self):
        # Two incompatible simulation configs in one call: each run must
        # still come back bitwise-identical and in order.
        fast = SimulationConfig(duration_hours=2.0, samples_per_hour=20, seed=5)
        slow = SimulationConfig(duration_hours=3.0, samples_per_hour=10, seed=6)
        specs = [
            RunSpec(scenario=get_scenario("normal"), simulation=fast,
                    anomaly_start_hour=1.0),
            RunSpec(scenario=get_scenario("idv6"), simulation=slow,
                    anomaly_start_hour=1.0),
            RunSpec(scenario=get_scenario("idv6"), simulation=fast.with_seed(8),
                    anomaly_start_hour=1.0),
        ]
        for spec, result in zip(specs, run_specs_batched(specs)):
            assert_results_identical(run_serial(spec), result, spec.scenario.name)
