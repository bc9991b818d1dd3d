"""Runs that resume from an onset checkpoint, against the serial kernel.

A lockstep batch leaves a checkpoint at the anomaly onset for the later runs
of its seeds (:mod:`repro.batch.prefix`); a later batch starts there instead
of at t = 0.  Every resumed run must be bitwise-identical to
:func:`repro.experiments.runner.run_scenario`, and every run the sharing
rules leave out must step from t = 0, which the count of
``BatchTEPlant.step_batch`` calls shows.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.anomaly.diagnosis import DualLevelAnalyzer
from repro.batch import BatchSimulator
from repro.batch.prefix import PrefixStore, onset_sample, prefix_key
from repro.batch.simulator import _Lockstep
from repro.common.config import (
    EarlyStopPolicy,
    ExperimentConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.experiments.analysis import AnalysisPipeline
from repro.experiments.injections import (
    DisturbanceInjection,
    ReplayInjection,
    StuckAtInjection,
)
from repro.experiments.parallel import CampaignEngine, RunSpec
from repro.experiments.registry import get_scenario, scenario_names
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import Scenario, normal_scenario
from repro.process.interfaces import StepObserver
from repro.process.safety import SafetyLimit, SafetyMonitor
from repro.common.exceptions import ConfigurationError
from repro.te.batch import BatchTEPlant, _NoiseBlock, _WalkBlock

#: 6 h at 20 samples/h, 4 steps per sample; the onset at 2.5 h falls on
#: sample 50 of 120.
CONFIG = SimulationConfig(duration_hours=6.0, samples_per_hour=20, seed=0)
ONSET = 2.5
ONSET_SAMPLE = 50
STEPS = CONFIG.integration_steps_per_sample


def run_serial(run: RunSpec):
    return run_scenario(
        run.scenario, run.simulation, anomaly_start_hour=run.anomaly_start_hour
    )


def assert_same_run(serial, resumed, label=""):
    """Both data views, their times, metadata and the trip, bit for bit."""
    for view in ("controller_data", "process_data"):
        expected, actual = getattr(serial, view), getattr(resumed, view)
        assert np.array_equal(expected.values, actual.values), f"{label}: {view}"
        assert np.array_equal(expected.timestamps, actual.timestamps), label
        assert expected.metadata == actual.metadata, label
    assert serial.metadata == resumed.metadata, label
    assert serial.shutdown_time_hours == resumed.shutdown_time_hours, label
    assert serial.shutdown_reason == resumed.shutdown_reason, label


def spec(scenario: Scenario, seed: int, **changes) -> RunSpec:
    return RunSpec(
        scenario=scenario,
        simulation=CONFIG.with_seed(seed),
        anomaly_start_hour=ONSET,
        **changes,
    )


def disturbance(index: int) -> Scenario:
    return Scenario(name=f"idv{index}", injections=(DisturbanceInjection(index),))


@pytest.fixture
def steps(monkeypatch):
    """Counts ``BatchTEPlant.step_batch`` calls."""
    count = {"calls": 0}
    original = BatchTEPlant.step_batch

    def step_batch(self, *args, **kwargs):
        count["calls"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BatchTEPlant, "step_batch", step_batch)
    return count


def run_after_producer(consumers, producers, batch_size=16, **run_options):
    """Step ``producers`` with ``consumers`` announced, then ``consumers``;
    returns the consumers' results and the store."""
    store = PrefixStore()
    store.expect(consumers)
    simulator = BatchSimulator(batch_size=batch_size)
    simulator.run_specs(producers, prefixes=store)
    return simulator.run_specs(consumers, prefixes=store, **run_options), store


def test_onset_sample_follows_the_plant_clock():
    assert onset_sample(CONFIG, ONSET) == ONSET_SAMPLE
    assert onset_sample(CONFIG, 0.0) == 0
    assert onset_sample(CONFIG, 99.0) == CONFIG.total_samples
    # 2.5 h lies exactly on a step here; just past it moves to the next step,
    # still inside sample 50.
    assert onset_sample(CONFIG, ONSET + 1e-9) == ONSET_SAMPLE


class TestResumedRunsMatchSerial:
    """One checkpoint per seed, left by a normal run, feeds every scenario."""

    SCENARIOS = [get_scenario(name) for name in sorted(scenario_names())] + [
        Scenario(name="stuck_xmeas7", injections=(StuckAtInjection("sensor", 7),)),
        disturbance(9),
        disturbance(10),
        disturbance(13),
    ]

    @pytest.fixture(scope="class")
    def consumers(self):
        return [spec(s, seed) for seed in (11, 12) for s in self.SCENARIOS]

    @pytest.fixture(scope="class")
    def resumed(self, consumers):
        producers = [spec(normal_scenario(), seed) for seed in (11, 12)]
        return run_after_producer(consumers, producers)

    def test_every_run_resumed(self, consumers, resumed):
        _, store = resumed
        assert store.n_resumed == len(consumers)
        assert len(store) == 0 and store.samples == 0

    @pytest.mark.parametrize("index", range(2 * len(SCENARIOS)))
    def test_bitwise_identical_to_run_scenario(self, consumers, resumed, index):
        results, _ = resumed
        assert_same_run(
            run_serial(consumers[index]),
            results[index],
            f"{consumers[index].scenario.name} seed {consumers[index].simulation.seed}",
        )


def test_pending_safety_violation_carries_over(monkeypatch):
    # Violated from the first check on, the limit trips 3.5 h later, an
    # hour after the onset, only if the start found before the checkpoint
    # is kept.
    limits = (
        SafetyLimit("reactor_pressure", low=1e6, description="test", grace_hours=3.5),
    )
    monkeypatch.setattr("repro.batch.simulator.DEFAULT_SAFETY_LIMITS", limits)
    monkeypatch.setattr(
        "repro.experiments.runner.default_safety_monitor",
        lambda: SafetyMonitor(limits),
    )
    consumer = spec(get_scenario("idv6"), 21)
    store = PrefixStore()
    store.expect([consumer])
    simulator = BatchSimulator()
    simulator.run_specs([spec(normal_scenario(), 21)], prefixes=store)
    checkpoint = store.get(prefix_key(consumer))
    assert not np.isnan(checkpoint.safety).all(), "a violation is pending"

    (resumed,) = simulator.run_specs([consumer], prefixes=store)
    assert store.n_resumed == 1
    serial = run_serial(consumer)
    # A start taken again at the onset would not trip inside the horizon.
    assert ONSET < serial.shutdown_time_hours < ONSET + 3.5
    assert_same_run(serial, resumed, "pending violation")


def test_rows_resumed_from_one_checkpoint_share_no_generator():
    consumers = [spec(get_scenario("idv6"), 31), spec(get_scenario("dos_xmv3"), 31)]
    store = PrefixStore()
    store.expect(consumers)
    BatchSimulator().run_specs([spec(normal_scenario(), 31)], prefixes=store)
    checkpoint = store.get(prefix_key(consumers[0]))

    batch = _Lockstep(consumers)
    batch.restore([checkpoint, checkpoint], STEPS)
    held = [checkpoint.plant.noise[0], checkpoint.plant.ambient[0]]
    for block in (batch.plant._noise_draws, batch.plant._ambient_draws):
        first, second = block._generators
        assert first is not second
        assert first.bit_generator is not second.bit_generator
        assert all(g is not h for g in (first, second) for h in held)


class _Counting(StepObserver):
    def __init__(self):
        self.samples = 0

    def on_sample(self, sample):
        self.samples += 1
        return False


def _fitted_analyzer():
    result = run_scenario(normal_scenario(), CONFIG.with_seed(5))
    return DualLevelAnalyzer().fit(result.controller_data, result.process_data)


class TestRuleCasesStepFromZero:
    """A run the sharing rules leave out steps its whole horizon."""

    FULL = CONFIG.total_samples * STEPS
    RESUMED = (CONFIG.total_samples - ONSET_SAMPLE) * STEPS

    def consumer_steps(self, steps, consumer, **options):
        """Run ``consumer`` while a checkpoint of its seed is held (a clean
        twin still needs it); returns its step count, the store and its
        result."""
        seed = consumer.simulation.seed
        store = PrefixStore()
        store.expect([consumer, spec(get_scenario("idv6"), seed)])
        simulator = BatchSimulator(**options.pop("simulator", {}))
        simulator.run_specs([spec(normal_scenario(), seed)], prefixes=store)
        assert len(store) == 1
        steps["calls"] = 0
        (result,) = simulator.run_specs([consumer], prefixes=store, **options)
        return steps["calls"], store, result

    def test_a_clean_run_resumes(self, steps):
        calls, store, _ = self.consumer_steps(steps, spec(get_scenario("dos_xmv3"), 41))
        assert (calls, store.n_resumed) == (self.RESUMED, 1)

    def test_observers(self, steps):
        observer = _Counting()
        calls, store, _ = self.consumer_steps(
            steps,
            spec(get_scenario("dos_xmv3"), 41),
            observer_factories=[[lambda row: [observer]]],
        )
        assert (calls, store.n_resumed) == (self.FULL, 0)
        assert observer.samples == CONFIG.total_samples

    def test_early_stop_policy(self, steps):
        consumer = spec(normal_scenario(), 41, early_stop=EarlyStopPolicy())
        calls, store, result = self.consumer_steps(
            steps, consumer, simulator={"live_analyzer": _fitted_analyzer()}
        )
        # The monitor may stop the run; every sample it recorded was stepped.
        assert store.n_resumed == 0
        assert calls == result.controller_data.n_observations * STEPS

    def test_replay_attack(self, steps):
        replay = Scenario(name="replay", injections=(ReplayInjection("sensor", 7),))
        calls, store, _ = self.consumer_steps(steps, spec(replay, 41))
        assert (calls, store.n_resumed) == (self.FULL, 0)

    def test_injection_before_the_onset(self, steps):
        early = Scenario(
            name="early",
            injections=(
                DisturbanceInjection(1, start_hour=ONSET - 0.5, end_hour=ONSET - 0.25),
            ),
        )
        calls, store, _ = self.consumer_steps(steps, spec(early, 41))
        assert (calls, store.n_resumed) == (self.FULL, 0)

    def test_producer_that_trips_before_the_onset(self, steps, monkeypatch):
        limits = (SafetyLimit("reactor_pressure", low=1e6, grace_hours=1.0),)
        monkeypatch.setattr("repro.batch.simulator.DEFAULT_SAFETY_LIMITS", limits)
        consumer = spec(get_scenario("idv6"), 41)
        store = PrefixStore()
        store.expect([consumer])
        BatchSimulator().run_specs([spec(normal_scenario(), 41)], prefixes=store)
        assert len(store) == 0
        steps["calls"] = 0
        (result,) = BatchSimulator().run_specs([consumer], prefixes=store)
        assert store.n_resumed == 0
        # It trips at the same step the producer did, stepping from t = 0.
        assert steps["calls"] == round(result.shutdown_time_hours * 80)

    def test_only_needed_seeds_and_dropped_once_started(self):
        consumers = [spec(get_scenario("idv6"), 41), spec(get_scenario("idv6"), 42)]
        producers = [spec(normal_scenario(), seed) for seed in (41, 42, 43)]
        store = PrefixStore()
        store.expect(consumers)
        simulator = BatchSimulator()
        simulator.run_specs(producers, prefixes=store)
        assert len(store) == 2 and store.samples == 2 * ONSET_SAMPLE
        assert store.get(prefix_key(spec(normal_scenario(), 43))) is None
        store.discard(consumers[:1])
        assert len(store) == 1
        simulator.run_specs(consumers[1:], prefixes=store)
        assert len(store) == 0 and store.n_resumed == 1

    def test_store_stays_within_one_batch_of_trajectories(self, steps):
        # batch_size 1: one batch holds 120 samples, so two 50-sample
        # prefixes fit and a third does not.
        seeds = (51, 52, 53)
        consumers = [spec(get_scenario("idv6"), seed) for seed in seeds]
        store = PrefixStore()
        store.expect(consumers)
        simulator = BatchSimulator(batch_size=1)
        simulator.run_specs([spec(normal_scenario(), seed) for seed in seeds], prefixes=store)
        assert len(store) == 2 and store.samples <= CONFIG.total_samples
        steps["calls"] = 0
        results = simulator.run_specs(consumers, prefixes=store)
        assert store.n_resumed == 2
        assert steps["calls"] == 2 * self.RESUMED + self.FULL
        for consumer, result in zip(consumers, results):
            assert_same_run(run_serial(consumer), result, "budget")


class TestCampaignStore:
    """The engine's store across a pipeline's chunks."""

    SCENARIOS = ("normal", "idv6", "dos_xmv3", "attack_xmv3")

    @pytest.fixture
    def pipeline(self):
        config = replace(
            ExperimentConfig.smoke(seed=2016),
            n_calibration_runs=3,
            n_runs_per_scenario=2,
            simulation=replace(CONFIG, seed=2016),
            anomaly_start_hour=ONSET,
        ).with_parallel(ParallelConfig(n_workers=1, batch_size=4))
        analyzer = DualLevelAnalyzer(config.mspc)
        return AnalysisPipeline(analyzer, config, engine=CampaignEngine(config.parallel))

    @staticmethod
    def fit(pipeline):
        return lambda calibration: pipeline.analyzer.fit(
            calibration.controller_data, calibration.process_data
        )

    def test_later_chunks_resume_and_the_store_ends_empty(self, pipeline):
        scenarios = [get_scenario(name) for name in self.SCENARIOS]
        runs = list(pipeline.iter_campaign(scenarios, fit=self.fit(pipeline)))
        assert len(runs) == 8
        # Chunks of 4: [3 calibration, normal/0], [normal/1, idv6/0-1,
        # dos/0], [dos/1, xmv3/0-1].  The second chunk steps from t = 0
        # (two of its runs have no checkpoint yet); the third resumes.
        assert pipeline.simulation_stats.n_resumed == 3
        assert len(pipeline.engine.prefixes) == 0
        assert not pipeline.engine.prefixes._pending

    def test_store_empty_after_an_early_close(self, pipeline):
        scenarios = [get_scenario(name) for name in self.SCENARIOS]
        runs = pipeline.iter_campaign(scenarios, fit=self.fit(pipeline))
        next(runs)
        assert len(pipeline.engine.prefixes) == 1
        runs.close()
        assert len(pipeline.engine.prefixes) == 0
        assert not pipeline.engine.prefixes._pending


@pytest.mark.parametrize("kind", ["ambient", "noise"])
def test_draw_blocks_restore_uneven_unread_draws(kind):
    # Two rows left with 2 and 5 draws fetched but unread: each reads them,
    # then its own stream on, and the shared cursor holds.
    if kind == "ambient":
        block, shape = _WalkBlock([], block=4), (lambda n: n)
    else:
        block, shape = _NoiseBlock([], np.ones(3), block=4), (lambda n: (n, 3))
    rows, expected = [], []
    for seed, n_unread in ((1, 2), (2, 5)):
        generator = np.random.default_rng(seed)
        rows.append((generator, generator.standard_normal(shape(n_unread))))
        expected.append(np.random.default_rng(seed).standard_normal(shape(12)))
    block.restore(rows)
    if kind == "ambient":
        got = np.concatenate([block.base() for _ in range(4)])
    else:
        got = np.stack([block.next().copy() for _ in range(12)])
    assert np.array_equal(got, np.stack(expected, axis=1))
    assert all(mine is not row[0] for mine, row in zip(block._generators, rows))


def test_restore_refuses_a_batch_acted_on_before_the_checkpoint():
    consumer = spec(get_scenario("idv6"), 61)
    store = PrefixStore()
    store.expect([consumer])
    BatchSimulator().run_specs([spec(normal_scenario(), 61)], prefixes=store)
    checkpoint = store.get(prefix_key(consumer))
    for injection in (
        DisturbanceInjection(1, start_hour=1.0),
        StuckAtInjection("actuator", 3, start_hour=1.0),
        ReplayInjection("sensor", 7, record_hours=2.0),
    ):
        early = spec(Scenario(name="early", injections=(injection,)), 61)
        with pytest.raises(ConfigurationError):
            _Lockstep([early]).restore([checkpoint], STEPS)


def test_building_an_engine_leaves_the_batch_kernel_unloaded():
    # Set-up (imports, spec load, Session construction) stays as cheap as
    # before: the store, and with it the kernel, loads on first use.
    source = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from repro.experiments.parallel import CampaignEngine\n"
        "engine = CampaignEngine()\n"
        "print('repro.batch' in sys.modules)\n"
        "engine.prefixes\n"
        "print('repro.batch' in sys.modules)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.split() == ["False", "True"]
