"""Batch-vs-serial determinism: seeds, kernels, batch sizes, caching.

The batch kernel must be a pure execution detail: per-run derived seeds,
noise draws and injection windows are fixed by the
:class:`~repro.experiments.parallel.RunSpec` before dispatch, so whichever
batch size executes a campaign, every run — and every cache key — comes out
identical to the serial kernel's (:func:`run_scenario`).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch import run_specs_batched
from repro.common.config import ExperimentConfig, ParallelConfig, SimulationConfig
from repro.experiments.parallel import (
    CampaignEngine,
    ResultCache,
    RunSpec,
    calibration_specs,
    scenario_specs,
)
from repro.experiments.registry import get_scenario
from repro.experiments.runner import run_scenario

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Tiny but complete: noise, ambient walks, attack windows all active.
TINY = SimulationConfig(duration_hours=1.0, samples_per_hour=10, seed=0)


def tiny_specs(n_runs=13):
    """A mixed bag of scenarios/seeds small enough to run many times."""
    names = ("normal", "idv6", "attack_xmv3", "attack_xmeas1", "dos_xmv3")
    return [
        RunSpec(
            scenario=get_scenario(names[index % len(names)]),
            simulation=TINY.with_seed(8000 + 17 * index),
            anomaly_start_hour=0.5,
        )
        for index in range(n_runs)
    ]


def run_serially(specs):
    """The serial kernel's results of ``specs``, run by run."""
    return [
        run_scenario(
            spec.scenario, spec.simulation, anomaly_start_hour=spec.anomaly_start_hour
        )
        for spec in specs
    ]


def values_of(results):
    return [
        (result.controller_data.values, result.process_data.values)
        for result in results
    ]


def assert_same_runs(a, b):
    assert len(a) == len(b)
    for (ac, ap), (bc, bp) in zip(values_of(a), values_of(b)):
        assert np.array_equal(ac, bc)
        assert np.array_equal(ap, bp)


class TestBackendDeterminism:
    def test_engine_backends_bitwise_identical(self):
        specs = tiny_specs()
        serial = run_serially(specs)
        batch = CampaignEngine(ParallelConfig.serial()).run(specs)
        assert_same_runs(serial, batch)
        for serial_run, batch_run in zip(serial, batch):
            assert serial_run.metadata == batch_run.metadata

    def test_batch_one_equals_serial_runner(self):
        for spec in tiny_specs(5):
            serial = run_scenario(
                spec.scenario, spec.simulation, anomaly_start_hour=spec.anomaly_start_hour
            )
            batched = run_specs_batched([spec], batch_size=1)[0]
            assert np.array_equal(
                serial.controller_data.values, batched.controller_data.values
            )
            assert np.array_equal(
                serial.process_data.values, batched.process_data.values
            )

    def test_batch_sizes_row_identical(self):
        specs = tiny_specs()
        b7 = run_specs_batched(specs, batch_size=7)
        b32 = run_specs_batched(specs, batch_size=32)
        assert_same_runs(b7, b32)

    @SETTINGS
    @given(batch_size=st.integers(1, 32), n_runs=st.integers(1, 13))
    def test_any_batch_size_matches_whole_batch(self, batch_size, n_runs):
        specs = tiny_specs(n_runs)
        assert_same_runs(
            run_specs_batched(specs, batch_size=batch_size),
            run_specs_batched(specs, batch_size=32),
        )

    def test_derived_seeds_and_cache_keys_backend_independent(self):
        config = ExperimentConfig.smoke(seed=2016)
        specs = calibration_specs(config) + scenario_specs(
            config, get_scenario("idv6")
        )
        # Specs (and therefore derived seeds and cache keys) are built
        # before dispatch; the execution plan never enters the derivation.
        seeds = [spec.simulation.seed for spec in specs]
        keys = [spec.cache_key() for spec in specs]
        assert len(set(seeds)) == len(seeds)
        assert len(set(keys)) == len(keys)
        again = calibration_specs(config) + scenario_specs(
            config, get_scenario("idv6")
        )
        assert [spec.cache_key() for spec in again] == keys

    def test_noise_draws_and_windows_identical_across_backends(self):
        # An attack window boundary falls between samples; both kernels
        # must flip the tampered entry at exactly the same sample.
        spec = RunSpec(
            scenario=get_scenario("attack_xmeas1"),
            simulation=TINY.with_seed(123),
            anomaly_start_hour=0.5,
        )
        serial = run_scenario(spec.scenario, spec.simulation, anomaly_start_hour=0.5)
        batched = run_specs_batched([spec] * 3, batch_size=3)
        for result in batched:
            assert np.array_equal(
                serial.controller_data.values, result.controller_data.values
            )
        # The forged sensor reads zero inside the window on the controller
        # view while the process view keeps the true value.
        attacked = serial.controller_data.values[:, 0]
        onset_sample = int(0.5 * 10)
        assert np.all(attacked[onset_sample:] == 0.0)
        assert not np.all(serial.process_data.values[onset_sample:, 0] == 0.0)


class TestCacheInterop:
    def test_serial_cache_entries_hit_from_batch_backend(self, tmp_path):
        specs = tiny_specs(6)
        serial = run_serially(specs)
        cache = ResultCache(tmp_path)
        for spec, result in zip(specs, serial):
            cache.store(spec, result)

        batch_engine = CampaignEngine(ParallelConfig.serial(cache_dir=str(tmp_path)))
        batch = batch_engine.run(specs)
        assert batch_engine.last_stats.n_cache_hits == len(specs)
        assert batch_engine.last_stats.n_simulated == 0
        assert_same_runs(serial, batch)

    def test_batch_cache_entries_hit_from_serial_backend(self, tmp_path):
        specs = tiny_specs(6)
        batch_engine = CampaignEngine(ParallelConfig.serial(cache_dir=str(tmp_path)))
        batch_engine.run(specs)
        assert batch_engine.last_stats.n_simulated == len(specs)
        cache = ResultCache(tmp_path)
        assert_same_runs(run_serially(specs), [cache.load(spec) for spec in specs])


class TestParallelConfigBatchFields:
    def test_batch_size_round_trips(self):
        config = ParallelConfig(batch_size=8)
        mapping = config.to_mapping()
        assert "backend" not in mapping
        assert mapping["batch_size"] == 8
        assert ParallelConfig.from_mapping(mapping) == config

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(Exception):
            ParallelConfig(batch_size=0)

    def test_simulation_chunk_covers_batches_analysis_chunk_stays_small(self):
        config = ParallelConfig(n_workers=2, batch_size=8)
        assert config.simulation_chunk_size() == 16
        # The analysis stage's O(chunk) memory bound ignores the batch size.
        assert config.resolved_chunk_size == 4
        assert ParallelConfig(n_workers=2).simulation_chunk_size() == 32
        assert ParallelConfig(n_workers=3, batch_size=1).simulation_chunk_size() == 6
        explicit = ParallelConfig(n_workers=2, chunk_size=5)
        assert explicit.simulation_chunk_size() == 5
        assert explicit.resolved_chunk_size == 5

    def test_default_width_follows_the_trajectory_size(self):
        paper = SimulationConfig.paper_settings()
        config = ParallelConfig(n_workers=2)
        # 4 x 122 MB of trajectories at the paper's 72 h x 2000 samples/h.
        assert config.batch_width(paper) == 4
        assert config.simulation_chunk_size(paper) == 8
        assert config.batch_width(SimulationConfig.fast()) == 16
        assert config.batch_width(paper.with_duration(1000.0)) == 1
        assert config.simulation_chunk_size(paper.with_duration(1000.0)) == 4
        # An explicit batch size is taken as given.
        assert ParallelConfig(batch_size=8).batch_width(paper) == 8


class TestBatchMemory:
    def test_full_horizon_results_take_their_arrays_without_a_copy(self):
        import tracemalloc

        simulation = SimulationConfig(
            duration_hours=2.5,
            samples_per_hour=200,
            integration_steps_per_sample=1,
            seed=0,
        )
        specs = [
            RunSpec(get_scenario("normal"), simulation.with_seed(seed), 1.0)
            for seed in range(4)
        ]
        # Two 53-column float64 views per run.
        trajectory_bytes = len(specs) * 2 * simulation.total_samples * 53 * 8
        tracemalloc.start()
        try:
            results = run_specs_batched(specs, batch_size=len(specs))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(
            result.controller_data.n_observations == simulation.total_samples
            for result in results
        )
        # One copy of the trajectories, not a batch slab plus per-run
        # copies (which would peak above twice this).
        assert peak < 1.6 * trajectory_bytes
