"""Tests for the parallel campaign engine and its result cache.

The engine's contract is strong: whatever the worker count, batch size or
cache state, a campaign must yield bitwise-identical datasets, equal run by
run to the serial kernel (``run_scenario``).  These tests pin
that contract down with small (seconds-long) closed-loop simulations.
"""

from __future__ import annotations

import zipfile
from dataclasses import replace

import numpy as np
import pytest

from repro.common.config import (
    ExperimentConfig,
    MSPCConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.common.exceptions import ConfigurationError
from repro.datasets.io import load_result_npz, save_result_npz
from repro.experiments.evaluation import Evaluation
from repro.experiments.parallel import (
    CampaignEngine,
    ResultCache,
    RunSpec,
    calibration_run_seed,
    calibration_specs,
    scenario_run_seed,
    scenario_specs,
)
from repro.experiments.runner import run_calibration_campaign, run_scenario
from repro.experiments.scenarios import (
    disturbance_idv6_scenario,
    normal_scenario,
)


def tiny_config(seed: int = 3, **parallel_kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        n_calibration_runs=2,
        n_runs_per_scenario=2,
        anomaly_start_hour=1.0,
        simulation=SimulationConfig(duration_hours=2.5, samples_per_hour=20, seed=seed),
        mspc=MSPCConfig(),
        parallel=ParallelConfig(**parallel_kwargs),
        seed=seed,
    )


def assert_results_identical(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.controller_data.values, b.controller_data.values)
        assert np.array_equal(a.process_data.values, b.process_data.values)
        assert np.array_equal(a.controller_data.timestamps, b.controller_data.timestamps)
        assert a.controller_data.variable_names == b.controller_data.variable_names
        assert a.shutdown_time_hours == b.shutdown_time_hours
        assert a.shutdown_reason == b.shutdown_reason
        assert a.config == b.config
        assert a.metadata == b.metadata


# ----------------------------------------------------------------------
# ParallelConfig
# ----------------------------------------------------------------------
class TestParallelConfig:
    def test_defaults(self):
        config = ParallelConfig()
        assert config.batch_width() == ParallelConfig.DEFAULT_BATCH_SIZE
        assert config.resolved_workers >= 1
        assert not config.caching

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(n_workers=0)

    def test_caching_needs_directory(self, tmp_path):
        assert not ParallelConfig(cache_enabled=True).caching
        assert not ParallelConfig(cache_dir=str(tmp_path), cache_enabled=False).caching
        assert ParallelConfig(cache_dir=str(tmp_path)).caching

    def test_serial_preset(self):
        config = ParallelConfig.serial()
        assert config.n_workers == 1
        assert config.resolved_workers == 1

    def test_with_helpers(self, tmp_path):
        config = ParallelConfig().with_workers(3).with_cache_dir(tmp_path)
        assert config.resolved_workers == 3
        assert config.cache_dir == str(tmp_path)

    def test_experiment_config_with_parallel(self):
        config = tiny_config().with_parallel(ParallelConfig.serial())
        assert config.parallel.n_workers == 1


# ----------------------------------------------------------------------
# Specs and seed derivation
# ----------------------------------------------------------------------
class TestRunSpecs:
    def test_seed_formulas_match_legacy_campaign_loops(self):
        assert calibration_run_seed(5, 2) == 5 * 100_003 + 2
        assert scenario_run_seed(5, 2) == 5 * 7_919 + 1000 + 2

    def test_calibration_specs(self):
        config = tiny_config(seed=4)
        specs = calibration_specs(config)
        assert len(specs) == config.n_calibration_runs
        assert all(spec.scenario.name == "normal" for spec in specs)
        assert [spec.simulation.seed for spec in specs] == [
            calibration_run_seed(4, index) for index in range(len(specs))
        ]

    def test_scenario_specs(self):
        config = tiny_config(seed=4)
        specs = scenario_specs(config, disturbance_idv6_scenario(), n_runs=3)
        assert len(specs) == 3
        assert all(spec.scenario.name == "idv6" for spec in specs)
        assert [spec.simulation.seed for spec in specs] == [
            scenario_run_seed(4, index) for index in range(3)
        ]

    def test_cache_key_is_stable(self):
        config = tiny_config()
        spec = calibration_specs(config)[0]
        again = calibration_specs(config)[0]
        assert spec.cache_key() == again.cache_key()

    def test_cache_key_changes_with_seed_config_and_scenario(self):
        base = RunSpec(
            scenario=normal_scenario(),
            simulation=SimulationConfig(duration_hours=2.0, samples_per_hour=20, seed=1),
            anomaly_start_hour=1.0,
        )
        keys = {base.cache_key()}
        variants = [
            RunSpec(base.scenario, base.simulation.with_seed(2), 1.0),
            RunSpec(base.scenario, base.simulation.with_duration(3.0), 1.0),
            RunSpec(disturbance_idv6_scenario(), base.simulation, 1.0),
            RunSpec(base.scenario, base.simulation, 1.5),
            RunSpec(base.scenario, replace(base.simulation, enable_safety=False), 1.0),
        ]
        keys.update(variant.cache_key() for variant in variants)
        assert len(keys) == 1 + len(variants)


def run_serially(specs):
    """The serial kernel's results of ``specs``, run by run."""
    return [
        run_scenario(
            spec.scenario, spec.simulation, anomaly_start_hour=spec.anomaly_start_hour
        )
        for spec in specs
    ]


# ----------------------------------------------------------------------
# Serial / parallel equivalence
# ----------------------------------------------------------------------
class TestDeterministicFanOut:
    def test_parallel_engine_matches_serial(self):
        config = tiny_config()
        specs = calibration_specs(config)
        in_process = CampaignEngine(ParallelConfig.serial()).run(specs)
        parallel = CampaignEngine(ParallelConfig(n_workers=2)).run(specs)
        reference = run_serially(specs)
        assert_results_identical(reference, in_process)
        assert_results_identical(reference, parallel)

    def test_engine_matches_direct_run_scenario(self):
        config = tiny_config()
        spec = scenario_specs(config, disturbance_idv6_scenario(), n_runs=1)[0]
        engine_result = CampaignEngine(ParallelConfig.serial()).run([spec])[0]
        direct = run_scenario(
            spec.scenario, spec.simulation, anomaly_start_hour=spec.anomaly_start_hour
        )
        assert_results_identical([engine_result], [direct])

    def test_calibration_campaign_parallel_matches_serial(self):
        serial = run_calibration_campaign(tiny_config(n_workers=1))
        parallel = run_calibration_campaign(tiny_config(n_workers=2))
        assert serial.controller_data == parallel.controller_data
        assert serial.process_data == parallel.process_data
        assert_results_identical(serial.results, parallel.results)
        assert_results_identical(
            run_serially(calibration_specs(tiny_config())), serial.results
        )

    def test_evaluation_parallel_matches_serial(self):
        scenario = disturbance_idv6_scenario()
        outcomes = {}
        for label, kwargs in (
            ("serial", dict(n_workers=1)),
            ("parallel", dict(n_workers=2)),
        ):
            evaluation = Evaluation(tiny_config(**kwargs))
            evaluation.calibrate()
            outcomes[label] = evaluation.evaluate_scenario(scenario, n_runs=2)
        serial, parallel = outcomes["serial"], outcomes["parallel"]
        assert_results_identical(serial.results, parallel.results)
        assert serial.run_lengths == parallel.run_lengths
        assert serial.classification_counts() == parallel.classification_counts()

    def test_stats_reflect_workers(self):
        config = tiny_config()
        specs = calibration_specs(config)
        engine = CampaignEngine(ParallelConfig(n_workers=2))
        engine.run(specs)
        assert engine.last_stats.n_workers == 2
        assert engine.last_stats.n_simulated == len(specs)
        assert engine.last_stats.wall_seconds > 0

    def test_single_pending_run_stays_in_process(self):
        config = tiny_config()
        specs = calibration_specs(config)[:1]
        engine = CampaignEngine(ParallelConfig(n_workers=4))
        engine.run(specs)
        assert engine.last_stats.n_workers == 1

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_pending_runs_split_evenly_over_the_pool(self, n_workers):
        # Three runs at the default width: one batch in-process, or groups
        # of ceil(3 / workers) runs, one task each.
        specs = scenario_specs(tiny_config(), disturbance_idv6_scenario(), n_runs=3)
        engine = CampaignEngine(ParallelConfig(n_workers=n_workers))
        results = engine.run(specs)
        assert engine.last_stats.n_workers == n_workers
        assert_results_identical(run_serially(specs), results)

    @pytest.mark.parametrize("n_specs, batch_size", [(1, None), (3, 1)])
    def test_lone_runs_take_the_serial_kernel(
        self, monkeypatch, n_specs, batch_size
    ):
        from repro.batch.simulator import BatchSimulator

        def refuse(*args, **kwargs):
            raise AssertionError("a lone run stepped as a one-row batch")

        monkeypatch.setattr(BatchSimulator, "run_specs", refuse)
        specs = scenario_specs(
            tiny_config(), disturbance_idv6_scenario(), n_runs=n_specs
        )
        engine = CampaignEngine(ParallelConfig(n_workers=1, batch_size=batch_size))
        assert_results_identical(run_serially(specs), engine.run(specs))

    def test_default_width_keeps_the_trajectory_budget(self, monkeypatch):
        from repro.batch.simulator import BatchSimulator

        widths = []
        original = BatchSimulator._run_batch

        def run_batch(self, specs, *args, **kwargs):
            widths.append(len(specs))
            return original(self, specs, *args, **kwargs)

        monkeypatch.setattr(BatchSimulator, "_run_batch", run_batch)
        config = tiny_config()
        # A budget of two runs' samples: every batch holds at most two rows.
        monkeypatch.setattr(
            ParallelConfig,
            "DEFAULT_BATCH_SAMPLES",
            2 * config.simulation.total_samples,
        )
        specs = scenario_specs(config, disturbance_idv6_scenario(), n_runs=5)
        results = CampaignEngine(ParallelConfig(n_workers=1)).run(specs)
        assert widths == [2, 2, 1]
        assert_results_identical(run_serially(specs), results)


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_cache_hits_skip_simulation(self, tmp_path):
        config = tiny_config(cache_dir=str(tmp_path))
        specs = calibration_specs(config)
        engine = CampaignEngine(config.parallel)

        first = engine.run(specs)
        assert engine.last_stats.n_simulated == len(specs)
        assert engine.last_stats.n_cache_hits == 0

        second = engine.run(specs)
        assert engine.last_stats.n_simulated == 0
        assert engine.last_stats.n_cache_hits == len(specs)
        assert engine.last_stats.cache_hit_rate == 1.0
        assert_results_identical(first, second)

    def test_cache_invalidated_by_seed_change(self, tmp_path):
        engine = CampaignEngine(
            tiny_config(seed=3, cache_dir=str(tmp_path)).parallel
        )
        engine.run(calibration_specs(tiny_config(seed=3)))
        engine.run(calibration_specs(tiny_config(seed=4)))
        assert engine.last_stats.n_cache_hits == 0
        assert engine.last_stats.n_simulated == 2

    def test_cache_invalidated_by_config_change(self, tmp_path):
        engine = CampaignEngine(ParallelConfig(n_workers=1, cache_dir=str(tmp_path)))
        config = tiny_config()
        engine.run(calibration_specs(config))

        changed = ExperimentConfig(
            n_calibration_runs=config.n_calibration_runs,
            n_runs_per_scenario=config.n_runs_per_scenario,
            anomaly_start_hour=config.anomaly_start_hour,
            simulation=SimulationConfig(
                duration_hours=2.5, samples_per_hour=25, seed=3
            ),
            mspc=config.mspc,
            seed=config.seed,
        )
        engine.run(calibration_specs(changed))
        assert engine.last_stats.n_cache_hits == 0

    def test_partial_cache_only_simulates_missing_runs(self, tmp_path):
        engine = CampaignEngine(ParallelConfig(n_workers=1, cache_dir=str(tmp_path)))
        specs = calibration_specs(tiny_config())
        engine.run(specs[:1])
        engine.run(specs)
        assert engine.last_stats.n_cache_hits == 1
        assert engine.last_stats.n_simulated == len(specs) - 1

    def test_entries_are_stored_uncompressed(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = calibration_specs(tiny_config())[0]
        path = cache.store(spec, run_serially([spec])[0])
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert members
        assert {member.compress_type for member in members} == {zipfile.ZIP_STORED}

    def test_compressed_entry_is_still_a_hit(self, tmp_path):
        """An entry deflated with ``np.savez_compressed`` (the earlier
        layout) loads to the same arrays as a freshly stored one."""
        cache = ResultCache(tmp_path)
        spec = calibration_specs(tiny_config())[0]
        result = run_serially([spec])[0]
        path = cache.store(spec, result)
        with np.load(path, allow_pickle=True) as payload:
            members = dict(payload)
        np.savez_compressed(path, **members)
        with zipfile.ZipFile(path) as archive:
            assert {m.compress_type for m in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }

        loaded = cache.load(spec)
        assert loaded is not None
        assert_results_identical([result], [loaded])
        engine = CampaignEngine(ParallelConfig(n_workers=1, cache_dir=str(tmp_path)))
        engine.run([spec])
        assert engine.last_stats.n_cache_hits == 1
        assert engine.last_stats.n_simulated == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = calibration_specs(tiny_config())[0]
        tmp_path.joinpath(f"{spec.cache_key()}.npz").write_bytes(b"not an npz")
        assert cache.load(spec) is None
        engine = CampaignEngine(ParallelConfig(n_workers=1, cache_dir=str(tmp_path)))
        engine.run([spec])
        assert engine.last_stats.n_simulated == 1
        assert cache.load(spec) is not None

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "sub")
        assert len(cache) == 0
        assert cache.clear() == 0
        engine = CampaignEngine(
            ParallelConfig(n_workers=1, cache_dir=str(tmp_path / "sub"))
        )
        specs = calibration_specs(tiny_config())
        engine.run(specs)
        assert len(cache) == len(specs)
        # A tmp file left behind by a killed writer is not an entry, and
        # clear() sweeps it away along with the real entries.
        leftover = tmp_path / "sub" / "deadbeef.tmp.npz"
        leftover.write_bytes(b"partial write")
        assert len(cache) == len(specs)
        assert cache.clear() == len(specs)
        assert len(cache) == 0
        assert not leftover.exists()


# ----------------------------------------------------------------------
# Result serialization
# ----------------------------------------------------------------------
class TestResultSerialization:
    def test_round_trip(self, tmp_path):
        config = tiny_config()
        spec = scenario_specs(config, disturbance_idv6_scenario(), n_runs=1)[0]
        result = run_scenario(
            spec.scenario, spec.simulation, anomaly_start_hour=spec.anomaly_start_hour
        )
        path = save_result_npz(result, tmp_path / "result.npz")
        loaded = load_result_npz(path)
        assert_results_identical([result], [loaded])
        assert loaded.controller_data.metadata["view"] == "controller"
        assert loaded.process_data.metadata["view"] == "process"


# ----------------------------------------------------------------------
# Streaming iteration
# ----------------------------------------------------------------------
class TestIterRun:
    def test_iter_run_matches_run(self):
        config = tiny_config()
        specs = calibration_specs(config)
        batch = CampaignEngine(ParallelConfig.serial()).run(specs)
        streamed = list(
            CampaignEngine(ParallelConfig.serial()).iter_run(specs, chunk_size=1)
        )
        assert_results_identical(batch, streamed)

    def test_iter_run_chunking_is_invisible(self):
        config = tiny_config()
        specs = calibration_specs(config)
        one = list(CampaignEngine(ParallelConfig.serial()).iter_run(specs, 1))
        big = list(CampaignEngine(ParallelConfig.serial()).iter_run(specs, 100))
        assert_results_identical(one, big)

    def test_iter_run_uses_cache(self, tmp_path):
        config = tiny_config(cache_dir=str(tmp_path))
        specs = calibration_specs(config)
        engine = CampaignEngine(config.parallel)
        engine.run(specs)
        streamed = list(engine.iter_run(specs, chunk_size=1))
        assert engine.last_stats.n_cache_hits == len(specs)
        assert engine.last_stats.n_simulated == 0
        assert len(streamed) == len(specs)

    def test_iter_run_stats_cover_consumed_chunks(self):
        config = tiny_config()
        specs = calibration_specs(config)
        engine = CampaignEngine(ParallelConfig.serial())
        iterator = engine.iter_run(specs, chunk_size=1)
        next(iterator)
        iterator.close()
        assert engine.last_stats.n_simulated == 1

    def test_default_chunk_size_resolves_from_config(self):
        assert ParallelConfig(n_workers=3).resolved_chunk_size == 6
        assert ParallelConfig(n_workers=3, chunk_size=2).resolved_chunk_size == 2


# ----------------------------------------------------------------------
# Cache eviction
# ----------------------------------------------------------------------
class TestCachePrune:
    def _fill(self, tmp_path, n_entries=2):
        engine = CampaignEngine(ParallelConfig(n_workers=1, cache_dir=str(tmp_path)))
        config = ExperimentConfig(
            n_calibration_runs=n_entries,
            n_runs_per_scenario=1,
            anomaly_start_hour=1.0,
            simulation=SimulationConfig(
                duration_hours=2.0, samples_per_hour=10, seed=9
            ),
            seed=9,
        )
        specs = calibration_specs(config)
        engine.run(specs)
        return ResultCache(tmp_path), specs

    def test_total_bytes(self, tmp_path):
        cache, _ = self._fill(tmp_path)
        total = cache.total_bytes()
        assert total > 0
        assert total == sum(p.stat().st_size for p in tmp_path.glob("*.npz"))

    def test_prune_by_age(self, tmp_path):
        import os
        import time

        cache, specs = self._fill(tmp_path)
        old = cache.path_for(specs[0])
        stale = time.time() - 1000
        os.utime(old, (stale, stale))
        stats = cache.prune(max_age_seconds=500)
        assert stats.n_removed == 1
        assert stats.n_kept == 1
        assert not old.exists()
        assert cache.load(specs[1]) is not None

    def test_prune_by_size_evicts_oldest_first(self, tmp_path):
        import os
        import time

        cache, specs = self._fill(tmp_path)
        oldest = cache.path_for(specs[0])
        stale = time.time() - 1000
        os.utime(oldest, (stale, stale))
        newest_size = cache.path_for(specs[1]).stat().st_size
        stats = cache.prune(max_bytes=newest_size)
        assert stats.n_removed == 1
        assert not oldest.exists()
        assert cache.path_for(specs[1]).exists()
        assert stats.bytes_kept <= newest_size

    def test_prune_without_policy_keeps_everything(self, tmp_path):
        cache, _ = self._fill(tmp_path)
        stats = cache.prune()
        assert stats.n_removed == 0
        assert stats.n_kept == len(cache)

    def test_engine_applies_policy_after_run(self, tmp_path):
        config = tiny_config(cache_dir=str(tmp_path), cache_max_bytes=0)
        engine = CampaignEngine(config.parallel)
        engine.run(calibration_specs(config))
        assert len(ResultCache(tmp_path)) == 0

    def test_engine_without_policy_keeps_entries(self, tmp_path):
        config = tiny_config(cache_dir=str(tmp_path))
        engine = CampaignEngine(config.parallel)
        specs = calibration_specs(config)
        engine.run(specs)
        assert len(ResultCache(tmp_path)) == len(specs)

    def test_invalid_policy_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(cache_max_bytes=-1)
        with pytest.raises(ConfigurationError):
            ParallelConfig(cache_max_age=-0.5)
        with pytest.raises(ConfigurationError):
            ParallelConfig(chunk_size=0)

    def test_prune_rejects_negative_caps(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ConfigurationError):
            cache.prune(max_bytes=-1)
        with pytest.raises(ConfigurationError):
            cache.prune(max_age_seconds=-1.0)

    def test_negative_chunk_size_rejected(self):
        engine = CampaignEngine(ParallelConfig.serial())
        specs = calibration_specs(tiny_config())
        with pytest.raises(ConfigurationError):
            list(engine.iter_run(specs, chunk_size=-1))

    def test_prune_sweeps_stale_tmp_files(self, tmp_path):
        import time

        cache, _ = self._fill(tmp_path)
        fresh = tmp_path / "inflight.tmp.npz"
        fresh.write_bytes(b"being written")
        stale = tmp_path / "crashed.tmp.npz"
        stale.write_bytes(b"debris")
        old = time.time() - 7200
        import os

        os.utime(stale, (old, old))
        cache.prune(max_bytes=10**9)
        assert fresh.exists()  # within the grace period: maybe in-flight
        assert not stale.exists()
