"""Tests for the streaming, sharded analysis pipeline.

The pipeline's contract mirrors the campaign engine's: whatever the chunk
size, worker count, batch size or cache state, the streaming path must produce
tables bitwise-identical to the eager :class:`Evaluation` path, while never
holding more than one chunk of results in the parent process.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.anomaly.diagnosis import AnomalyClass, DiagnosisSummary
from repro.common.config import (
    ExperimentConfig,
    MSPCConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.experiments.analysis import (
    AnalysisEngine,
    AnalyzedRun,
    OmedaMeanReducer,
    ScenarioReducer,
    ScenarioSummary,
    ScoredRun,
)
from repro.experiments.evaluation import Evaluation
from repro.experiments.parallel import ResultCache, scenario_specs
from repro.experiments.scenarios import disturbance_idv6_scenario, normal_scenario
from repro.mspc.model import OmedaResult


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


def assert_tables_identical(first_eval, second_tables):
    arl_rows, classification_rows = second_tables
    assert first_eval.arl_table() == arl_rows
    assert first_eval.classification_table() == classification_rows


@pytest.fixture(scope="module")
def eager_reference():
    """An eager serial evaluation used as the ground truth for every mode."""
    evaluation = Evaluation(tiny_config(n_workers=1))
    evaluation.calibrate()
    evaluation.evaluate_all()
    return evaluation


# ----------------------------------------------------------------------
# Reducers
# ----------------------------------------------------------------------
class TestOmedaMeanReducer:
    def test_empty_reducer_finalizes_empty(self):
        names, mean = OmedaMeanReducer().finalize()
        assert names == tuple()
        assert mean.size == 0

    def test_none_updates_are_ignored(self):
        reducer = OmedaMeanReducer()
        reducer.update(None)
        assert reducer.n_vectors == 0

    def test_mean_matches_numpy(self):
        reducer = OmedaMeanReducer()
        vectors = [np.array([1.0, -2.0]), np.array([3.0, 4.0]), np.array([5.0, 0.5])]
        for vector in vectors:
            reducer.update(OmedaResult(("a", "b"), vector, (0,)))
        names, mean = reducer.finalize()
        assert names == ("a", "b")
        assert np.array_equal(mean, np.mean(np.vstack(vectors), axis=0))


def _summary(classification, detection_time, omeda=None, false_alarm=None):
    metadata = {}
    if false_alarm is not None:
        metadata["false_alarm_time_hours"] = false_alarm
    return DiagnosisSummary(
        controller_omeda=omeda,
        process_omeda=omeda,
        similarity=None,
        classification=classification,
        detection_time_hours=detection_time,
        metadata=metadata,
    )


class TestScenarioReducer:
    def test_aggregates_counts_arl_and_false_alarms(self):
        scenario = disturbance_idv6_scenario()
        reducer = ScenarioReducer(scenario)
        omeda = OmedaResult(("a", "b"), np.array([2.0, 1.0]), (0,))
        runs = [
            (AnomalyClass.DISTURBANCE, 2.0, 0.5, None),
            (AnomalyClass.DISTURBANCE, 3.0, 1.5, 0.25),
            (AnomalyClass.NORMAL, None, None, None),
        ]
        for index, (cls, detection, length, alarm) in enumerate(runs):
            reducer.update(
                AnalyzedRun(
                    scenario_name=scenario.name,
                    run_index=index,
                    diagnosis=_summary(cls, detection, omeda, alarm),
                    run_length=length,
                    shutdown_time_hours=None,
                )
            )
        summary = reducer.summary()
        assert isinstance(summary, ScenarioSummary)
        assert summary.n_runs == 3
        assert summary.n_detected == 2
        assert summary.detection_rate == pytest.approx(2 / 3)
        assert summary.arl_hours == pytest.approx(1.0)
        assert summary.n_false_alarms == 1
        assert summary.classification_counts() == {
            "process disturbance": 2,
            "normal": 1,
        }
        names, mean = summary.mean_omeda("controller")
        assert names == ("a", "b")
        assert np.array_equal(mean, np.array([2.0, 1.0]))

    def test_empty_summary(self):
        summary = ScenarioReducer(normal_scenario()).summary()
        assert summary.n_runs == 0
        assert summary.detection_rate == 0.0
        assert summary.arl_hours is None
        names, mean = summary.mean_omeda("process")
        assert names == tuple()
        assert mean.size == 0


# ----------------------------------------------------------------------
# The scoring engine
# ----------------------------------------------------------------------
class TestAnalysisEngine:
    @pytest.fixture(scope="class")
    def fitted(self):
        evaluation = Evaluation(tiny_config(n_workers=1))
        evaluation.calibrate()
        scenario = disturbance_idv6_scenario()
        specs = scenario_specs(evaluation.config, scenario, 2)
        results = evaluation.engine.run(specs)
        return evaluation, scenario, specs, results

    def test_serial_map_matches_eager_analyzer(self, fitted):
        evaluation, scenario, _, results = fitted
        engine = AnalysisEngine(evaluation.analyzer, ParallelConfig.serial())
        scored = list(
            engine.map(results, anomaly_start_hour=1.0, summarize=False)
        )
        assert len(scored) == len(results)
        for verdict, result in zip(scored, results):
            assert isinstance(verdict, ScoredRun)
            direct = evaluation.analyzer.analyze(
                result.controller_data, result.process_data, anomaly_start_hour=1.0
            )
            assert verdict.diagnosis.classification is direct.classification
            assert verdict.diagnosis.detection_time_hours == direct.detection_time_hours
            assert verdict.shutdown_time_hours == result.shutdown_time_hours

    def test_process_pool_matches_serial(self, fitted):
        evaluation, _, _, results = fitted
        serial = list(
            AnalysisEngine(evaluation.analyzer, ParallelConfig.serial()).map(
                results, anomaly_start_hour=1.0
            )
        )
        with AnalysisEngine(
            evaluation.analyzer, ParallelConfig(n_workers=2)
        ) as engine:
            parallel = list(engine.map(results, anomaly_start_hour=1.0))
            assert engine.last_stats.n_workers == 2
        for a, b in zip(serial, parallel):
            assert a.diagnosis.classification is b.diagnosis.classification
            assert a.diagnosis.detection_time_hours == b.diagnosis.detection_time_hours
            assert np.array_equal(
                np.asarray(a.diagnosis.controller_omeda.contributions),
                np.asarray(b.diagnosis.controller_omeda.contributions),
            )

    def test_path_sources_match_memory_sources(self, fitted, tmp_path):
        evaluation, _, specs, results = fitted
        cache = ResultCache(tmp_path)
        paths = [cache.store(spec, result) for spec, result in zip(specs, results)]
        engine = AnalysisEngine(evaluation.analyzer, ParallelConfig.serial())
        from_memory = list(engine.map(results, anomaly_start_hour=1.0))
        from_paths = list(engine.map(paths, anomaly_start_hour=1.0))
        for a, b in zip(from_memory, from_paths):
            assert a.diagnosis.classification is b.diagnosis.classification
            assert a.diagnosis.detection_time_hours == b.diagnosis.detection_time_hours
            assert a.shutdown_time_hours == b.shutdown_time_hours

    def test_summarize_returns_summary_records(self, fitted):
        evaluation, _, _, results = fitted
        engine = AnalysisEngine(evaluation.analyzer, ParallelConfig.serial())
        scored = list(engine.map(results, anomaly_start_hour=1.0, summarize=True))
        assert all(isinstance(v.diagnosis, DiagnosisSummary) for v in scored)

    def test_per_source_starts_length_mismatch_raises(self, fitted):
        evaluation, _, _, results = fitted
        engine = AnalysisEngine(evaluation.analyzer, ParallelConfig.serial())
        with pytest.raises(ValueError, match="shorter"):
            list(engine.map(results, anomaly_start_hour=[1.0]))
        with pytest.raises(ValueError, match="longer"):
            list(
                engine.map(
                    results, anomaly_start_hour=[1.0] * (len(results) + 1)
                )
            )

    def test_stats_count_runs(self, fitted):
        evaluation, _, _, results = fitted
        engine = AnalysisEngine(evaluation.analyzer, ParallelConfig.serial())
        list(engine.map(results, chunk_size=1))
        assert engine.last_stats.n_runs == len(results)
        assert engine.last_stats.wall_seconds > 0


# ----------------------------------------------------------------------
# Streaming vs eager equivalence
# ----------------------------------------------------------------------
class TestStreamingEquivalence:
    def _tables(self, evaluation, summaries):
        pipeline = evaluation.last_pipeline
        return pipeline.arl_table(summaries), pipeline.classification_table(summaries)

    def test_streaming_matches_eager_tables(self, eager_reference):
        evaluation = Evaluation(tiny_config(n_workers=1))
        evaluation.calibrate()
        summaries = evaluation.evaluate_all_streaming()
        assert_tables_identical(eager_reference, self._tables(evaluation, summaries))

    @pytest.mark.parametrize("chunk_size", [1, 3, 8])
    def test_chunk_size_does_not_change_results(self, eager_reference, chunk_size):
        evaluation = Evaluation(
            tiny_config(n_workers=1, chunk_size=chunk_size)
        )
        evaluation.calibrate()
        summaries = evaluation.evaluate_all_streaming(chunk_size=chunk_size)
        assert_tables_identical(eager_reference, self._tables(evaluation, summaries))

    def test_cached_streaming_simulates_nothing(self, eager_reference, tmp_path):
        warm = Evaluation(
            tiny_config(n_workers=1, cache_dir=str(tmp_path))
        )
        warm.calibrate()
        warm.evaluate_all()

        streaming = Evaluation(
            tiny_config(n_workers=1, cache_dir=str(tmp_path))
        )
        streaming.calibrate()
        summaries = streaming.evaluate_all_streaming(chunk_size=2)
        pipeline = streaming.last_pipeline
        assert pipeline.simulation_stats.n_simulated == 0
        assert pipeline.simulation_stats.n_cache_hits == 8
        assert_tables_identical(eager_reference, self._tables(streaming, summaries))

    def test_streaming_summary_matches_eager_details(self, eager_reference):
        evaluation = Evaluation(tiny_config(n_workers=1))
        evaluation.calibrate()
        summaries = evaluation.evaluate_all_streaming()
        for name, summary in summaries.items():
            eager = eager_reference.scenario_results[name]
            assert summary.run_lengths == eager.run_lengths
            assert summary.shutdown_times() == eager.shutdown_times()
            assert summary.classification_counts() == eager.classification_counts()
            for view in ("controller", "process"):
                names_a, mean_a = eager.mean_omeda(view)
                names_b, mean_b = summary.mean_omeda(view)
                assert names_a == names_b
                assert np.array_equal(mean_a, mean_b)

    def test_corrupt_cache_entry_is_resimulated(self, eager_reference, tmp_path):
        config = tiny_config(n_workers=1, cache_dir=str(tmp_path))
        warm = Evaluation(config)
        warm.calibrate()
        warm.evaluate_all()

        scenario = disturbance_idv6_scenario()
        spec = scenario_specs(config, scenario)[0]
        ResultCache(tmp_path).path_for(spec).write_bytes(b"not an npz")

        streaming = Evaluation(config)
        streaming.calibrate()
        summaries = streaming.evaluate_all_streaming()
        assert streaming.last_pipeline.simulation_stats.n_simulated == 1
        assert_tables_identical(eager_reference, self._tables(streaming, summaries))

    def test_eviction_policy_deferred_past_worker_loads(
        self, eager_reference, tmp_path
    ):
        """A size cap must not evict entries whose paths workers already hold.

        The chunk mixes one cached run (handed to scoring as a path) with one
        miss; simulating the miss pushes the cache over the cap.  Eviction
        must be deferred to the end of the campaign, or the pending path
        would be deleted before it is scored.
        """
        scenario = disturbance_idv6_scenario()
        warm = Evaluation(
            tiny_config(n_workers=1, cache_dir=str(tmp_path))
        )
        warm.calibrate()
        warm.evaluate_scenario(scenario, n_runs=1)  # caches run 0 only
        entry_bytes = max(p.stat().st_size for p in tmp_path.glob("*.npz"))

        streaming = Evaluation(
            tiny_config(
                n_workers=1,
                cache_dir=str(tmp_path),
                cache_max_bytes=entry_bytes,
            )
        )
        streaming.calibrate()
        summaries = streaming.evaluate_all_streaming([scenario], chunk_size=2)
        pipeline = streaming.last_pipeline
        assert pipeline.simulation_stats.n_cache_hits == 1
        assert pipeline.simulation_stats.n_simulated == 1
        eager_row = [
            row for row in eager_reference.arl_table() if row["scenario"] == "idv6"
        ]
        assert pipeline.arl_table(summaries) == eager_row
        # The policy still applies, at the end of the campaign.
        assert ResultCache(tmp_path).total_bytes() <= entry_bytes

    def test_parallel_streaming_matches_serial(self, eager_reference, tmp_path):
        evaluation = Evaluation(
            tiny_config(n_workers=2, cache_dir=str(tmp_path))
        )
        evaluation.calibrate()
        summaries = evaluation.evaluate_all_streaming()
        assert_tables_identical(eager_reference, self._tables(evaluation, summaries))

    def test_campaign_sweep_mixing_normal_and_anomalous(self, eager_reference):
        # The eager sweep batches every scenario's specs into one engine
        # call with per-run anomaly starts; a normal scenario (no anomaly)
        # must not inherit its neighbours' start hour.
        sweep = [normal_scenario(), disturbance_idv6_scenario()]
        evaluation = Evaluation(tiny_config(n_workers=1))
        evaluation.calibrate()
        results = evaluation.evaluate_all(sweep)
        # Normal runs never get a run length, whatever their classification.
        assert results["normal"].run_lengths == [None, None]
        eager = eager_reference.scenario_results["idv6"]
        assert results["idv6"].run_lengths == eager.run_lengths
        assert results["idv6"].classification_counts() == (
            eager.classification_counts()
        )
        # And the streaming path agrees with the eager sweep on both.
        streaming = Evaluation(tiny_config(n_workers=1))
        streaming.calibrate()
        summaries = streaming.evaluate_all_streaming(sweep)
        for name in ("normal", "idv6"):
            assert summaries[name].run_lengths == results[name].run_lengths
            assert summaries[name].classification_counts() == (
                results[name].classification_counts()
            )

    def test_calibration_keep_results_false_drops_runs(self):
        from repro.experiments.runner import run_calibration_campaign

        config = tiny_config(n_workers=1)
        lean = run_calibration_campaign(config, keep_results=False)
        assert lean.results == []
        assert lean.n_runs == config.n_calibration_runs
        full = run_calibration_campaign(config)
        assert len(full.results) == config.n_calibration_runs
        assert np.array_equal(
            lean.controller_data.values, full.controller_data.values
        )

    def test_evaluate_scenario_still_eager(self, eager_reference):
        evaluation = Evaluation(tiny_config(n_workers=1))
        evaluation.calibrate()
        result = evaluation.evaluate_scenario(disturbance_idv6_scenario())
        eager = eager_reference.scenario_results["idv6"]
        assert result.run_lengths == eager.run_lengths
        assert len(result.results) == result.n_runs
        assert result.to_summary().classification_counts() == (
            eager.classification_counts()
        )


# ----------------------------------------------------------------------
# Memory behaviour
# ----------------------------------------------------------------------
class TestStreamingMemory:
    def test_streaming_peak_memory_below_eager(self, tmp_path):
        """Peak traced allocations: streaming must stay well below eager.

        The campaign is fully cached first, so both paths replay the same
        NPZ entries; the eager path retains every result and diagnosis,
        the streaming path only one chunk at a time.
        """
        config = ExperimentConfig(
            n_calibration_runs=2,
            n_runs_per_scenario=4,
            anomaly_start_hour=1.0,
            simulation=SimulationConfig(
                duration_hours=2.5, samples_per_hour=120, seed=11
            ),
            mspc=MSPCConfig(),
            parallel=ParallelConfig(n_workers=1, cache_dir=str(tmp_path)),
            seed=11,
        )
        scenarios = [disturbance_idv6_scenario()]
        warm = Evaluation(config)
        warm.calibrate()
        warm.evaluate_all(scenarios)

        def peak_of(callable_):
            tracemalloc.start()
            callable_()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        eager_eval = Evaluation(config)
        eager_eval.calibrate()
        eager_peak = peak_of(lambda: eager_eval.evaluate_all(scenarios))

        streaming_eval = Evaluation(config)
        streaming_eval.calibrate()
        streaming_peak = peak_of(
            lambda: streaming_eval.evaluate_all_streaming(scenarios, chunk_size=1)
        )

        assert streaming_eval.last_pipeline.simulation_stats.n_simulated == 0
        assert streaming_peak < eager_peak


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.fixture()
def run_campaign():
    """Import the campaign CLI module from the scripts directory."""
    import sys
    from pathlib import Path

    scripts_dir = str(Path(__file__).resolve().parents[1] / "scripts")
    if scripts_dir not in sys.path:
        sys.path.insert(0, scripts_dir)
    import run_campaign as module

    return module


class TestCampaignCLI:
    def _argv(self, tmp_path, *extra):
        return [
            "--scale",
            "smoke",
            "--workers",
            "1",
            "--calibration-runs",
            "1",
            "--runs-per-scenario",
            "1",
            "--scenarios",
            "idv6",
            "--cache-dir",
            str(tmp_path),
            *extra,
        ]

    def test_analyze_flag_streams_and_prints_tables(self, tmp_path, capsys, run_campaign):
        assert run_campaign.main(self._argv(tmp_path)) == 0
        eager_out = capsys.readouterr().out
        assert "ARL table" in eager_out

        assert run_campaign.main(self._argv(tmp_path, "--analyze")) == 0
        streaming_out = capsys.readouterr().out
        assert "streaming sharded analysis" in streaming_out
        assert "0 simulated" in streaming_out
        # Identical tables whichever path produced them.
        assert eager_out.split("=== ARL")[1] == streaming_out.split("=== ARL")[1]

    def test_cache_prune_flag(self, tmp_path, capsys, run_campaign):
        assert run_campaign.main(self._argv(tmp_path)) == 0
        capsys.readouterr()
        argv = [
            "--cache-dir",
            str(tmp_path),
            "--cache-prune",
            "--cache-max-bytes",
            "0",
        ]
        assert run_campaign.main(argv) == 0
        out = capsys.readouterr().out
        assert "pruned" in out
        assert len(ResultCache(tmp_path)) == 0

    def test_cache_prune_requires_a_policy(self, tmp_path, run_campaign):
        with pytest.raises(SystemExit):
            run_campaign.main(["--cache-dir", str(tmp_path), "--cache-prune"])
