"""Tests for the ``repro.api`` facade: Session, run/analyze, acceptance pins.

The acceptance pin of the declarative redesign: the five paper scenarios,
loaded from ``examples/specs/paper.toml`` and executed through
``repro.api.run``, produce detection/diagnosis tables **bitwise-identical**
to the pre-existing eager ``Evaluation.evaluate_all`` path; and novel
anomaly primitives (drift, stuck-at, replay) run purely from a spec file.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.common.config import (
    ExperimentConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.common.exceptions import ConfigurationError
from repro.experiments.analysis import build_arl_table, build_classification_table
from repro.experiments.evaluation import Evaluation
from repro.experiments.scenarios import normal_scenario, paper_scenarios

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"

# Small but complete: every paper scenario runs, anomalies have room to be
# detected, and the whole campaign stays a few seconds of pure Python.
SMALL_EXPERIMENT = ExperimentConfig(
    n_calibration_runs=2,
    n_runs_per_scenario=1,
    anomaly_start_hour=2.0,
    simulation=SimulationConfig(duration_hours=5.0, samples_per_hour=20, seed=13),
    parallel=ParallelConfig.serial(),
    seed=13,
)


class TestPaperSpecAcceptance:
    @pytest.fixture(scope="class")
    def paper_spec(self):
        """paper.toml at test scale: scenarios from the file, small config."""
        spec = api.load_spec(SPEC_DIR / "paper.toml")
        return spec.with_experiment(SMALL_EXPERIMENT)

    @pytest.fixture(scope="class")
    def facade_result(self, paper_spec):
        return api.run(paper_spec)

    @pytest.fixture(scope="class")
    def reference(self):
        """The pre-redesign eager path on the identical campaign."""
        evaluation = Evaluation(SMALL_EXPERIMENT)
        evaluation.calibrate()
        evaluation.evaluate_all([normal_scenario(), *paper_scenarios()])
        return evaluation

    def test_spec_lists_the_five_paper_scenarios(self, paper_spec):
        assert [s.name for s in paper_spec.scenarios] == [
            "normal", "idv6", "attack_xmv3", "attack_xmeas1", "dos_xmv3",
        ]

    def test_arl_table_bitwise_identical(self, facade_result, reference):
        assert facade_result.arl_table() == reference.arl_table()

    def test_classification_table_bitwise_identical(self, facade_result, reference):
        assert (
            facade_result.classification_table()
            == reference.classification_table()
        )

    def test_omeda_diagnoses_bitwise_identical(self, facade_result, reference):
        for name, summary in facade_result.scenario_results.items():
            for view in ("controller", "process"):
                names_a, mean_a = summary.mean_omeda(view)
                names_b, mean_b = reference.scenario_results[name].mean_omeda(view)
                assert names_a == names_b
                assert np.array_equal(mean_a, mean_b)

    def test_run_lengths_bitwise_identical(self, facade_result, reference):
        for name, summary in facade_result.scenario_results.items():
            assert (
                summary.run_lengths
                == reference.scenario_results[name].run_lengths
            )


class TestNovelPrimitivesFromSpecFile:
    @pytest.fixture(scope="class")
    def result(self):
        """multi_anomaly.toml at test scale, streaming path."""
        spec = api.load_spec(SPEC_DIR / "multi_anomaly.toml")
        spec = spec.with_experiment(SMALL_EXPERIMENT)
        return api.analyze(spec)

    def test_all_variants_ran(self, result):
        names = set(result.scenario_results)
        # Scalable scenarios expand over the [0.5, 1.0] magnitude sweep;
        # stuck-at and replay/integrity compositions have no intensity knob,
        # so they run once instead of as identical duplicates.
        assert names == {
            "drift_xmeas7@x0.5", "drift_xmeas7@x1",
            "stuck_xmv3",
            "stealthy_xmv3",
            "idv6_biased_sensor@x0.5", "idv6_biased_sensor@x1",
        }

    def test_each_variant_produced_runs(self, result):
        for name, summary in result.scenario_results.items():
            assert summary.n_runs == SMALL_EXPERIMENT.n_runs_per_scenario, name

    def test_tables_cover_every_variant(self, result):
        rows = result.arl_table()
        assert len(rows) == 6
        assert all(row["n_runs"] == 1 for row in rows)


class TestSession:
    def test_session_reuses_calibration(self):
        spec = api.CampaignSpec(
            name="s", experiment=SMALL_EXPERIMENT, scenarios=("idv6",)
        )
        session = api.Session(spec)
        first = session.run()
        evaluation = session.evaluation()
        second = session.run()
        assert session.evaluation() is evaluation  # same calibrated instance
        assert first.arl_table() == second.arl_table()

    def test_session_accepts_path(self, tmp_path):
        spec = api.CampaignSpec(
            name="p", experiment=SMALL_EXPERIMENT, scenarios=("idv6",)
        )
        path = api.dump_spec(spec, tmp_path / "spec.toml")
        assert api.Session(str(path)).spec == spec

    def test_streaming_override_matches_eager_tables(self):
        spec = api.CampaignSpec(
            name="s", experiment=SMALL_EXPERIMENT, scenarios=("idv6",)
        )
        session = api.Session(spec)
        eager = session.run(streaming=False)
        streaming = session.run(streaming=True)
        assert eager.arl_table() == streaming.arl_table()
        assert eager.classification_table() == streaming.classification_table()


# Three calibration runs plus 5 x 2 scenario runs through the batch kernel
# on one worker at batch_size 8: one flat plan of 13 runs.
FOLD_EXPERIMENT = ExperimentConfig(
    n_calibration_runs=3,
    n_runs_per_scenario=2,
    anomaly_start_hour=2.0,
    simulation=SimulationConfig(duration_hours=4.0, samples_per_hour=20, seed=21),
    parallel=ParallelConfig(n_workers=1, batch_size=8),
    seed=21,
)


def fold_spec(streaming: bool, cache_dir=None) -> api.CampaignSpec:
    experiment = FOLD_EXPERIMENT
    if cache_dir is not None:
        experiment = replace(
            experiment, parallel=experiment.parallel.with_cache_dir(cache_dir)
        )
    spec = api.load_spec(SPEC_DIR / "paper.toml").with_experiment(experiment)
    return replace(spec, analysis=api.AnalysisSpec(streaming=streaming))


def assert_same_models(folded: Evaluation, reference: Evaluation) -> None:
    """Calibration matrices, scaling, loadings and limits, bit for bit."""
    assert folded.is_calibrated and reference.is_calibrated
    ours, theirs = folded.calibration, reference.calibration
    assert ours.n_runs == theirs.n_runs
    assert len(ours.results) == len(theirs.results)
    for view in ("controller_data", "process_data"):
        for a, b in [(ours, theirs)] + list(zip(ours.results, theirs.results)):
            assert np.array_equal(getattr(a, view).values, getattr(b, view).values)
            assert np.array_equal(
                getattr(a, view).timestamps, getattr(b, view).timestamps
            )
    for monitor in ("controller_monitor", "process_monitor"):
        a = getattr(folded.analyzer, monitor)
        b = getattr(reference.analyzer, monitor)
        assert np.array_equal(a.scaler.mean_, b.scaler.mean_)
        assert np.array_equal(a.scaler.std_, b.scaler.std_)
        assert np.array_equal(a.pca.loadings_, b.pca.loadings_)
        assert np.array_equal(a.pca.eigenvalues_, b.pca.eigenvalues_)
        assert dict(a.t2_limits.limits) == dict(b.t2_limits.limits)
        assert dict(a.spe_limits.limits) == dict(b.spe_limits.limits)


class TestCalibrationInThePlan:
    """A fresh ``Session.run`` simulates a seed's calibration runs in the
    same engine calls (and lockstep batches) as its first scenario runs."""

    @pytest.mark.parametrize("streaming", [True, False])
    def test_fresh_run_matches_explicit_calibration(self, streaming):
        spec = fold_spec(streaming)
        session = api.Session(spec)
        result = session.run()

        reference = Evaluation(FOLD_EXPERIMENT)
        reference.calibrate(keep_results=not streaming)
        scenarios = spec.expanded_scenarios()
        if streaming:
            expected = reference.evaluate_all_streaming(scenarios)
        else:
            expected = reference.evaluate_all(scenarios)

        assert_same_models(session.evaluation(), reference)
        assert result.arl_table() == build_arl_table(expected)
        assert result.classification_table() == build_classification_table(
            expected
        )
        for name, record in result.scenario_results.items():
            assert record.run_lengths == expected[name].run_lengths
            assert record.shutdown_times() == expected[name].shutdown_times()
            for view in ("controller", "process"):
                names, mean = record.mean_omeda(view)
                expected_names, expected_mean = expected[name].mean_omeda(view)
                assert names == expected_names
                assert np.array_equal(mean, expected_mean)

    @pytest.mark.parametrize("streaming", [True, False])
    def test_calibration_runs_never_reach_on_run(self, streaming):
        spec = fold_spec(streaming)
        seen = []
        api.Session(spec).run(
            on_run=lambda run: seen.append((run.scenario_name, run.run_index))
        )
        assert seen == [
            (scenario.name, index)
            for scenario in spec.expanded_scenarios()
            for index in range(FOLD_EXPERIMENT.n_runs_per_scenario)
        ]

    @pytest.fixture
    def widths(self, monkeypatch):
        """The rows of every ``BatchSimulator.run_specs`` call, in order."""
        from repro.batch.simulator import BatchSimulator

        seen = []
        original = BatchSimulator.run_specs

        def run_specs(self, specs, *args, **kwargs):
            seen.append(len(specs))
            return original(self, specs, *args, **kwargs)

        monkeypatch.setattr(BatchSimulator, "run_specs", run_specs)
        return seen

    def test_streaming_batches_are_full_width(self, widths):
        """13 runs cut at one full batch per worker: 8, then the other 5."""
        api.Session(fold_spec(streaming=True)).run()
        assert widths == [8, 5]

    def test_calibrations_outside_a_plan_step_as_one_batch(self, widths):
        """A response campaign calibrates its 3 runs in one lockstep batch,
        then steps its 10 response runs; so does a gateway's calibration."""
        smoke = replace(ExperimentConfig.smoke(), parallel=ParallelConfig.serial())
        response = api.load_spec(SPEC_DIR / "response_paper.toml")
        api.Session(response.with_experiment(smoke)).run_response()
        assert widths == [3, 10]

        del widths[:]
        gateway = api.load_spec(SPEC_DIR / "gateway_paper.toml")
        gateway = replace(
            gateway.with_experiment(smoke),
            gateway=replace(gateway.gateway, port=0, ingest_port=0),
        )
        server = api.Session(gateway).serve_gateway()
        try:
            assert widths == [3]
        finally:
            # Built, never started: release the two bound listeners.
            server._ops.server_close()
            server._ingest.server_close()

    def test_warm_cache_loads_calibration_and_reruns_only_scenarios(
        self, tmp_path
    ):
        """On a cache hit calibration runs are loaded, never passed to the
        scoring workers as paths; when a path fails to score, the rerun
        leaves them out."""
        from repro.experiments.parallel import ResultCache, scenario_specs

        warm = api.Session(fold_spec(True, tmp_path)).run()
        spec = fold_spec(True, tmp_path)
        idv6 = next(s for s in spec.expanded_scenarios() if s.name == "idv6")
        # Arrays corrupt past the JSON members the cache peek reads: the
        # entry passes as a path and fails only when a worker loads it.
        path = ResultCache(tmp_path).path_for(
            scenario_specs(spec.experiment, idv6)[0]
        )
        with np.load(path, allow_pickle=True) as payload:
            members = dict(payload)
        members["controller_values"] = np.zeros((2, 1))
        np.savez_compressed(path, **members)

        session = api.Session(spec)
        rerun = []
        original = session.engine.run

        def run(specs, prune=True):
            rerun.append([run_spec.scenario.name for run_spec in specs])
            return original(specs, prune=prune)

        session.engine.run = run
        with pytest.warns(RuntimeWarning, match="retrying"):
            result = session.run()
        # Chunk one is 3 calibration runs and the first 5 scenario runs.
        assert rerun == [["normal", "normal", "idv6", "idv6", "attack_xmv3"]]
        assert result.tables() == warm.tables()
        pipeline = session.evaluation().last_pipeline
        assert pipeline.simulation_stats.n_simulated == 1
        reference = Evaluation(FOLD_EXPERIMENT)
        reference.calibrate(keep_results=False)
        assert_same_models(session.evaluation(), reference)


class TestSweeps:
    @pytest.fixture(scope="class")
    def sweep_result(self):
        spec = api.CampaignSpec(
            name="sw",
            experiment=SMALL_EXPERIMENT,
            scenarios=("idv6",),
            sweep=api.SweepSpec(seeds=(13, 14)),
            analysis=api.AnalysisSpec(streaming=True),
        )
        return api.run(spec)

    def test_per_seed_results(self, sweep_result):
        assert sweep_result.seeds == [13, 14]
        assert sweep_result.is_sweep
        for seed in (13, 14):
            assert set(sweep_result.per_seed[seed]) == {"idv6"}

    def test_tables_gain_seed_column(self, sweep_result):
        rows = sweep_result.arl_table()
        assert [row["seed"] for row in rows] == [13, 14]

    def test_scenario_results_guarded_on_sweeps(self, sweep_result):
        with pytest.raises(ConfigurationError, match="swept"):
            sweep_result.scenario_results

    def test_first_sweep_seed_matches_plain_run(self, sweep_result):
        plain = api.run(
            api.CampaignSpec(
                name="sw0",
                experiment=SMALL_EXPERIMENT,
                scenarios=("idv6",),
                analysis=api.AnalysisSpec(streaming=True),
            )
        )
        sweep_rows = [
            {k: v for k, v in row.items() if k != "seed"}
            for row in sweep_result.arl_table()
            if row["seed"] == 13
        ]
        assert sweep_rows == plain.arl_table()

    def test_tables_selection(self):
        spec = api.CampaignSpec(
            name="t",
            experiment=SMALL_EXPERIMENT,
            scenarios=("idv6",),
            analysis=api.AnalysisSpec(streaming=True, tables=("arl",)),
        )
        tables = api.run(spec).tables()
        assert set(tables) == {"arl"}


class TestFigureRegistryIntegration:
    def test_omeda_figures_carry_titles(self):
        from repro.experiments.figures import omeda_figures

        spec = api.CampaignSpec(
            name="f", experiment=SMALL_EXPERIMENT, scenarios=("idv6",)
        )
        result = api.run(spec)
        figures = omeda_figures(result.scenario_results, "process")
        assert figures["idv6"].title == "Disturbance IDV(6): A feed loss"

    def test_unregistered_scenario_title_falls_back(self):
        from repro.experiments.figures import OmedaFigure

        figure = OmedaFigure(
            scenario="no_such",
            view="process",
            variable_names=(),
            contributions=np.array([]),
        )
        assert figure.title == "no_such"


def run_isolated(code: str) -> list:
    """Run ``code`` in a fresh interpreter on this tree; its output lines."""
    source = Path(__file__).resolve().parent.parent / "src"
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        check=True,
    )
    return completed.stdout.splitlines()


class TestImportIsolation:
    def test_fingerprinting_a_spec_leaves_the_service_stack_unloaded(self):
        # Session.run opens by fingerprinting its spec; the digest lives
        # beside CampaignSpec, so no coordinator, REST or HTTP module loads.
        modules = ("repro.service", "repro.faults", "http.server")
        spec_path = SPEC_DIR / "batch_paper.toml"
        code = (
            "import sys\n"
            "from repro import api\n"
            f"spec = api.load_spec({str(spec_path)!r})\n"
            "print(api.Session(spec).fingerprint())\n"
            f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
            "from repro.service import campaign_fingerprint\n"
            "from repro.service.chunks import campaign_fingerprint as chunked\n"
            "print(campaign_fingerprint(spec), chunked is campaign_fingerprint)\n"
        )
        fingerprint, loaded, service = run_isolated(code)
        assert loaded == "[]"
        assert service == f"{fingerprint} True"

    def test_importing_the_api_leaves_the_response_and_dashboard_layers_unloaded(self):
        # A spec reads only the response policy and the live alarm records;
        # the packages load their other layers on first attribute access.
        modules = (
            "repro.response.campaign",
            "repro.response.runner",
            "repro.response.metrics",
            "repro.response.verify",
            "repro.live.dashboard",
            "repro.plotting",
            "repro.experiments.figures",
        )
        code = (
            "import sys, repro.api\n"
            f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
            "import repro.experiments, repro.live, repro.response\n"
            "from repro.response import ResponseRunner, evaluate_all_response\n"
            "from repro.live import render_live_dashboard\n"
            "from repro.experiments import arl_table\n"
            "print(ResponseRunner.__module__, evaluate_all_response.__module__,\n"
            "      render_live_dashboard.__module__, arl_table.__module__)\n"
            "print(all(hasattr(package, name) for package in\n"
            "          (repro.experiments, repro.live, repro.response)\n"
            "          for name in package.__all__))\n"
        )
        assert run_isolated(code) == [
            "[]",
            "repro.response.runner repro.response.campaign "
            "repro.live.dashboard repro.experiments.figures",
            "True",
        ]

    def test_an_unknown_lazy_name_still_raises_attribute_error(self):
        import repro.live
        import repro.response

        for package in (repro.live, repro.response):
            with pytest.raises(AttributeError):
                package.no_such_name
