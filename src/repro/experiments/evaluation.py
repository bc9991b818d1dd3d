"""End-to-end evaluation campaign reproducing the paper's Section V.

:class:`Evaluation` orchestrates the full experiment: a calibration campaign
to fit the dual-level MSPC models, repeated runs of every anomalous scenario,
Average Run Length computation and per-view oMEDA diagnosis — i.e. everything
needed to regenerate Figures 4 and 5 and the ARL discussion of the paper.

Every ``evaluate_*`` method drives the same loop of the streaming analysis
stage (:mod:`repro.experiments.analysis`): simulation results come out of
the engine chunk by chunk, MSPC scoring + oMEDA diagnosis fan out over the
worker pool, and all aggregates come from the incremental
:class:`~repro.experiments.analysis.ScenarioReducer`.  The only choice is
retention: :meth:`Evaluation.evaluate_all` keeps full results and diagnoses
alive for inspection, :meth:`Evaluation.evaluate_all_streaming` keeps only
the aggregates when the campaign is too large to hold in memory; the tables
are bitwise-identical either way.  :meth:`Evaluation.calibrate_and_evaluate`
runs the same loop with the calibration runs at the head of its plan, so
they share the simulation batches of the first scenario runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.anomaly.diagnosis import DualLevelAnalyzer, DualLevelDiagnosis
from repro.common.config import EarlyStopPolicy, ExperimentConfig
from repro.common.exceptions import NotFittedError
from repro.experiments.analysis import (
    AnalysisPipeline,
    AnalyzedRun,
    ScenarioReducer,
    ScenarioSummary,
    build_arl_table,
    build_classification_table,
)
from repro.experiments.parallel import CampaignEngine
from repro.experiments.runner import CalibrationData, run_calibration_campaign
from repro.experiments.scenarios import Scenario, paper_scenarios
from repro.process.simulator import SimulationResult

__all__ = ["ScenarioEvaluation", "Evaluation"]


@dataclass
class ScenarioEvaluation:
    """Aggregated results of one scenario over its repeated runs.

    The eager, fully-retained record: every simulation result and diagnosis
    stays accessible.  All aggregates delegate to the same
    :class:`~repro.experiments.analysis.ScenarioReducer` the streaming path
    uses, so the two paths cannot drift apart.
    """

    scenario: Scenario
    results: List[SimulationResult]
    diagnoses: List[DualLevelDiagnosis]
    run_lengths: List[Optional[float]]
    # Lazily-built aggregate; the retained lists are write-once after
    # construction, so one replay through the reducer serves every property.
    _summary_cache: Optional[ScenarioSummary] = field(
        default=None, init=False, repr=False, compare=False
    )

    def to_summary(self) -> ScenarioSummary:
        """Replay the retained runs through the streaming reducer (cached).

        The cache is invalidated when runs are appended/removed; in-place
        mutation of an existing entry is not tracked.
        """
        if (
            self._summary_cache is not None
            and self._summary_cache.n_runs == len(self.diagnoses)
        ):
            return self._summary_cache
        reducer = ScenarioReducer(self.scenario)
        for index, (diagnosis, length) in enumerate(
            zip(self.diagnoses, self.run_lengths)
        ):
            # results may legitimately be empty/shorter (lean retention);
            # the diagnosis/run-length pair drives the aggregates.
            result = self.results[index] if index < len(self.results) else None
            reducer.update(
                AnalyzedRun(
                    scenario_name=self.scenario.name,
                    run_index=index,
                    diagnosis=diagnosis,
                    run_length=length,
                    shutdown_time_hours=(
                        result.shutdown_time_hours if result is not None else None
                    ),
                    result=result,
                )
            )
        self._summary_cache = reducer.summary()
        return self._summary_cache

    @property
    def n_runs(self) -> int:
        """Number of runs executed."""
        return len(self.results)

    @property
    def n_detected(self) -> int:
        """Number of runs in which the anomaly was detected."""
        return self.to_summary().n_detected

    @property
    def detection_rate(self) -> float:
        """Fraction of runs in which the anomaly was detected."""
        return self.to_summary().detection_rate

    @property
    def n_false_alarms(self) -> int:
        """Runs in which a detection fired before the anomaly even began."""
        return self.to_summary().n_false_alarms

    @property
    def arl_hours(self) -> Optional[float]:
        """Average Run Length over the detected runs, in hours."""
        return self.to_summary().arl_hours

    def mean_omeda(self, view: str) -> Tuple[Tuple[str, ...], np.ndarray]:
        """Average oMEDA vector over runs for ``view`` ("controller"/"process")."""
        return self.to_summary().mean_omeda(view)

    def classification_counts(self) -> Dict[str, int]:
        """How many runs were classified into each anomaly class."""
        return self.to_summary().classification_counts()

    def shutdown_times(self) -> List[Optional[float]]:
        """Per-run safety shutdown time (None when the run completed)."""
        return [result.shutdown_time_hours for result in self.results]


class Evaluation:
    """The complete evaluation campaign.

    Parameters
    ----------
    config:
        Campaign configuration (number of runs, simulation and MSPC settings).
    analyzer:
        Optional pre-built analyzer; a default dual-level analyzer using the
        configuration's MSPC settings is created otherwise.
    engine:
        Optional pre-built campaign engine; a default one following the
        configuration's :class:`~repro.common.config.ParallelConfig` is
        created otherwise.  All simulation batches — calibration and
        per-scenario repeats — are dispatched through it.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        analyzer: Optional[DualLevelAnalyzer] = None,
        engine: Optional[CampaignEngine] = None,
    ):
        self.config = config or ExperimentConfig()
        self.analyzer = analyzer or DualLevelAnalyzer(self.config.mspc)
        self.engine = engine or CampaignEngine(self.config.parallel)
        self.calibration: Optional[CalibrationData] = None
        self._scenario_results: Dict[str, ScenarioEvaluation] = {}
        # The pipeline of the most recent evaluate_* call, for its
        # accumulated simulation_stats / analysis_stats.
        self.last_pipeline: Optional[AnalysisPipeline] = None

    # ------------------------------------------------------------------
    @property
    def is_calibrated(self) -> bool:
        """Whether the calibration campaign has been run and models fitted."""
        return self.calibration is not None and self.analyzer.is_fitted

    def calibrate(self, keep_results: bool = True) -> CalibrationData:
        """Run the calibration campaign and fit both MSPC models.

        ``keep_results=False`` (the streaming campaigns' choice) releases
        each calibration run's :class:`SimulationResult` once its data has
        been folded into the concatenated calibration matrices, instead of
        retaining all of them on :attr:`calibration` for the process
        lifetime.
        """
        return self._fit(
            run_calibration_campaign(
                self.config, engine=self.engine, keep_results=keep_results
            )
        )

    def _fit(self, calibration: CalibrationData) -> CalibrationData:
        """Keep a calibration campaign and fit both MSPC models on it."""
        self.calibration = calibration
        self.analyzer.fit(calibration.controller_data, calibration.process_data)
        return calibration

    def _require_calibrated(self) -> None:
        if not self.is_calibrated:
            raise NotFittedError("call calibrate() before evaluating scenarios")

    # ------------------------------------------------------------------
    def _evaluate(
        self,
        scenarios: Optional[Sequence[Scenario]],
        retain: bool,
        n_runs: Optional[int] = None,
        chunk_size: Optional[int] = None,
        early_stop: Optional[EarlyStopPolicy] = None,
        on_run=None,
        calibrate: bool = False,
    ):
        """The one code path behind every ``evaluate_*`` method.

        Streams ``scenarios`` (default: the paper's four) through an
        :class:`AnalysisPipeline` sharing this evaluation's engine and
        analyzer.  With ``retain`` every run's result and full diagnosis are
        kept on :class:`ScenarioEvaluation` records, which are also stored
        in :attr:`scenario_results`, and every scenario evaluated so far is
        returned; otherwise the :class:`ScenarioSummary` aggregates of
        ``scenarios`` are.  ``calibrate`` lets an uncalibrated evaluation
        calibrate in the pipeline's plan instead of raising.
        """
        fit = self._fit if calibrate and not self.is_calibrated else None
        if fit is None:
            self._require_calibrated()
        scenarios = list(scenarios or paper_scenarios())
        pipeline = AnalysisPipeline(
            self.analyzer,
            self.config,
            engine=self.engine,
            chunk_size=chunk_size,
            retain=retain,
            early_stop=early_stop,
        )
        self.last_pipeline = pipeline
        if not retain:
            return pipeline.analyze_all(
                scenarios, on_run=on_run, n_runs=n_runs, fit=fit
            )
        retained: Dict[str, List[AnalyzedRun]] = {
            scenario.name: [] for scenario in scenarios
        }

        def keep(run: AnalyzedRun) -> None:
            retained[run.scenario_name].append(run)
            if on_run is not None:
                on_run(run)

        pipeline.analyze_all(scenarios, on_run=keep, n_runs=n_runs, fit=fit)
        for scenario in scenarios:
            runs = retained[scenario.name]
            self._scenario_results[scenario.name] = ScenarioEvaluation(
                scenario=scenario,
                results=[run.result for run in runs],
                diagnoses=[run.diagnosis for run in runs],
                run_lengths=[run.run_length for run in runs],
            )
        return dict(self._scenario_results)

    def evaluate_scenario(
        self, scenario: Scenario, n_runs: Optional[int] = None
    ) -> ScenarioEvaluation:
        """Run one scenario ``n_runs`` times and aggregate its results."""
        return self._evaluate([scenario], retain=True, n_runs=n_runs)[scenario.name]

    def evaluate_all(
        self,
        scenarios: Optional[Sequence[Scenario]] = None,
        on_run=None,
    ) -> Dict[str, ScenarioEvaluation]:
        """Evaluate every scenario (defaults to the paper's four).

        The runs of *all* scenarios are submitted to the engine as one batch,
        so the simulation fan-out spans the whole sweep rather than one
        scenario at a time; per-run seeds make the outcome bitwise-identical
        whatever the batch size, chunking or worker count.  Every
        result and diagnosis is retained.  ``on_run`` is called with every
        :class:`~repro.experiments.analysis.AnalyzedRun` as it completes
        (progress reporting).
        """
        return self._evaluate(scenarios, retain=True, on_run=on_run)

    def evaluate_all_streaming(
        self,
        scenarios: Optional[Sequence[Scenario]] = None,
        chunk_size: Optional[int] = None,
        on_run=None,
    ) -> Dict[str, ScenarioSummary]:
        """Evaluate every scenario without retaining per-run data.

        The memory-bounded path: results stream out of the (cache-backed)
        engine in chunks, workers return compact diagnosis summaries, and
        only the incremental aggregates survive — peak memory is O(chunk)
        rather than O(campaign).  The returned
        :class:`~repro.experiments.analysis.ScenarioSummary` objects expose
        the same table API as :class:`ScenarioEvaluation` and are
        bitwise-identical to the eager path's tables.
        """
        return self._evaluate(
            scenarios, retain=False, chunk_size=chunk_size, on_run=on_run
        )

    def evaluate_all_live(
        self,
        scenarios: Optional[Sequence[Scenario]] = None,
        policy: Optional[EarlyStopPolicy] = EarlyStopPolicy(),
        streaming: bool = False,
        chunk_size: Optional[int] = None,
        on_run=None,
    ):
        """Evaluate every scenario with live monitoring and early stopping.

        Anomalous scenarios' runs are scored sample-by-sample *while they
        simulate* (see :mod:`repro.live`) and terminated
        ``policy.grace_samples`` samples after a confirmed detection, so
        the campaign spends no wall-clock simulating what the monitor has
        already decided.  Detection verdicts (detected / detection time /
        run length) are identical to the full-horizon campaign, because the
        truncation point is strictly after the confirming sample;
        truncated results are cached under dedicated keys
        (:meth:`~repro.experiments.parallel.RunSpec.cache_token`) and never
        mix with full-horizon entries.  Normal scenarios always run their
        whole horizon, and ``policy=None`` disables early stopping entirely
        (the campaign is then identical to :meth:`evaluate_all`, or to
        :meth:`evaluate_all_streaming` with ``streaming``).
        """
        return self._evaluate(
            scenarios,
            retain=not streaming,
            chunk_size=chunk_size,
            early_stop=policy,
            on_run=on_run,
        )

    def calibrate_and_evaluate(
        self,
        scenarios: Optional[Sequence[Scenario]] = None,
        streaming: bool = False,
        chunk_size: Optional[int] = None,
        on_run=None,
    ):
        """Evaluate every scenario, calibrating first in the same plan.

        On an evaluation that is not calibrated yet, the calibration runs
        head the campaign plan: they simulate in the same engine calls (and
        the same lockstep batches) as the first
        scenario runs, and both models are fitted once the last of them is
        in, before any scenario run is scored.  Calibration runs are never
        scored and never reach ``on_run``.  Afterwards :attr:`calibration`
        is what ``calibrate(keep_results=not streaming)`` leaves, and the
        results are bitwise-identical to :meth:`calibrate` followed by
        :meth:`evaluate_all_streaming` (``streaming``) or
        :meth:`evaluate_all`.  An evaluation already calibrated just
        evaluates.  Live early-stop runs need the fitted models while they
        simulate, so :meth:`evaluate_all_live` never calibrates in its plan.
        """
        return self._evaluate(
            scenarios,
            retain=not streaming,
            chunk_size=chunk_size,
            on_run=on_run,
            calibrate=True,
        )

    @property
    def scenario_results(self) -> Dict[str, ScenarioEvaluation]:
        """Results of the scenarios evaluated so far, keyed by scenario name."""
        return dict(self._scenario_results)

    # ------------------------------------------------------------------
    def arl_table(self) -> List[Dict[str, object]]:
        """One row per evaluated scenario: detection rate and ARL in hours."""
        return build_arl_table(self._scenario_results)

    def classification_table(self) -> List[Dict[str, object]]:
        """One row per scenario: how its runs were classified."""
        return build_classification_table(self._scenario_results)
