"""Experiment harness reproducing the paper's evaluation section."""

from repro.common.lazy import lazy_exports

from repro.experiments.scenarios import (
    Scenario,
    ScenarioKind,
    paper_scenarios,
    normal_scenario,
    disturbance_idv6_scenario,
    integrity_attack_on_xmv3_scenario,
    integrity_attack_on_xmeas1_scenario,
    dos_attack_on_xmv3_scenario,
)
from repro.experiments.injections import (
    Injection,
    ChannelInjection,
    DisturbanceInjection,
    IntegrityInjection,
    DoSInjection,
    BiasInjection,
    DriftInjection,
    StuckAtInjection,
    ReplayInjection,
    INJECTION_TYPES,
    injection_from_mapping,
)
from repro.experiments.registry import (
    ScenarioRegistry,
    REGISTRY,
    register_scenario,
    get_scenario,
    scenario_names,
    scenario_title,
    resolve_scenario,
)
from repro.experiments.runner import (
    make_plant,
    make_controller,
    build_channels,
    build_disturbance_schedule,
    run_scenario,
    run_calibration_campaign,
    CalibrationData,
)
from repro.experiments.parallel import (
    RunSpec,
    CampaignStats,
    PruneStats,
    ResultCache,
    CampaignEngine,
    calibration_specs,
    scenario_specs,
)
from repro.experiments.analysis import (
    AnalyzedRun,
    AnalysisEngine,
    AnalysisPipeline,
    AnalysisStats,
    OmedaMeanReducer,
    ScenarioReducer,
    ScenarioSummary,
)
from repro.experiments.evaluation import (
    Evaluation,
    ScenarioEvaluation,
)

__all__ = [
    "Scenario",
    "ScenarioKind",
    "paper_scenarios",
    "normal_scenario",
    "disturbance_idv6_scenario",
    "integrity_attack_on_xmv3_scenario",
    "integrity_attack_on_xmeas1_scenario",
    "dos_attack_on_xmv3_scenario",
    "Injection",
    "ChannelInjection",
    "DisturbanceInjection",
    "IntegrityInjection",
    "DoSInjection",
    "BiasInjection",
    "DriftInjection",
    "StuckAtInjection",
    "ReplayInjection",
    "INJECTION_TYPES",
    "injection_from_mapping",
    "ScenarioRegistry",
    "REGISTRY",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "scenario_title",
    "resolve_scenario",
    "make_plant",
    "make_controller",
    "build_channels",
    "build_disturbance_schedule",
    "run_scenario",
    "run_calibration_campaign",
    "CalibrationData",
    "RunSpec",
    "CampaignStats",
    "PruneStats",
    "ResultCache",
    "CampaignEngine",
    "calibration_specs",
    "scenario_specs",
    "AnalyzedRun",
    "AnalysisEngine",
    "AnalysisPipeline",
    "AnalysisStats",
    "OmedaMeanReducer",
    "ScenarioReducer",
    "ScenarioSummary",
    "Evaluation",
    "ScenarioEvaluation",
    "figure1_control_chart",
    "figure3_feed_response",
    "figure4_omeda_controller",
    "figure5_omeda_process",
    "arl_table",
]

# The figure builders bring the plotting layer, which running a campaign
# never needs: they load when one of their names is first read.
__getattr__ = lazy_exports(
    __name__,
    {
        "figure1_control_chart": "repro.experiments.figures",
        "figure3_feed_response": "repro.experiments.figures",
        "figure4_omeda_controller": "repro.experiments.figures",
        "figure5_omeda_process": "repro.experiments.figures",
        "arl_table": "repro.experiments.figures",
    },
)
