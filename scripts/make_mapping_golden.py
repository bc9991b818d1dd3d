"""Regenerate ``tests/golden/mappings.json``, the checked-in mapping forms of
every config section, spec and result record.

The corpus is built by hand and simulates nothing, so it holds on every
numpy/scipy build:

* every ``examples/specs/*.toml``: its spec mapping, its TOML text and its
  campaign fingerprint;
* the ``RunSpec.cache_key`` list of ``batch_paper.toml`` and
  ``live_paper.toml`` at the smoke shape ``make_test_golden.py`` runs (3
  calibration runs, 2 runs per scenario, 14 h at 30 samples/h, onset at
  hour 6, root seed 2016), the live one with its early-stop policy
  attached, plus the live context token;
* every ``examples/faults/*.toml`` plan and the default retry policy;
* one instance of each config section, injection primitive and result
  record, with its optional fields both set and ``None``.

The record stores each entry's full mapping (not a digest), so a mismatch
names the key that moved.  ``tests/test_mapping_golden.py`` rebuilds the
corpus and compares each entry under canonical JSON.  Regenerate only when
a change is meant to alter a wire form.

    PYTHONPATH=src python scripts/make_mapping_golden.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict

import numpy as np

from repro import api
from repro.anomaly.diagnosis import AnomalyClass, DiagnosisSummary
from repro.api.session import CampaignResult, ResponseCampaignResult
from repro.common.config import (
    EarlyStopPolicy,
    ExperimentConfig,
    GatewayConfig,
    LiveConfig,
    MSPCConfig,
    ObsConfig,
    ParallelConfig,
    ServiceConfig,
    SimulationConfig,
)
from repro.common.retry import RetryPolicy
from repro.experiments.analysis import ScenarioSummary
from repro.experiments.injections import (
    BiasInjection,
    DisturbanceInjection,
    DoSInjection,
    DriftInjection,
    IntegrityInjection,
    ReplayInjection,
    StuckAtInjection,
)
from repro.experiments.parallel import calibration_specs
from repro.experiments.scenarios import Scenario, disturbance_idv6_scenario
from repro.faults import FaultPlan, FaultRule
from repro.gateway.pool import StreamStatus
from repro.live.alarms import AlarmEvent
from repro.live.campaign import live_context_token, live_scenario_specs
from repro.live.monitor import LiveRunReport
from repro.mspc.model import OmedaResult
from repro.response.campaign import ResponseScenarioResult
from repro.response.metrics import ResponseSummary
from repro.response.policy import ActionSpec, ResponsePolicy
from repro.response.verify import ActionRecord, ResponseReport
from repro.service.chunks import WorkChunk, campaign_fingerprint, campaign_run_specs
from repro.service.coordinator import ChunkRecord

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "examples" / "specs"
FAULTS = ROOT / "examples" / "faults"
GOLDEN = ROOT / "tests" / "golden" / "mappings.json"
ROOT_SEED = 2016


def canonical(value: Any) -> str:
    """The canonical JSON text every entry is compared under."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def smoke_shaped(spec: api.CampaignSpec) -> api.CampaignSpec:
    """``spec`` at the smoke shape of ``make_test_golden.py``."""
    smoke = ExperimentConfig.smoke(seed=ROOT_SEED)
    experiment = replace(
        spec.experiment,
        n_calibration_runs=smoke.n_calibration_runs,
        n_runs_per_scenario=smoke.n_runs_per_scenario,
        anomaly_start_hour=smoke.anomaly_start_hour,
        simulation=replace(
            spec.experiment.simulation,
            duration_hours=smoke.simulation.duration_hours,
            samples_per_hour=smoke.simulation.samples_per_hour,
            seed=smoke.simulation.seed,
        ),
        parallel=replace(spec.experiment.parallel, n_workers=1),
        seed=smoke.seed,
    )
    return spec.with_experiment(experiment)


def spec_entries() -> Dict[str, Any]:
    """Mapping, TOML text and fingerprint of every example spec."""
    entries: Dict[str, Any] = {}
    for path in sorted(SPECS.glob("*.toml")):
        spec = api.load_spec(path)
        entries[f"spec/{path.stem}/mapping"] = spec.to_mapping()
        entries[f"spec/{path.stem}/toml"] = spec.to_toml()
        entries[f"spec/{path.stem}/fingerprint"] = campaign_fingerprint(spec)
    return entries


def cache_key_entries() -> Dict[str, Any]:
    """Smoke-shaped run cache keys of the batch and the live campaign."""
    batch = smoke_shaped(api.load_spec(SPECS / "batch_paper.toml"))
    live = smoke_shaped(api.load_spec(SPECS / "live_paper.toml"))
    experiment = live.experiment
    live_specs = list(calibration_specs(experiment))
    for scenario in live.expanded_scenarios():
        live_specs.extend(
            live_scenario_specs(experiment, scenario, live.live.policy())
        )
    return {
        "cache_keys/batch_paper": [
            run.cache_key() for run in campaign_run_specs(batch)
        ],
        "cache_keys/live_paper": [run.cache_key() for run in live_specs],
        "live_context_token/live_paper": live_context_token(experiment),
    }


def fault_entries() -> Dict[str, Any]:
    """Every example fault plan, a default rule and the default retry policy."""
    entries: Dict[str, Any] = {
        f"faults/{path.stem}": FaultPlan.load(path).to_mapping()
        for path in sorted(FAULTS.glob("*.toml"))
    }
    entries["faults/default_rule"] = FaultRule(site="x.*", action="kill").to_mapping()
    entries["retry/default"] = RetryPolicy().to_mapping()
    return entries


def config_entries() -> Dict[str, Any]:
    """Config sections and spec parts, defaults and every optional set."""
    rule = ActionSpec(
        action="shed_sensor",
        view="process",
        chart="Q",
        classification="integrity attack",
        variables=("XMEAS(1)", "XMV(3)"),
        gain_factor=2,
        limit_factor=0.75,
        channel="actuators",
        sensor="XMEAS(1)",
        cooldown_samples=5,
    )
    sections = {
        "simulation/default": SimulationConfig(),
        "simulation/set": SimulationConfig(
            duration_hours=14, samples_per_hour=30, seed=7, enable_noise=False
        ),
        "mspc/default": MSPCConfig(),
        "mspc/set": MSPCConfig(
            n_components=3, confidence_levels=(0.9, 0.99), limit_method="percentile"
        ),
        "parallel/default": ParallelConfig(),
        "parallel/set": ParallelConfig(
            n_workers=2,
            cache_dir="cache",
            cache_enabled=False,
            cache_max_bytes=1024,
            cache_max_age=60,
            chunk_size=4,
            batch_size=8,
        ),
        "early_stop/default": EarlyStopPolicy(),
        "live/set": LiveConfig(enabled=True, early_stop=False, grace_samples=3),
        "service/default": ServiceConfig(),
        "service/set": ServiceConfig(port=9000, lease_seconds=30, chunk_size=6),
        "gateway/set": GatewayConfig(port=0, ingest_port=0, idle_timeout_seconds=0),
        "obs/default": ObsConfig(),
        "obs/set": ObsConfig(
            enabled=True, trace=True, trace_path="t.json", log_level="debug",
            log_path="log.jsonl",
        ),
        "experiment/smoke": ExperimentConfig.smoke(),
        "sweep/empty": api.SweepSpec(),
        "sweep/set": api.SweepSpec(seeds=(1, 2), magnitudes=(0.5, 2)),
        "analysis/default": api.AnalysisSpec(),
        "analysis/set": api.AnalysisSpec(
            streaming=True, chunk_size=4, tables=("classification",)
        ),
        "action_spec/default": ActionSpec(action="fallback_gains"),
        "action_spec/set": rule,
        "response/default": ResponsePolicy(),
        "response/set": ResponsePolicy(
            enabled=True, rules=(rule, ActionSpec(action="escalate_sensitivity")),
            max_actions=2,
        ),
    }
    return {name: section.to_mapping() for name, section in sections.items()}


def injection_entries() -> Dict[str, Any]:
    """Every injection primitive with its window deferred and set, and a
    composite scenario built from all of them."""
    window = dict(start_hour=2, end_hour=5.5)
    injections = {
        "disturbance": (
            DisturbanceInjection(6),
            DisturbanceInjection(4, magnitude=0.5, **window),
        ),
        "integrity": (
            IntegrityInjection("actuator", 3, 0.0),
            IntegrityInjection("sensor", 1, 2, **window),
        ),
        "dos": (DoSInjection("actuator", 3), DoSInjection("sensor", 7, **window)),
        "bias": (
            BiasInjection("sensor", 1, 0.25),
            BiasInjection("actuator", 2, -1, **window),
        ),
        "drift": (
            DriftInjection("sensor", 9, 0.5),
            DriftInjection("sensor", 9, 1, **window),
        ),
        "stuck_at": (
            StuckAtInjection("sensor", 4),
            StuckAtInjection("actuator", 5, value=0, **window),
        ),
        "replay": (
            ReplayInjection("sensor", 12),
            ReplayInjection("actuator", 10, record_hours=2, **window),
        ),
    }
    entries: Dict[str, Any] = {}
    for tag, (deferred, windowed) in injections.items():
        entries[f"injection/{tag}/deferred"] = deferred.to_mapping()
        entries[f"injection/{tag}/window"] = windowed.to_mapping()
    composite = Scenario(
        name="composite",
        injections=tuple(pair[1] for pair in injections.values()),
    )
    entries["scenario/composite"] = composite.to_mapping()
    entries["scenario/idv6"] = disturbance_idv6_scenario().to_mapping()
    return entries


def record_entries() -> Dict[str, Any]:
    """One instance of each result record, optional fields set and None."""
    raised = AlarmEvent(
        kind="raised",
        index=42,
        time_hours=2.1500000000000004,
        chart="D+Q",
        statistic_value=6473.803261,
        limit=25.42485,
    )
    cleared = AlarmEvent("cleared", 57, 2.85, "D", 3.25, 25.42485)
    controller_omeda = OmedaResult(
        variable_names=("XMEAS(1)", "XMV(3)", "XMEAS(7)"),
        contributions=np.array([0.5, -1.25, 3.0000000000000004]),
        observation_indices=(40, 41, 42),
    )
    process_omeda = OmedaResult(("XMEAS(1)", "XMEAS(7)"), np.array([-2.0, 0.125]), (42,))
    summary_set = DiagnosisSummary(
        controller_omeda=controller_omeda,
        process_omeda=process_omeda,
        similarity=-0.3333333333333333,
        classification=AnomalyClass.INTEGRITY_ATTACK,
        detection_time_hours=2.15,
        metadata={"scenario": "attack_xmv3", "run_index": 1, "false_alarm": None},
    )
    summary_none = DiagnosisSummary(None, None, None, AnomalyClass.NORMAL, None)
    live_set = LiveRunReport(
        n_samples=120,
        detection_index=42,
        detection_time_hours=2.15,
        detection_latency_hours=0.1499999999999999,
        false_alarm_time_hours=0.5,
        snapshot=summary_set,
        snapshot_time_hours=2.15,
        time_to_diagnosis_hours=0.15,
        diagnosis=summary_set,
        alarm_events={"process": (raised,), "controller": (raised, cleared)},
        stopped_early=True,
        stop_index=67,
        stop_time_hours=3.35,
    )
    live_none = LiveRunReport(0, None, None, None, None, None, None, None, None)
    action = ActionRecord(
        index=42,
        time_hours=2.15,
        action="quarantine_channel",
        rule_index=0,
        view="controller",
        chart="D+Q",
        detail="cleared the actuators channel",
    )
    response_set = ResponseReport(
        live=live_set,
        policy_enabled=True,
        hold_samples=12,
        actions=(action, replace(action, index=50, rule_index=1, detail="")),
        first_action_index=42,
        first_action_time_hours=2.15,
        recovered=True,
        recovery_index=60,
        recovery_time_hours=3.0,
        time_to_recovery_hours=0.85,
        residual_alarms=1,
        residual_alarm_rate=0.013157894736842105,
        trip_avoided=False,
        shutdown_time_hours=7.5,
        shutdown_reason="stripper liquid level low",
    )
    response_none = ResponseReport(live=live_none)
    scenario = disturbance_idv6_scenario()
    scenario_summary = ScenarioSummary(
        scenario=scenario,
        run_lengths=[1.25, None, 0.5],
        counts={"process disturbance": 2, "normal": 1},
        false_alarm_count=1,
        shutdown_times_hours=[None, 4.5, None],
        omeda_means={
            "controller": (("a", "b"), np.array([0.5, -1.5])),
            "process": (("x",), np.array([2.0])),
        },
    )
    spec = api.CampaignSpec(name="records", scenarios=("idv6",))
    chunk = WorkChunk(chunk_id="c0001", start=8, stop=16, fingerprint="0123456789abcdef")
    records = {
        "alarm_event/raised": raised,
        "alarm_event/cleared": cleared,
        "omeda/controller": controller_omeda,
        "diagnosis_summary/set": summary_set,
        "diagnosis_summary/none": summary_none,
        "live_report/set": live_set,
        "live_report/none": live_none,
        "action_record/set": action,
        "response_report/set": response_set,
        "response_report/none": response_none,
        "response_summary/set": ResponseSummary(
            scenario_name="idv6",
            title="IDV(6)",
            n_runs=3,
            n_detected=3,
            n_responded=2,
            n_actions=4,
            n_recovered=1,
            n_trips=1,
            n_trips_avoided=1,
            times_to_recovery_hours=(0.85,),
            residual_alarm_rates=(0.0, 0.25),
        ),
        "response_summary/empty": ResponseSummary("normal", "Normal operation"),
        "work_chunk/set": chunk,
        "chunk_record/set": ChunkRecord(
            chunk=chunk,
            state="leased",
            worker_id="w-1",
            lease_deadline=1060.0,
            attempts=2,
            n_simulated=5,
            n_cache_hits=3,
        ),
        "chunk_record/none": ChunkRecord(chunk=chunk),
        "stream_status/set": StreamStatus("s-1", 120, 4, True, False, 3, 0.25),
        "scenario_summary/set": scenario_summary,
        "scenario_summary/empty": ScenarioSummary(scenario=scenario, run_lengths=[]),
        "campaign_result/set": CampaignResult(
            spec=spec, per_seed={0: {"idv6": scenario_summary}}
        ),
        "response_scenario_result/set": ResponseScenarioResult(
            scenario=scenario, reports=(response_set, response_none)
        ),
        "response_campaign_result/set": ResponseCampaignResult(
            spec=spec,
            per_seed={
                0: {
                    "idv6": ResponseScenarioResult(
                        scenario=scenario, reports=(response_none,)
                    )
                }
            },
        ),
    }
    return {name: record.to_mapping() for name, record in records.items()}


def corpus() -> Dict[str, Any]:
    """Every golden entry, keyed by name."""
    entries: Dict[str, Any] = {}
    for part in (
        spec_entries,
        cache_key_entries,
        fault_entries,
        config_entries,
        injection_entries,
        record_entries,
    ):
        entries.update(part())
    # Through JSON once, so tuples and lists compare as what goes on the wire.
    return json.loads(canonical(entries))


def main() -> int:
    record = corpus()
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"{len(record)} entries written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
