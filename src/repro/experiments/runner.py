"""Execution of calibration campaigns and evaluation scenarios.

This module assembles the full closed loop for one scenario — plant,
decentralized controller, sensor/actuator channels with the scenario's attack,
disturbance schedule and safety monitor — and runs it through
:class:`~repro.process.simulator.ClosedLoopSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.common.config import ExperimentConfig, SimulationConfig
from repro.common.exceptions import ConfigurationError
from repro.control.te_controller import TEDecentralizedController
from repro.datasets.dataset import ProcessDataset
from repro.experiments.scenarios import Scenario
from repro.network.attacks import AttackSchedule
from repro.network.channel import Channel
from repro.process.disturbances import DisturbanceSchedule
from repro.process.simulator import ClosedLoopSimulator, SimulationResult
from repro.te.constants import N_IDV, N_XMEAS, N_XMV
from repro.te.plant import TEPlant
from repro.te.safety import default_safety_monitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import CampaignEngine

__all__ = [
    "make_plant",
    "make_controller",
    "build_channels",
    "build_disturbance_schedule",
    "build_live_observers",
    "scenario_run_metadata",
    "run_scenario",
    "run_calibration_campaign",
    "calibration_data",
    "CalibrationData",
]


def scenario_run_metadata(scenario: Scenario, anomaly_start_hour: float) -> dict:
    """The run-level metadata both simulation kernels attach to results."""
    return {
        "scenario": scenario.name,
        "scenario_title": scenario.title,
        "scenario_kind": scenario.kind.value,
        "anomaly_start_hour": anomaly_start_hour if scenario.is_anomalous else None,
        "ground_truth": scenario.expected_ground_truth,
    }


def build_live_observers(
    scenario: Scenario,
    anomaly_start_hour: float,
    early_stop,
    live_analyzer,
) -> list:
    """The early-stop observer stack of one run (shared by both kernels).

    Returns an empty list when no :class:`~repro.common.config.\
EarlyStopPolicy` is requested; otherwise a single
    :class:`~repro.live.observer.LiveRunObserver` scoring the run against
    the fitted ``live_analyzer``.
    """
    if early_stop is None:
        return []
    if live_analyzer is None:
        raise ConfigurationError(
            "early_stop needs a fitted live_analyzer to score the run"
        )
    # Imported lazily: repro.live sits on top of the experiments layer.
    from repro.live.monitor import LiveMonitor
    from repro.live.observer import LiveRunObserver

    live_monitor = LiveMonitor(
        live_analyzer,
        anomaly_start_hour=(anomaly_start_hour if scenario.is_anomalous else None),
        policy=early_stop,
    )
    return [LiveRunObserver(live_monitor)]


def make_plant(seed: int = 0, enable_process_variation: bool = True) -> TEPlant:
    """Construct a Tennessee-Eastman plant instance."""
    return TEPlant(seed=seed, enable_process_variation=enable_process_variation)


def make_controller() -> TEDecentralizedController:
    """Construct the default decentralized TE controller."""
    return TEDecentralizedController()


def build_disturbance_schedule(
    scenario: Scenario, anomaly_start_hour: float
) -> DisturbanceSchedule:
    """Disturbance schedule of a scenario's process-disturbance injections.

    Each :class:`~repro.experiments.injections.DisturbanceInjection` becomes
    one activation window; injections without an explicit ``start_hour``
    activate at the campaign's ``anomaly_start_hour``.
    """
    schedule = DisturbanceSchedule.none(N_IDV)
    for injection in scenario.disturbance_injections:
        schedule.add(
            injection.index,
            injection.onset(anomaly_start_hour),
            end_hour=injection.end_hour,
            magnitude=injection.magnitude,
        )
    return schedule


def build_channels(
    scenario: Scenario, anomaly_start_hour: float
) -> Tuple[Channel, Channel]:
    """Sensor and actuator channels with the scenario's attacks installed.

    Every channel injection of the composition contributes one attack to
    the channel it targets, so multi-stage scenarios (e.g. a replayed
    sensor masking a DoS'd valve) assemble without special cases.
    """
    sensor_attacks = AttackSchedule.none()
    actuator_attacks = AttackSchedule.none()
    for injection in scenario.channel_injections:
        attack = injection.build_attack(anomaly_start_hour)
        if injection.channel == "sensor":
            sensor_attacks.add(attack)
        else:
            actuator_attacks.add(attack)

    sensor_channel = Channel("sensors", N_XMEAS, sensor_attacks)
    actuator_channel = Channel("actuators", N_XMV, actuator_attacks)
    return sensor_channel, actuator_channel


def run_scenario(
    scenario: Scenario,
    simulation: SimulationConfig,
    anomaly_start_hour: float = 10.0,
    observers: Sequence = (),
    early_stop=None,
    live_analyzer=None,
    observer_factories: Sequence = (),
) -> SimulationResult:
    """Run one scenario once and return both data views.

    ``observers`` are step-tap hooks forwarded to
    :meth:`ClosedLoopSimulator.run`.  ``early_stop`` (an
    :class:`~repro.common.config.EarlyStopPolicy`) plus a fitted
    ``live_analyzer`` attach a live monitor that scores the run while it
    simulates and truncates it once a detection is confirmed; the truncated
    data views are bitwise-identical to the corresponding prefix of the
    full-horizon run.

    ``observer_factories`` are callables invoked with the constructed
    :class:`ClosedLoopSimulator`; each returns an iterable of further
    observers, appended after ``observers`` and the early-stop stack.
    This is the seam for observers that need the simulator itself — the
    closed-loop response runner mutates controller and channels mid-run
    through it (see :meth:`repro.response.runner.ResponseRunner.bind`).
    """
    if scenario.is_anomalous and anomaly_start_hour >= simulation.duration_hours:
        raise ConfigurationError(
            "anomaly_start_hour must fall inside the simulation horizon"
        )
    plant = make_plant(seed=simulation.seed)
    controller = make_controller()
    sensor_channel, actuator_channel = build_channels(scenario, anomaly_start_hour)
    disturbances = build_disturbance_schedule(scenario, anomaly_start_hour)
    safety = default_safety_monitor()

    simulator = ClosedLoopSimulator(
        plant=plant,
        controller=controller,
        sensor_channel=sensor_channel,
        actuator_channel=actuator_channel,
        disturbances=disturbances,
        safety_monitor=safety,
    )
    metadata = scenario_run_metadata(scenario, anomaly_start_hour)
    observers = list(observers) + build_live_observers(
        scenario, anomaly_start_hour, early_stop, live_analyzer
    )
    for factory in observer_factories:
        observers.extend(factory(simulator))
    return simulator.run(simulation, metadata, observers=observers)


@dataclass
class CalibrationData:
    """Concatenated normal-operation data used to fit the MSPC models.

    Attributes
    ----------
    controller_data / process_data:
        Calibration datasets (identical in content since calibration runs are
        attack-free, but both are kept so each monitor is fitted on its own
        view, exactly as a deployed system would be).
    results:
        The individual run results, for inspection.  Empty when the campaign
        was run with ``keep_results=False`` (the streaming path), where the
        per-run arrays are released once concatenated.
    n_runs_executed:
        Number of calibration runs executed (also available when the per-run
        results were not retained).
    """

    controller_data: ProcessDataset
    process_data: ProcessDataset
    results: List[SimulationResult]
    n_runs_executed: int = 0

    def __post_init__(self) -> None:
        if self.n_runs_executed == 0:
            self.n_runs_executed = len(self.results)

    @property
    def n_runs(self) -> int:
        """Number of calibration runs."""
        return self.n_runs_executed


def calibration_data(
    results: Iterable[SimulationResult], keep_results: bool = True
) -> CalibrationData:
    """Concatenate calibration runs, in order, into :class:`CalibrationData`.

    The one place calibration results become the matrices the models are
    fitted on: :func:`run_calibration_campaign` and a campaign plan that
    calibrates both use it.  ``keep_results=False`` drops each
    :class:`SimulationResult` once its views are taken, so only the
    concatenated matrices outlive the call.
    """
    controller_parts: List[ProcessDataset] = []
    process_parts: List[ProcessDataset] = []
    kept: List[SimulationResult] = []
    n_executed = 0
    for result in results:
        controller_parts.append(result.controller_data)
        process_parts.append(result.process_data)
        n_executed += 1
        if keep_results:
            kept.append(result)
    return CalibrationData(
        controller_data=ProcessDataset.concatenate(controller_parts),
        process_data=ProcessDataset.concatenate(process_parts),
        results=kept,
        n_runs_executed=n_executed,
    )


def run_calibration_campaign(
    config: ExperimentConfig,
    scenario: Optional[Scenario] = None,
    engine: Optional["CampaignEngine"] = None,
    keep_results: bool = True,
    chunk_size: Optional[int] = None,
) -> CalibrationData:
    """Run the attack-free calibration campaign of an experiment configuration.

    The runs stream out of a
    :class:`~repro.experiments.parallel.CampaignEngine` built from
    ``config.parallel`` (or the explicitly provided ``engine``) in chunks;
    per-run seeds are derived up front, so the resulting datasets are
    identical whichever batch size, worker count or chunking executes them.
    Model fitting needs the concatenation of every run, so the concatenated
    matrices are inherently O(campaign); ``keep_results=False`` at least
    drops the per-run :class:`SimulationResult` objects once their arrays
    have been folded in, halving steady-state memory.
    """
    from repro.experiments.parallel import CampaignEngine, calibration_specs

    engine = engine or CampaignEngine(config.parallel)
    return calibration_data(
        engine.iter_run(calibration_specs(config, scenario), chunk_size),
        keep_results=keep_results,
    )
