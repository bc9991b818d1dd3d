"""Streaming detection of a DoS (hold-last-value) attack.

The paper observes that DoS attacks — where the actuator keeps re-using the
last command it received — are much slower to detect than integrity attacks
and that their oMEDA diagnosis does not clearly implicate the attacked
variable.  This example reproduces both observations with a live monitor
scoring the process view observation by observation, the way an online
monitor would: detections count from the attack onset on, and the alarm
raised at the detection names the chart that fired.

Run with:  python examples/dos_detection.py
"""

from __future__ import annotations


from repro.common.config import MSPCConfig, SimulationConfig
from repro.datasets.dataset import ProcessDataset
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import (
    dos_attack_on_xmv3_scenario,
    integrity_attack_on_xmv3_scenario,
    normal_scenario,
)
from repro.live.monitor import LiveViewMonitor
from repro.mspc.model import MSPCMonitor

ANOMALY_START_HOUR = 5.0
SIMULATION = SimulationConfig(duration_hours=14.0, samples_per_hour=30, seed=3)


def calibrate() -> MSPCMonitor:
    parts = []
    for run_index in range(3):
        result = run_scenario(
            normal_scenario(),
            SIMULATION.with_seed(300 + run_index),
            anomaly_start_hour=ANOMALY_START_HOUR,
        )
        parts.append(result.process_data)
    calibration = ProcessDataset.concatenate(parts)
    return MSPCMonitor(MSPCConfig()).fit(calibration)


def stream_and_report(monitor: MSPCMonitor, scenario, label: str) -> None:
    run = run_scenario(scenario, SIMULATION, anomaly_start_hour=ANOMALY_START_HOUR)
    live = LiveViewMonitor(
        monitor, view="process", anomaly_start_hour=ANOMALY_START_HOUR
    )
    for row, time in zip(run.process_data.values, run.process_data.timestamps):
        live.observe(row, time)
    print(f"--- {label} ---")
    detection = live.detection_index
    if detection is None:
        print("  not detected within the simulation horizon")
        return
    run_length = live.detection_time_hours - ANOMALY_START_HOUR
    # The alarm standing at the detection: raised there, or earlier within
    # the same violation run when that run began before the onset.
    alarm = [
        event for event in live.alarms.raise_events if event.index <= detection
    ][-1]
    print(f"  detected on the {alarm.chart} chart "
          f"after {run_length:.2f} h (statistic {alarm.statistic_value:.1f} "
          f"vs limit {alarm.limit:.1f})")
    diagnosis = monitor.diagnose(
        run.process_data,
        observation_indices=range(
            detection, min(detection + 3, run.process_data.n_observations)
        ),
    )
    print(f"  oMEDA top variables: {', '.join(diagnosis.top_variables(4))}")
    print(f"  dominance ratio: {diagnosis.dominance_ratio():.2f} "
          "(low values mean no variable clearly stands out)")
    print()


def main() -> None:
    print("calibrating the MSPC monitor on normal operation...\n")
    monitor = calibrate()
    stream_and_report(
        monitor, integrity_attack_on_xmv3_scenario(), "Integrity attack on XMV(3)"
    )
    stream_and_report(monitor, dos_attack_on_xmv3_scenario(), "DoS attack on XMV(3)")
    print(
        "The integrity attack is flagged within minutes, while the DoS attack\n"
        "takes far longer to surface and its diagnosis is much less conclusive —\n"
        "matching the behaviour reported in Section V of the paper."
    )


if __name__ == "__main__":
    main()
