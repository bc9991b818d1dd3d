"""Tests for the scenario definitions and their wiring into channels/schedules."""

from repro.experiments.runner import build_channels, build_disturbance_schedule
from repro.experiments.scenarios import (
    disturbance_idv6_scenario,
    dos_attack_on_xmv3_scenario,
    integrity_attack_on_xmeas1_scenario,
    integrity_attack_on_xmv3_scenario,
    normal_scenario,
    paper_scenarios,
)
from repro.network.attacks import DoSAttack, IntegrityAttack


class TestScenarioDefinitions:
    def test_paper_has_four_anomalous_scenarios(self):
        scenarios = paper_scenarios()
        assert len(scenarios) == 4
        assert [s.name for s in scenarios] == [
            "idv6", "attack_xmv3", "attack_xmeas1", "dos_xmv3",
        ]

    def test_ground_truth_labels(self):
        assert disturbance_idv6_scenario().expected_ground_truth == "disturbance"
        assert integrity_attack_on_xmv3_scenario().expected_ground_truth == "attack"
        assert normal_scenario().expected_ground_truth == "normal"

    def test_attack_flags(self):
        assert not disturbance_idv6_scenario().is_attack
        assert integrity_attack_on_xmeas1_scenario().is_attack
        assert dos_attack_on_xmv3_scenario().is_attack
        assert not normal_scenario().is_anomalous


class TestWiring:
    def test_idv6_schedule(self):
        schedule = build_disturbance_schedule(disturbance_idv6_scenario(), 10.0)
        assert schedule.active_at(11.0) == {6: 1.0}
        assert schedule.active_at(9.0) == {}

    def test_normal_schedule_is_empty(self):
        assert build_disturbance_schedule(normal_scenario(), 10.0).is_empty()

    def test_attack_scenarios_have_empty_schedule(self):
        schedule = build_disturbance_schedule(integrity_attack_on_xmv3_scenario(), 10.0)
        assert schedule.is_empty()

    def test_xmv3_attack_on_actuator_channel(self):
        sensors, actuators = build_channels(integrity_attack_on_xmv3_scenario(), 10.0)
        assert not sensors.compromised
        assert actuators.compromised
        attack = actuators.attacks.attacks[0]
        assert isinstance(attack, IntegrityAttack)
        assert attack.target_index == 3
        assert attack.start_hour == 10.0

    def test_xmeas1_attack_on_sensor_channel(self):
        sensors, actuators = build_channels(integrity_attack_on_xmeas1_scenario(), 10.0)
        assert sensors.compromised
        assert not actuators.compromised
        assert sensors.attacks.attacks[0].target_index == 1

    def test_dos_attack_on_actuator_channel(self):
        _, actuators = build_channels(dos_attack_on_xmv3_scenario(), 10.0)
        assert isinstance(actuators.attacks.attacks[0], DoSAttack)

    def test_normal_scenario_has_clean_channels(self):
        sensors, actuators = build_channels(normal_scenario(), 10.0)
        assert not sensors.compromised and not actuators.compromised
