"""Tests for the scenario registry and legacy/DSL scenario equivalence."""

import pytest

from repro.common.exceptions import ConfigurationError
from repro.experiments.injections import (
    DisturbanceInjection,
    DoSInjection,
    DriftInjection,
    IntegrityInjection,
)
from repro.experiments.registry import (
    REGISTRY,
    ScenarioRegistry,
    get_scenario,
    register_scenario,
    resolve_scenario,
    scenario_names,
    scenario_title,
)
from repro.experiments.scenarios import (
    Scenario,
    ScenarioKind,
    disturbance_idv6_scenario,
    dos_attack_on_xmv3_scenario,
    integrity_attack_on_xmeas1_scenario,
    integrity_attack_on_xmv3_scenario,
    normal_scenario,
    paper_scenarios,
)


class TestBuiltins:
    def test_paper_scenarios_registered(self):
        for name in ("normal", "idv6", "attack_xmv3", "attack_xmeas1", "dos_xmv3"):
            assert name in REGISTRY

    def test_get_returns_fresh_equal_scenarios(self):
        assert get_scenario("idv6") == disturbance_idv6_scenario()
        assert get_scenario("normal") == normal_scenario()

    def test_titles(self):
        assert scenario_title("idv6") == disturbance_idv6_scenario().title
        assert scenario_title("not_registered") == "not_registered"

    def test_names_order(self):
        names = scenario_names()
        assert names[:5] == (
            "normal", "idv6", "attack_xmv3", "attack_xmeas1", "dos_xmv3",
        )


class TestRegistration:
    def test_register_and_unregister(self):
        registry = ScenarioRegistry()

        def factory():
            return Scenario(
                name="custom", injections=(DriftInjection("sensor", 2, 0.1),)
            )

        registry.register(factory)
        assert "custom" in registry and registry.get("custom").name == "custom"
        registry.unregister("custom")
        assert "custom" not in registry

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        factory = disturbance_idv6_scenario
        registry.register(factory)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(factory)
        registry.register(factory, overwrite=True)

    def test_decorator_form(self):
        name = "decorated_scenario_for_test"
        try:

            @register_scenario
            def factory():
                return Scenario(
                    name=name, injections=(DoSInjection("sensor", 5),)
                )

            assert get_scenario(name).is_attack
        finally:
            REGISTRY.unregister(name)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("no_such_scenario")

    def test_factory_must_return_scenario(self):
        registry = ScenarioRegistry()
        registry.register(lambda: "nope", name="bad")
        with pytest.raises(ConfigurationError, match="expected Scenario"):
            registry.get("bad")


class TestResolve:
    def test_resolve_name(self):
        assert resolve_scenario("dos_xmv3") == dos_attack_on_xmv3_scenario()

    def test_resolve_scenario_instance(self):
        scenario = normal_scenario()
        assert resolve_scenario(scenario) is scenario

    def test_resolve_use_reference(self):
        assert resolve_scenario({"use": "idv6"}) == disturbance_idv6_scenario()

    def test_use_reference_rejects_extra_keys(self):
        with pytest.raises(ConfigurationError, match="no other keys"):
            resolve_scenario({"use": "idv6", "title": "x"})

    def test_resolve_inline_mapping(self):
        scenario = resolve_scenario(
            {
                "name": "stuck",
                "injections": [
                    {"type": "stuck_at", "channel": "actuator", "target": 4}
                ],
            }
        )
        assert scenario.is_attack and scenario.kind is ScenarioKind.COMPOSITE

    def test_resolve_junk(self):
        with pytest.raises(ConfigurationError):
            resolve_scenario(42)


class TestScenarioComposition:
    def test_factories_carry_injections(self):
        assert disturbance_idv6_scenario().injections == (DisturbanceInjection(6),)
        assert integrity_attack_on_xmv3_scenario().injections == (
            IntegrityInjection("actuator", 3, 0.0),
        )
        assert integrity_attack_on_xmeas1_scenario().injections == (
            IntegrityInjection("sensor", 1, 0.0),
        )
        assert dos_attack_on_xmv3_scenario().injections == (
            DoSInjection("actuator", 3),
        )
        assert normal_scenario().injections == ()

    def test_legacy_view_derived(self):
        scenario = disturbance_idv6_scenario()
        assert scenario.kind is ScenarioKind.DISTURBANCE
        assert scenario.disturbance_index == 6
        sensor = integrity_attack_on_xmeas1_scenario()
        assert sensor.kind is ScenarioKind.INTEGRITY_SENSOR
        assert sensor.target_xmeas == 1 and sensor.injected_value == 0.0

    def test_composite_kind(self):
        scenario = Scenario(
            name="combo",
            injections=(
                DisturbanceInjection(6),
                IntegrityInjection("actuator", 3, 0.0),
            ),
        )
        assert scenario.kind is ScenarioKind.COMPOSITE
        assert scenario.is_attack and scenario.is_anomalous
        assert scenario.expected_ground_truth == "attack"

    def test_ground_truth_derivation(self):
        assert Scenario(name="n").expected_ground_truth == "normal"
        assert (
            Scenario(name="d", injections=(DisturbanceInjection(3),))
            .expected_ground_truth
            == "disturbance"
        )

    def test_invalid_ground_truth_rejected(self):
        with pytest.raises(ConfigurationError, match="expected_ground_truth"):
            Scenario(name="x", expected_ground_truth="intrusion")

    def test_scaled_renames_and_scales(self):
        scaled = disturbance_idv6_scenario().scaled(0.5)
        assert scaled.name == "idv6@x0.5"
        assert scaled.injections[0].magnitude == 0.5
        assert scaled.expected_ground_truth == "disturbance"

    def test_mapping_round_trip_for_all_builtins(self):
        for scenario in (normal_scenario(), *paper_scenarios()):
            assert Scenario.from_mapping(scenario.to_mapping()) == scenario

    def test_mapping_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            Scenario.from_mapping({"name": "x", "kind": "normal"})
