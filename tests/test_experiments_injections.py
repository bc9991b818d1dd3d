"""Tests for the composable anomaly-injection DSL."""

import numpy as np
import pytest

from repro.common.exceptions import ConfigurationError
from repro.experiments.injections import (
    INJECTION_TYPES,
    BiasInjection,
    DisturbanceInjection,
    DoSInjection,
    DriftInjection,
    IntegrityInjection,
    ReplayInjection,
    StuckAtInjection,
    injection_from_mapping,
    injections_from_mappings,
)
from repro.network.attacks import (
    BiasAttack,
    DoSAttack,
    DriftAttack,
    IntegrityAttack,
    ReplayAttack,
)
from repro.network.channel import Channel


class TestValidation:
    def test_channel_must_be_sensor_or_actuator(self):
        with pytest.raises(ConfigurationError):
            IntegrityInjection("plant", 1, 0.0)

    def test_target_is_one_based(self):
        with pytest.raises(ConfigurationError):
            DoSInjection("actuator", 0)

    def test_disturbance_index_is_one_based(self):
        with pytest.raises(ConfigurationError):
            DisturbanceInjection(0)

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            DriftInjection("sensor", 1, 0.1, start_hour=-1.0)

    def test_end_before_start_rejected(self):
        with pytest.raises(ConfigurationError):
            BiasInjection("sensor", 1, 0.5, start_hour=5.0, end_hour=4.0)

    def test_replay_needs_positive_window(self):
        with pytest.raises(ConfigurationError):
            ReplayInjection("sensor", 1, record_hours=0.0)

    def test_types_are_canonicalized(self):
        injection = DriftInjection("sensor", 2, 1, start_hour=3)
        assert isinstance(injection.rate_per_hour, float)
        assert isinstance(injection.start_hour, float)
        assert isinstance(injection.target, int)

    def test_fractional_target_rejected(self):
        with pytest.raises(ConfigurationError):
            DoSInjection("actuator", 1.5)

    @pytest.mark.parametrize("index", [True, None, [6], "six", 6.5])
    def test_constructor_rejects_what_the_mapping_rejects(self, index):
        # ``int(True)`` is 1: a bare ``int()`` coercion would build IDV(1).
        with pytest.raises(ConfigurationError, match=r"injection\.index") as mapped:
            injection_from_mapping({"type": "disturbance", "index": index})
        with pytest.raises(ConfigurationError) as built:
            DisturbanceInjection(index)
        assert str(built.value) == str(mapped.value)

    @pytest.mark.parametrize("index", [6, 6.0, "6"])
    def test_constructor_accepts_what_the_mapping_accepts(self, index):
        mapped = injection_from_mapping({"type": "disturbance", "index": index})
        assert DisturbanceInjection(index) == mapped
        assert mapped.index == 6

    def test_optional_hours_stay_optional(self):
        injection = StuckAtInjection("sensor", 1, start_hour=None)
        assert injection.value is None and injection.start_hour is None
        with pytest.raises(ConfigurationError, match=r"injection\.start_hour"):
            StuckAtInjection("sensor", 1, start_hour="soon")


class TestOnsetAndScaling:
    def test_default_onset_defers_to_campaign(self):
        assert DoSInjection("actuator", 3).onset(10.0) == 10.0

    def test_explicit_onset_wins(self):
        assert DoSInjection("actuator", 3, start_hour=4.0).onset(10.0) == 4.0

    def test_disturbance_scaling(self):
        scaled = DisturbanceInjection(6, magnitude=1.0).scaled(0.5)
        assert scaled.magnitude == 0.5 and scaled.index == 6

    def test_drift_and_bias_scaling(self):
        assert DriftInjection("sensor", 1, 0.4).scaled(2.0).rate_per_hour == 0.8
        assert BiasInjection("sensor", 1, 0.5).scaled(2.0).offset == 1.0

    def test_unscalable_primitives_unchanged(self):
        injection = DoSInjection("actuator", 3)
        assert injection.scaled(3.0) == injection


class TestMappingRoundTrip:
    @pytest.mark.parametrize(
        "injection",
        [
            DisturbanceInjection(6),
            DisturbanceInjection(12, magnitude=0.5, start_hour=2.0, end_hour=8.0),
            IntegrityInjection("sensor", 1, 0.0),
            IntegrityInjection("actuator", 3, 2.5, start_hour=1.0),
            DoSInjection("actuator", 3),
            BiasInjection("sensor", 4, 0.5),
            DriftInjection("sensor", 7, 0.4, end_hour=9.0),
            StuckAtInjection("actuator", 3),
            StuckAtInjection("sensor", 2, value=1.0),
            ReplayInjection("sensor", 1, record_hours=2.0),
        ],
    )
    def test_round_trip(self, injection):
        mapping = injection.to_mapping()
        assert injection_from_mapping(mapping) == injection

    def test_none_fields_omitted(self):
        mapping = DoSInjection("actuator", 3).to_mapping()
        assert "start_hour" not in mapping and "end_hour" not in mapping

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown injection type"):
            injection_from_mapping({"type": "quantum"})

    def test_missing_type_rejected(self):
        with pytest.raises(ConfigurationError, match="'type'"):
            injection_from_mapping({"channel": "sensor"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            injection_from_mapping(
                {"type": "dos", "channel": "actuator", "target": 3, "rate": 1}
            )

    def test_every_registered_type_has_tag(self):
        assert set(INJECTION_TYPES) == {
            "disturbance", "integrity", "dos", "bias", "drift",
            "stuck_at", "replay",
        }

    def test_from_mappings_passes_through_instances(self):
        injection = DoSInjection("actuator", 3)
        assert injections_from_mappings([injection]) == (injection,)

    def test_from_mappings_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            injections_from_mappings(["dos"])


class TestAttackConstruction:
    def test_integrity(self):
        attack = IntegrityInjection("actuator", 3, 0.0).build_attack(10.0)
        assert isinstance(attack, IntegrityAttack)
        assert attack.target_index == 3 and attack.start_hour == 10.0

    def test_dos(self):
        attack = DoSInjection("actuator", 3, start_hour=2.0).build_attack(10.0)
        assert isinstance(attack, DoSAttack) and attack.start_hour == 2.0

    def test_bias(self):
        attack = BiasInjection("sensor", 4, 0.5).build_attack(1.0)
        assert isinstance(attack, BiasAttack)
        assert attack.tamper(2.0, 1.5) == 2.5

    def test_drift(self):
        attack = DriftInjection("sensor", 7, 0.4).build_attack(10.0)
        assert isinstance(attack, DriftAttack)
        assert attack.tamper(1.0, 12.0) == pytest.approx(1.0 + 0.4 * 2.0)

    def test_stuck_at_constant_uses_integrity(self):
        attack = StuckAtInjection("sensor", 2, value=1.0).build_attack(5.0)
        assert isinstance(attack, IntegrityAttack)
        assert attack.tamper(0.3, 6.0) == 1.0

    def test_stuck_at_hold_uses_dos(self):
        attack = StuckAtInjection("actuator", 3).build_attack(5.0)
        assert isinstance(attack, DoSAttack)

    def test_replay(self):
        attack = ReplayInjection("sensor", 1, record_hours=1.0).build_attack(5.0)
        assert isinstance(attack, ReplayAttack)
        assert attack.record_hours == 1.0


class TestNewAttackSemantics:
    def test_replay_loops_recording(self):
        attack = ReplayAttack(target_index=1, start_hour=2.0, record_hours=1.0)
        # Recording window is [1.0, 2.0).
        attack.observe(10.0, 0.5)   # too early, ignored
        attack.observe(1.0, 1.0)
        attack.observe(2.0, 1.5)
        assert attack.tamper(99.0, 2.0) == 1.0
        assert attack.tamper(99.0, 2.5) == 2.0
        assert attack.tamper(99.0, 3.0) == 1.0  # loops

    def test_replay_without_recording_freezes_first_value(self):
        attack = ReplayAttack(target_index=1, start_hour=0.5, record_hours=1.0)
        assert attack.tamper(7.0, 0.5) == 7.0
        assert attack.tamper(9.0, 1.0) == 7.0

    def test_replay_reset_clears_state(self):
        attack = ReplayAttack(target_index=1, start_hour=2.0)
        attack.observe(1.0, 1.5)
        attack.tamper(0.0, 2.0)
        attack.reset()
        assert attack._recording == [] and attack._cursor == 0

    def test_drift_window(self):
        attack = DriftAttack(1, start_hour=2.0, rate_per_hour=1.0, end_hour=4.0)
        assert not attack.is_active(4.0)
        assert attack.is_active(3.0)
        assert attack.tamper(0.0, 3.5) == 1.5

    def test_channel_applies_replay(self):
        from repro.network.attacks import AttackSchedule

        attack = ReplayAttack(target_index=2, start_hour=2.0, record_hours=1.0)
        channel = Channel("sensors", 3, AttackSchedule([attack]))
        channel.transmit(np.array([0.0, 5.0, 0.0]), 1.0)
        channel.transmit(np.array([0.0, 6.0, 0.0]), 1.5)
        delivered = channel.transmit(np.array([0.0, 42.0, 0.0]), 2.0)
        assert delivered[1] == 5.0
        delivered = channel.transmit(np.array([0.0, 43.0, 0.0]), 2.5)
        assert delivered[1] == 6.0
