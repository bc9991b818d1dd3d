"""Tests for the communication channel."""

import numpy as np
import pytest

from repro.common.exceptions import ConfigurationError
from repro.network.attacks import AttackSchedule, DoSAttack, IntegrityAttack
from repro.network.channel import BatchChannel, Channel


class TestBenignChannel:
    def test_passthrough(self):
        channel = Channel("sensors", 3)
        values = np.array([1.0, 2.0, 3.0])
        delivered = channel.transmit(values, 0.0)
        np.testing.assert_allclose(delivered, values)
        assert not channel.compromised

    def test_does_not_mutate_input(self):
        channel = Channel("actuators", 2, AttackSchedule([IntegrityAttack(1, 0.0, 0.0)]))
        values = np.array([5.0, 6.0])
        channel.transmit(values, 1.0)
        np.testing.assert_allclose(values, [5.0, 6.0])

    def test_counts_transmissions(self):
        channel = Channel("sensors", 2)
        channel.transmit(np.zeros(2), 0.0)
        channel.transmit(np.zeros(2), 1.0)
        assert channel.n_transmissions == 2
        channel.reset()
        assert channel.n_transmissions == 0

    def test_wrong_length_rejected(self):
        channel = Channel("sensors", 2)
        with pytest.raises(ConfigurationError):
            channel.transmit(np.zeros(3), 0.0)

    def test_invalid_entry_count(self):
        with pytest.raises(ConfigurationError):
            Channel("sensors", 0)


class TestCompromisedChannel:
    def test_integrity_attack_only_inside_window(self):
        attack = IntegrityAttack(2, start_hour=1.0, injected=0.0, end_hour=2.0)
        channel = Channel("actuators", 3, AttackSchedule([attack]))
        before = channel.transmit(np.array([1.0, 5.0, 3.0]), 0.5)
        during = channel.transmit(np.array([1.0, 5.0, 3.0]), 1.5)
        after = channel.transmit(np.array([1.0, 5.0, 3.0]), 2.5)
        assert before[1] == 5.0
        assert during[1] == 0.0
        assert after[1] == 5.0

    def test_untargeted_entries_untouched(self):
        attack = IntegrityAttack(1, 0.0, injected=99.0)
        channel = Channel("sensors", 3, AttackSchedule([attack]))
        delivered = channel.transmit(np.array([1.0, 2.0, 3.0]), 0.0)
        np.testing.assert_allclose(delivered, [99.0, 2.0, 3.0])

    def test_dos_attack_freezes_last_transmitted_value(self):
        attack = DoSAttack(1, start_hour=2.0)
        channel = Channel("actuators", 1, AttackSchedule([attack]))
        channel.transmit(np.array([10.0]), 0.0)
        channel.transmit(np.array([20.0]), 1.0)
        frozen = channel.transmit(np.array([30.0]), 2.0)
        later = channel.transmit(np.array([40.0]), 3.0)
        assert frozen[0] == 20.0
        assert later[0] == 20.0

    def test_reset_restores_dos_state(self):
        attack = DoSAttack(1, start_hour=1.0)
        channel = Channel("actuators", 1, AttackSchedule([attack]))
        channel.transmit(np.array([10.0]), 0.0)
        channel.transmit(np.array([30.0]), 1.5)
        channel.reset()
        channel.transmit(np.array([50.0]), 0.0)
        frozen = channel.transmit(np.array([60.0]), 1.5)
        assert frozen[0] == 50.0

    def test_attack_target_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            Channel("sensors", 2, AttackSchedule([IntegrityAttack(3, 0.0, 0.0)]))

    def test_add_attack_validates(self):
        channel = Channel("sensors", 2)
        with pytest.raises(ConfigurationError):
            channel.add_attack(IntegrityAttack(5, 0.0, 0.0))
        channel.add_attack(IntegrityAttack(2, 0.0, 0.0))
        assert channel.compromised


class TestBatchChannel:
    def test_attack_free_batch_delivers_its_input(self):
        batch = BatchChannel([Channel("sensors", 3), Channel("sensors", 3)])
        values = np.arange(6.0).reshape(2, 3)
        delivered = batch.transmit(values, 0.0)
        assert delivered is values
        np.testing.assert_array_equal(values, np.arange(6.0).reshape(2, 3))

    def test_attacked_batch_never_writes_the_callers_matrix(self):
        attack = IntegrityAttack(2, 0.0, injected=99.0)
        batch = BatchChannel(
            [Channel("sensors", 3), Channel("sensors", 3, AttackSchedule([attack]))]
        )
        values = np.arange(6.0).reshape(2, 3)
        delivered = batch.transmit(values, 1.0)
        np.testing.assert_array_equal(values, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(delivered, [[0.0, 1.0, 2.0], [3.0, 99.0, 5.0]])

    def test_row_compromised_mid_run_stops_the_pass_through(self):
        batch = BatchChannel([Channel("actuators", 2), Channel("actuators", 2)])
        values = np.ones((2, 2))
        assert batch.transmit(values, 0.0) is values
        batch.channel(0).add_attack(IntegrityAttack(1, 0.0, injected=-1.0))
        delivered = batch.transmit(values, 1.0)
        np.testing.assert_array_equal(values, np.ones((2, 2)))
        np.testing.assert_array_equal(delivered, [[-1.0, 1.0], [1.0, 1.0]])
