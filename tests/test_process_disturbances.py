"""Tests for disturbance specification and scheduling."""

import numpy as np
import pytest

from repro.common.exceptions import ConfigurationError
from repro.process.disturbances import (
    BatchDisturbanceView,
    DisturbanceSchedule,
    DisturbanceSpec,
)


class TestDisturbanceSpec:
    def test_valid_spec(self):
        spec = DisturbanceSpec(6, "IDV(6)", "A feed loss", "step")
        assert spec.index == 6

    def test_invalid_index(self):
        with pytest.raises(ConfigurationError):
            DisturbanceSpec(0, "IDV(0)", "bad")

    def test_invalid_kind(self):
        with pytest.raises(ConfigurationError):
            DisturbanceSpec(1, "IDV(1)", "x", kind="banana")


class TestDisturbanceSchedule:
    def test_empty_schedule(self):
        schedule = DisturbanceSchedule.none()
        assert schedule.is_empty()
        assert schedule.active_at(5.0) == {}
        assert schedule.vector_at(5.0) == [0.0] * 20

    def test_single_activation_window(self):
        schedule = DisturbanceSchedule.single(6, 10.0)
        assert schedule.active_at(9.99) == {}
        assert schedule.active_at(10.0) == {6: 1.0}
        assert schedule.active_at(100.0) == {6: 1.0}

    def test_finite_window(self):
        schedule = DisturbanceSchedule.single(3, 2.0, end_hour=4.0)
        assert schedule.active_at(3.0) == {3: 1.0}
        assert schedule.active_at(4.0) == {}

    def test_vector_layout(self):
        schedule = DisturbanceSchedule.single(2, 0.0, magnitude=0.5)
        vector = schedule.vector_at(1.0)
        assert vector[1] == 0.5
        assert sum(vector) == 0.5

    def test_multiple_disturbances(self):
        schedule = DisturbanceSchedule().add(1, 0.0).add(4, 5.0)
        assert set(schedule.active_at(6.0)) == {1, 4}

    def test_overlapping_same_index_takes_max_magnitude(self):
        schedule = DisturbanceSchedule().add(1, 0.0, magnitude=0.3).add(1, 0.0, magnitude=0.9)
        assert schedule.active_at(1.0) == {1: 0.9}

    def test_invalid_index_rejected(self):
        with pytest.raises(ConfigurationError):
            DisturbanceSchedule().add(21, 0.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            DisturbanceSchedule().add(1, 5.0, end_hour=5.0)
        with pytest.raises(ConfigurationError):
            DisturbanceSchedule().add(1, -1.0)


class TestBatchDisturbanceView:
    """``at`` re-evaluates only when the clock crosses a window edge; what it
    returns must still equal a fresh evaluation at every step."""

    @staticmethod
    def schedules():
        return [
            # Two overlapping windows of one index, then a persistent one.
            DisturbanceSchedule()
            .add(1, 1.0, end_hour=2.0, magnitude=0.5)
            .add(1, 1.5, end_hour=3.0, magnitude=0.9)
            .add(4, 2.0),
            DisturbanceSchedule.single(6, 0.5, end_hour=1.5),
            DisturbanceSchedule.none(),
            DisturbanceSchedule.single(13, 2.5, end_hour=2.75, magnitude=0.3),
        ]

    @staticmethod
    def assert_equal(actual, expected):
        assert actual.n_rows == expected.n_rows
        for index in range(1, 21):
            assert actual.may_be_active(index) == expected.may_be_active(index)
            assert np.array_equal(actual.value(index), expected.value(index))

    def test_every_step_equals_a_fresh_evaluation(self):
        schedules = self.schedules()
        view = BatchDisturbanceView(schedules)
        kept = list(range(len(schedules)))
        # Quarter-hour steps land exactly on every window start and end.
        for step in range(17):
            time = 0.25 * step
            if step == 7:  # inside the overlap, before the first window ends
                view.take(np.array([0, 1, 3]))
                kept = [0, 1, 3]
            idv = view.at(time)
            rows = [schedules[row] for row in kept]
            self.assert_equal(idv, BatchDisturbanceView(rows).at(time))
            for local, schedule in enumerate(rows):
                vector = schedule.vector_at(time)
                for index in range(1, 21):
                    assert idv.value(index)[local] == vector[index - 1]

    def test_window_start_is_inclusive_and_end_exclusive(self):
        view = BatchDisturbanceView(self.schedules())
        assert view.at(0.99).value(1)[0] == 0.0
        assert view.at(1.0).value(1)[0] == 0.5
        assert view.at(1.5).value(1)[0] == 0.9  # the overlap takes the max
        assert view.at(2.0).value(1)[0] == 0.9  # the first window has ended
        assert view.at(3.0).value(1)[0] == 0.0
        assert view.at(2.0).value(4)[0] == 1.0

    def test_between_edges_the_result_is_reused(self):
        view = BatchDisturbanceView(self.schedules())
        assert view.at(0.0) is view.at(0.25)  # all quiet
        assert view.at(1.0) is view.at(1.25)
        assert view.at(1.5) is not view.at(1.25)
        quiet = BatchDisturbanceView([DisturbanceSchedule.none()] * 2)
        assert quiet.at(0.0) is quiet.at(100.0)
        quiet.take(np.array([1]))
        assert quiet.at(0.0).n_rows == 1
