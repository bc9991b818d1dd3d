"""Tests for safety interlocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exceptions import ConfigurationError, ProcessShutdown
from repro.process.safety import BatchSafetyMonitor, SafetyLimit, SafetyMonitor


class TestSafetyLimit:
    def test_low_violation(self):
        limit = SafetyLimit("level", low=5.0)
        assert limit.violated_by(4.0)
        assert not limit.violated_by(5.0)

    def test_high_violation(self):
        limit = SafetyLimit("pressure", high=3000.0)
        assert limit.violated_by(3001.0)
        assert not limit.violated_by(2999.0)

    def test_needs_some_threshold(self):
        with pytest.raises(ConfigurationError):
            SafetyLimit("x")

    def test_low_must_be_below_high(self):
        with pytest.raises(ConfigurationError):
            SafetyLimit("x", low=10.0, high=1.0)


class TestSafetyMonitor:
    def test_trips_immediately_without_grace(self):
        monitor = SafetyMonitor([SafetyLimit("pressure", high=3000.0)])
        with pytest.raises(ProcessShutdown) as excinfo:
            monitor.check(1.0, {"pressure": 3100.0})
        assert excinfo.value.time_hours == 1.0
        assert monitor.tripped is not None

    def test_grace_period_delays_trip(self):
        monitor = SafetyMonitor([SafetyLimit("level", low=5.0, grace_hours=0.5)])
        monitor.check(1.0, {"level": 3.0})
        monitor.check(1.3, {"level": 3.0})
        with pytest.raises(ProcessShutdown):
            monitor.check(1.6, {"level": 3.0})

    def test_grace_period_resets_when_back_in_range(self):
        monitor = SafetyMonitor([SafetyLimit("level", low=5.0, grace_hours=0.5)])
        monitor.check(1.0, {"level": 3.0})
        monitor.check(1.2, {"level": 6.0})
        monitor.check(1.4, {"level": 3.0})
        # Only 0.2 h of continuous violation — should not trip yet.
        monitor.check(1.6, {"level": 3.0})

    def test_trips_exactly_at_grace_expiry(self):
        # The grace comparison is inclusive (>=): a violation standing
        # since t=1.0 with a 0.5 h grace trips at t=1.5 sharp, not one
        # sample later.
        monitor = SafetyMonitor([SafetyLimit("level", low=5.0, grace_hours=0.5)])
        monitor.check(1.0, {"level": 3.0})
        monitor.check(1.49, {"level": 3.0})
        with pytest.raises(ProcessShutdown) as excinfo:
            monitor.check(1.5, {"level": 3.0})
        assert excinfo.value.time_hours == 1.5

    def test_zero_grace_trips_at_the_first_violating_sample(self):
        monitor = SafetyMonitor([SafetyLimit("level", low=5.0, grace_hours=0.0)])
        with pytest.raises(ProcessShutdown) as excinfo:
            monitor.check(2.0, {"level": 3.0})
        assert excinfo.value.time_hours == 2.0

    def test_first_limit_wins_when_several_trip_together(self):
        # Limits are evaluated in list order; when one sample violates
        # several at once, the first one's reason is raised (the ordering
        # the batch monitor mirrors row-wise).
        monitor = SafetyMonitor(
            [
                SafetyLimit("pressure", high=100.0, description="pressure first"),
                SafetyLimit("level", low=5.0, description="level second"),
            ]
        )
        with pytest.raises(ProcessShutdown) as excinfo:
            monitor.check(1.0, {"pressure": 500.0, "level": 1.0})
        assert excinfo.value.reason == "pressure first"
        monitor = SafetyMonitor(
            [
                SafetyLimit("level", low=5.0, description="level first"),
                SafetyLimit("pressure", high=100.0, description="pressure second"),
            ]
        )
        with pytest.raises(ProcessShutdown) as excinfo:
            monitor.check(1.0, {"pressure": 500.0, "level": 1.0})
        assert excinfo.value.reason == "level first"

    def test_disabled_monitor_records_but_does_not_raise(self):
        monitor = SafetyMonitor([SafetyLimit("pressure", high=10.0)], enabled=False)
        monitor.check(2.0, {"pressure": 100.0})
        assert monitor.tripped is not None
        assert monitor.tripped[0] == 2.0

    def test_missing_quantity_is_ignored(self):
        monitor = SafetyMonitor([SafetyLimit("pressure", high=10.0)])
        monitor.check(1.0, {"level": 50.0})
        assert monitor.tripped is None

    def test_reset_clears_state(self):
        monitor = SafetyMonitor([SafetyLimit("pressure", high=10.0)], enabled=False)
        monitor.check(1.0, {"pressure": 100.0})
        monitor.reset()
        assert monitor.tripped is None


class TestBatchSafetyMonitor:
    """Row-wise monitor must mirror the serial one, limit set for limit set."""

    def _limits(self):
        return [
            SafetyLimit("pressure", high=100.0, grace_hours=0.1),
            SafetyLimit("level", low=4.0, description="level too low"),
        ]

    def test_rows_trip_independently_with_serial_reasons(self):
        import numpy as np

        from repro.process.safety import BatchSafetyMonitor

        monitor = BatchSafetyMonitor(self._limits(), n_rows=3)
        quantities = {
            "pressure": np.array([50.0, 150.0, 50.0]),
            "level": np.array([10.0, 10.0, 1.0]),
        }
        tripped, reasons = monitor.check(1.0, quantities)
        # Pressure has a grace window; the level limit trips immediately.
        assert tripped.tolist() == [False, False, True]
        assert reasons[2] == "level too low"
        tripped, reasons = monitor.check(1.2, quantities)
        assert tripped.tolist() == [False, True, True]
        assert "pressure" in reasons[1]

    def test_duplicate_quantity_limits_share_start_like_serial(self):
        # The serial monitor keys violation starts by *quantity*, so a
        # second limit on the same quantity clears the shared key whenever
        # it is not violated — and the first limit's grace window can never
        # elapse.  The batch monitor must reproduce exactly that.
        import numpy as np

        from repro.process.safety import BatchSafetyMonitor

        limits = [
            SafetyLimit("pressure", high=90.0, grace_hours=0.05),
            SafetyLimit("pressure", low=0.0),
        ]
        serial = SafetyMonitor(limits)
        batch = BatchSafetyMonitor(limits, n_rows=1)
        time = 0.0
        for _ in range(30):
            time += 0.01
            serial.check(time, {"pressure": 95.0})  # must never raise
            tripped, _ = batch.check(time, {"pressure": np.array([95.0])})
            assert not tripped.any()

    def test_disabled_monitor_never_trips(self):
        import numpy as np

        from repro.process.safety import BatchSafetyMonitor

        monitor = BatchSafetyMonitor(self._limits(), n_rows=2, enabled=False)
        tripped, reasons = monitor.check(1.0, {"pressure": np.array([500.0, 500.0])})
        assert not tripped.any()
        assert reasons == [None, None]

    def test_take_compacts_rows(self):
        import numpy as np

        from repro.process.safety import BatchSafetyMonitor

        monitor = BatchSafetyMonitor(self._limits(), n_rows=3)
        monitor.check(1.0, {"pressure": np.array([150.0, 50.0, 150.0])})
        monitor.take(np.array([1, 2]))
        tripped, _ = monitor.check(1.2, {"pressure": np.array([50.0, 150.0])})
        # Row 0 (old row 1) never violated; row 1 (old row 2) finishes its
        # grace window started at t=1.0.
        assert tripped.tolist() == [False, True]


    def test_stacked_rows_match_the_mapping(self):
        # The simulator hands its (n, B) quantity stack over in the layout
        # order; the trips, reasons and pending starts match the mapping.
        layout = ("level", "unused", "pressure")
        stack_monitor = BatchSafetyMonitor(self._limits(), n_rows=3, layout=layout)
        mapping_monitor = BatchSafetyMonitor(self._limits(), n_rows=3)
        rng = np.random.default_rng(3)
        for step in range(40):
            stack = np.stack(
                [rng.choice([1.0, 10.0], 3), np.zeros(3), rng.choice([50.0, 150.0], 3)]
            )
            mapping = {"level": stack[0], "pressure": stack[2]}
            tripped, reasons = stack_monitor.check(0.05 * step, stack)
            expected, expected_reasons = mapping_monitor.check(0.05 * step, mapping)
            assert tripped.tolist() == expected.tolist()
            assert reasons == expected_reasons
            assert stack_monitor.any_tripped == bool(tripped.any())
            np.testing.assert_array_equal(stack_monitor._start, mapping_monitor._start)

    def test_layout_must_hold_every_limit(self):
        with pytest.raises(ConfigurationError):
            BatchSafetyMonitor(self._limits(), n_rows=1, layout=("pressure",))

    def test_restored_row_keeps_its_pending_start(self):
        source = BatchSafetyMonitor(self._limits(), n_rows=1)
        source.check(1.0, {"pressure": np.array([150.0])})
        monitor = BatchSafetyMonitor(self._limits(), n_rows=2)
        monitor.restore_row(1, source.snapshot_row(0))
        tripped, _ = monitor.check(1.1, {"pressure": np.array([150.0, 150.0])})
        # Row 1's violation started at t=1.0: its grace window is over.
        assert tripped.tolist() == [False, True]


class TestBatchSafetyMonitorMatchesSerial:
    """Property: the stacked comparison trips the rows, at the steps and for
    the reasons, that one serial monitor per row would — including limits
    sharing a quantity and quantities missing from some calls."""

    QUANTITIES = ("pressure", "level")

    @staticmethod
    def limit_sets():
        bounds = st.sampled_from(
            [(None, 5.0), (2.0, None), (2.0, 8.0), (5.0, 8.0), (None, 2.0)]
        )
        limit = st.builds(
            lambda quantity, low_high, grace, described: SafetyLimit(
                quantity,
                low=low_high[0],
                high=low_high[1],
                grace_hours=grace,
                description="limit tripped" if described else "",
            ),
            st.sampled_from(TestBatchSafetyMonitorMatchesSerial.QUANTITIES),
            bounds,
            st.sampled_from([0.0, 0.02, 0.05]),
            st.booleans(),
        )
        return st.lists(limit, min_size=1, max_size=4)

    def test_matches_one_serial_monitor_per_row(self):
        steps = st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from([0.0, 3.0, 6.0, 10.0, np.nan]), min_size=3, max_size=3
                ),
                st.lists(st.sampled_from([0.0, 3.0, 6.0, 10.0]), min_size=3, max_size=3),
                st.sets(st.sampled_from(self.QUANTITIES)),
            ),
            min_size=1,
            max_size=12,
        )

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(limits=self.limit_sets(), steps=steps, enabled=st.booleans())
        def check(limits, steps, enabled):
            serial = [SafetyMonitor(limits, enabled=enabled) for _ in range(3)]
            batch = BatchSafetyMonitor(limits, n_rows=3, enabled=enabled)
            alive = [0, 1, 2]
            for step, (pressure, level, present) in enumerate(steps):
                time = 0.01 * (step + 1)
                columns = {"pressure": pressure, "level": level}
                expected = []
                for row in alive:
                    reason = None
                    try:
                        serial[row].check(time, {q: columns[q][row] for q in present})
                    except ProcessShutdown as shutdown:
                        reason = shutdown.reason
                    expected.append(reason)
                tripped, reasons = batch.check(
                    time, {q: np.array(columns[q])[alive] for q in present}
                )
                assert reasons == expected
                assert tripped.tolist() == [r is not None for r in expected]
                keep = np.flatnonzero(~tripped)
                batch.take(keep)
                alive = [alive[i] for i in keep]
                if not alive:
                    break

        check()
