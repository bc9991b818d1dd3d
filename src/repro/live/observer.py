"""The step-tap bridge: feed a simulating run into a :class:`LiveMonitor`.

:class:`LiveRunObserver` implements the
:class:`~repro.process.interfaces.StepObserver` protocol: attached to a
:meth:`~repro.process.simulator.ClosedLoopSimulator.run` call, it forwards
every recorded sample's network-channel observations (both data views, after
the attack/injection stack) to the live monitor, and relays the monitor's
early-stop decision back to the simulator.  A simulator that scores many
runs' samples in one call hands the precomputed statistics to
:meth:`LiveRunObserver.on_scored_sample` instead.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.common.exceptions import DataShapeError
from repro.live.monitor import LiveMonitor, LiveRunReport
from repro.process.interfaces import StepObserver, StepSample

__all__ = ["LiveRunObserver"]


class LiveRunObserver(StepObserver):
    """Couples one :class:`LiveMonitor` to one simulating run."""

    def __init__(self, monitor: LiveMonitor):
        self.monitor = monitor
        self._stop_reason: Optional[str] = None

    # ------------------------------------------------------------------
    def on_run_start(
        self,
        variable_names: Sequence[str],
        config,
        metadata: Dict[str, object],
    ) -> None:
        """Check the run's variables match the calibrated models'."""
        expected = self.monitor.analyzer.controller_monitor.variable_names
        if tuple(variable_names) != tuple(expected):
            raise DataShapeError(
                "the run's variables do not match the live monitor's "
                "calibration variables"
            )

    def on_sample(self, sample: StepSample) -> bool:
        """Feed one sample; request a stop when the policy allows one."""
        self.monitor.observe(
            sample.controller_values, sample.process_values, sample.time_hours
        )
        return self._should_stop(sample)

    def on_scored_sample(
        self,
        sample: StepSample,
        controller_stats: Tuple[float, float],
        process_stats: Tuple[float, float],
    ) -> bool:
        """:meth:`on_sample` for a sample whose ``(t2, spe)`` pair per view
        was already computed (bitwise-equal, see
        :meth:`LiveMonitor.ingest_scored`)."""
        self.monitor.ingest_scored(
            sample.controller_values,
            sample.process_values,
            sample.time_hours,
            controller_stats,
            process_stats,
        )
        return self._should_stop(sample)

    def _should_stop(self, sample: StepSample) -> bool:
        if self.monitor.should_stop():
            self.monitor.mark_stopped(sample.index, sample.time_hours)
            self._stop_reason = (
                "live monitor confirmed detection at sample "
                f"{self.monitor.detection_index} "
                f"(t = {self.monitor.detection_time_hours:.3f} h); "
                f"stopped after the {self.monitor.policy.grace_samples}-sample "
                "grace window"
            )
            return True
        return False

    @property
    def stop_reason(self) -> Optional[str]:
        """Why the observer stopped the run (``None`` if it did not)."""
        return self._stop_reason

    def report(self) -> LiveRunReport:
        """The monitor's run report."""
        return self.monitor.report()
