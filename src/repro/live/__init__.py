"""``repro.live`` — online co-simulation monitoring.

Everything in this repository up to this subsystem simulates a full run,
caches it and scores it post-hoc.  ``repro.live`` couples the simulator and
the detector **sample by sample** instead, the way the paper's monitor runs
next to the historian:

* :class:`~repro.live.monitor.LiveMonitor` — incremental dual-view T²/SPE
  scoring with an alarm state machine
  (:class:`~repro.live.alarms.AlarmManager`), on-alarm oMEDA snapshots and
  latency / time-to-diagnosis metrics.  With early stopping disabled its
  scores and detections are bitwise-identical to the batch
  :meth:`~repro.mspc.model.MSPCMonitor.monitor` path.
* :class:`~repro.live.observer.LiveRunObserver` — the
  :class:`~repro.process.interfaces.StepObserver` bridge feeding a
  simulating run into a live monitor.
* :class:`~repro.common.config.EarlyStopPolicy` /
  :func:`~repro.live.campaign.live_scenario_specs` — terminate runs a grace
  window after a confirmed detection, wired through
  :class:`~repro.experiments.parallel.RunSpec` cache keys so truncated and
  full results never mix.
* :func:`~repro.live.dashboard.render_live_dashboard` — an ASCII dashboard
  of charts, alarms and diagnoses (``scripts/run_live.py``).

Spec-driven entry points live in :mod:`repro.api` (the ``[live]`` section
and :meth:`~repro.api.session.Session.run_live`).
"""

from repro.common.config import EarlyStopPolicy, LiveConfig
from repro.common.lazy import lazy_exports
from repro.live.alarms import AlarmEvent, AlarmManager, AlarmState

__all__ = [
    "AlarmEvent",
    "AlarmManager",
    "AlarmState",
    "EarlyStopPolicy",
    "LiveConfig",
    "LiveMonitor",
    "LiveRunReport",
    "LiveViewMonitor",
    "LiveRunObserver",
    "live_context_token",
    "live_scenario_specs",
    "render_live_dashboard",
]


# A spec reads only the alarm records, so ``import repro.api`` leaves the
# monitor, observer, campaign and dashboard layers (and the dashboard's
# plotting) unloaded until one of their names is read.
__getattr__ = lazy_exports(
    __name__,
    {
        "LiveMonitor": "repro.live.monitor",
        "LiveRunReport": "repro.live.monitor",
        "LiveViewMonitor": "repro.live.monitor",
        "LiveRunObserver": "repro.live.observer",
        "live_context_token": "repro.live.campaign",
        "live_scenario_specs": "repro.live.campaign",
        "render_live_dashboard": "repro.live.dashboard",
    },
)
