"""Per-layer timing from outside the program.

The traced run wraps the public functions of each layer (plant step,
controller update, channel, safety, recording, scoring, diagnosis, ...) in
place, from the benchmark's own files: nothing under ``src/`` carries a
span or counter.  Every wrapped call is timed with ``perf_counter``; a
thread-local stack of open calls gives each layer its inclusive busy time
and, from nesting, the part of that time spent in other wrapped layers
(``self = inclusive - children``).

A layer may be wrapped at several functions (the serial and the batch
kernel both count as ``te.step``).  A call nested inside an open call of
the same layer is not counted again, so ``BatchChannel.transmit`` calling
``Channel.transmit`` per row is one ``network.transmit`` call.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = ["LayerTracer"]


class _Totals:
    """One thread's accumulators, keyed by layer name."""

    def __init__(self):
        self.seconds: Dict[str, float] = {}
        self.child_seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.rows: Dict[str, int] = {}
        self.outcomes: Dict[str, int] = {}
        self.nonzero: Dict[str, int] = {}
        self.top_cpu_seconds = 0.0  # thread CPU time of calls opened at depth 0
        self.stack: List[List[float]] = []  # [child seconds] per open call
        self.open: Dict[str, int] = {}


class LayerTracer:
    """Wraps layer entry points and accumulates busy time and counts."""

    def __init__(self):
        self._local = threading.local()
        self._all: List[_Totals] = []
        self._lock = threading.Lock()
        self._restore: List[tuple] = []
        #: ``Owner.attribute`` names that no longer exist in the program;
        #: their layers simply read lower (reported, never fatal).
        self.missing: List[str] = []

    def _totals(self) -> _Totals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = _Totals()
            self._local.totals = totals
            with self._lock:
                self._all.append(totals)
        return totals

    def wrap(
        self,
        owner,
        attribute: str,
        layer: str,
        rows: Optional[Callable] = None,
        outcome: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a timed wrapper counted as ``layer``.

        ``rows(*args, **kwargs)`` (arguments include ``self`` for methods)
        returns how many rows the call is handed; the layer's row count is
        the sum over its outermost calls.  ``outcome(result)`` maps a
        call's return value to a count (a cache hit, rows scored); the layer
        sums it and counts the calls where it was non-zero.
        """
        original = vars(owner).get(attribute)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        self._restore.append((owner, attribute, original))
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            totals = tracer._totals()
            if totals.open.get(layer):
                return original(*args, **kwargs)
            totals.open[layer] = 1
            if rows is not None:
                totals.rows[layer] = totals.rows.get(layer, 0) + int(
                    rows(*args, **kwargs)
                )
            outermost = not totals.stack
            if outermost:
                cpu_started = time.thread_time()
            frame = [0.0]
            totals.stack.append(frame)
            started = clock()
            try:
                result = original(*args, **kwargs)
                if outcome is not None:
                    produced = int(outcome(result))
                    totals.outcomes[layer] = totals.outcomes.get(layer, 0) + produced
                    if produced:
                        totals.nonzero[layer] = totals.nonzero.get(layer, 0) + 1
                return result
            finally:
                elapsed = clock() - started
                totals.stack.pop()
                totals.open[layer] = 0
                totals.seconds[layer] = totals.seconds.get(layer, 0.0) + elapsed
                totals.child_seconds[layer] = (
                    totals.child_seconds.get(layer, 0.0) + frame[0]
                )
                totals.calls[layer] = totals.calls.get(layer, 0) + 1
                if outermost:
                    totals.top_cpu_seconds += time.thread_time() - cpu_started
                else:
                    totals.stack[-1][0] += elapsed

        setattr(owner, attribute, timed)

    def unwrap(self) -> None:
        """Put every wrapped function back."""
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def reset(self) -> None:
        """Zero every accumulator (wrappers stay in place)."""
        with self._lock:
            for totals in self._all:
                totals.seconds.clear()
                totals.child_seconds.clear()
                totals.calls.clear()
                totals.rows.clear()
                totals.outcomes.clear()
                totals.nonzero.clear()
                totals.top_cpu_seconds = 0.0

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Merged totals across threads, ``{layer: {s, self_s, calls, rows,
        outcomes, nonzero}}``, plus ``{"": {"top_cpu_s": ...}}``: the thread
        CPU time of calls opened with no other wrapped call below them (CPU,
        not wall: waiting on a lock or an fsync inside a call is not work)."""
        merged: Dict[str, Dict[str, float]] = {}
        top_cpu = 0.0
        with self._lock:
            everything = list(self._all)
        for totals in everything:
            top_cpu += totals.top_cpu_seconds
            for layer, seconds in list(totals.seconds.items()):
                entry = merged.setdefault(
                    layer,
                    {
                        "s": 0.0, "self_s": 0.0, "calls": 0, "rows": 0,
                        "outcomes": 0, "nonzero": 0,
                    },
                )
                entry["s"] += seconds
                entry["self_s"] += seconds - totals.child_seconds.get(layer, 0.0)
                entry["calls"] += totals.calls.get(layer, 0)
                entry["rows"] += totals.rows.get(layer, 0)
                entry["outcomes"] += totals.outcomes.get(layer, 0)
                entry["nonzero"] += totals.nonzero.get(layer, 0)
        merged[""] = {"top_cpu_s": top_cpu}
        return merged


def _n_rows(self, *args, **kwargs) -> int:
    return int(self.n_rows)


def _data_rows(self, data, *args, **kwargs) -> int:
    values = getattr(data, "values", data)
    shape = getattr(values, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _one(*args, **kwargs) -> int:
    return 1


def install_scoring(tracer: LayerTracer) -> None:
    """Layers shared by campaigns and the gateway: MSPC, diagnosis, live."""
    from repro.anomaly.diagnosis import DualLevelAnalyzer
    from repro.live.monitor import LiveMonitor
    from repro.mspc.model import MSPCMonitor

    tracer.wrap(MSPCMonitor, "fit", "mspc.fit")
    tracer.wrap(MSPCMonitor, "statistics", "mspc.score", rows=_data_rows)
    tracer.wrap(MSPCMonitor, "monitor", "mspc.score", rows=_data_rows)
    tracer.wrap(DualLevelAnalyzer, "analyze", "anomaly.diagnose")
    tracer.wrap(DualLevelAnalyzer, "assemble", "anomaly.diagnose")
    tracer.wrap(LiveMonitor, "observe", "live.observe")
    tracer.wrap(LiveMonitor, "ingest_scored", "live.ingest")


def install_campaign(tracer: LayerTracer) -> None:
    """Wrap the plant, control, channel, process, batch, cache, analysis
    and response layers a campaign runs through."""
    import repro.response.runner as response_runner
    from repro.batch.simulator import BatchSimulator
    from repro.control.batch import BatchDecentralizedController
    from repro.control.te_controller import TEDecentralizedController
    from repro.experiments.analysis import ScenarioReducer
    from repro.experiments.parallel import ResultCache
    from repro.network.channel import BatchChannel, Channel
    from repro.process.disturbances import BatchDisturbanceView, DisturbanceSchedule
    from repro.process.recorder import SimulationRecorder
    from repro.process.safety import BatchSafetyMonitor, SafetyMonitor
    from repro.te.batch import BatchTEPlant
    from repro.te.plant import TEPlant

    install_scoring(tracer)
    tracer.wrap(TEPlant, "step", "te.step", rows=_one)
    tracer.wrap(BatchTEPlant, "step_batch", "te.step", rows=_n_rows)
    tracer.wrap(TEPlant, "measure", "te.measure")
    tracer.wrap(BatchTEPlant, "measure", "te.measure")
    tracer.wrap(TEDecentralizedController, "update", "control.update")
    tracer.wrap(BatchDecentralizedController, "update", "control.update")
    tracer.wrap(Channel, "transmit", "network.transmit")
    tracer.wrap(BatchChannel, "transmit", "network.transmit")
    tracer.wrap(SafetyMonitor, "check", "process.safety_check")
    tracer.wrap(BatchSafetyMonitor, "check", "process.safety_check")
    tracer.wrap(DisturbanceSchedule, "active_at", "process.disturbance")
    tracer.wrap(BatchDisturbanceView, "at", "process.disturbance")
    tracer.wrap(SimulationRecorder, "record", "process.record")
    tracer.wrap(
        BatchSimulator, "run_specs", "batch.run_specs",
        rows=lambda self, specs, *a, **k: len(specs),
    )
    tracer.wrap(ResultCache, "store", "cache.store")
    tracer.wrap(
        ResultCache, "load", "cache.load",
        outcome=lambda result: result is not None,
    )
    tracer.wrap(ScenarioReducer, "update", "analysis.reduce")
    tracer.wrap(response_runner.ResponseRunner, "on_sample", "response.on_sample")
    tracer.wrap(response_runner, "apply_action", "response.action")


def install_gateway(tracer: LayerTracer) -> None:
    """Wrap the gateway pool, journal and scoring layers a server runs."""
    from repro.common.journal import Journal
    from repro.gateway.pool import MonitorPool

    install_scoring(tracer)
    tracer.wrap(MonitorPool, "feed", "gateway.feed")
    tracer.wrap(MonitorPool, "flush", "gateway.flush", outcome=int)
    tracer.wrap(MonitorPool, "flush_stream", "gateway.flush", outcome=int)
    tracer.wrap(MonitorPool, "close_stream", "gateway.close")
    tracer.wrap(Journal, "append", "journal.append")


def layer_metrics(snapshot: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The per-layer metric values of one traced campaign call or gateway
    round (layers that did not run read 0)."""
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "rows": 0, "outcomes": 0, "nonzero": 0}

    def get(layer: str) -> Dict[str, float]:
        return snapshot.get(layer, empty)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {
        f"{layer}_s": get(layer)["s"]
        for layer in (
            "te.step", "te.measure", "control.update", "network.transmit",
            "process.safety_check", "process.disturbance", "process.record",
            "batch.run_specs", "cache.store", "cache.load", "mspc.fit",
            "mspc.score", "anomaly.diagnose", "analysis.reduce",
            "live.observe", "live.ingest", "response.on_sample",
            "gateway.feed", "gateway.flush", "gateway.close", "journal.append",
        )
    }
    metrics.update(
        {
            "te.step_calls": get("te.step")["calls"],
            "te.rows_per_step": ratio(get("te.step")["rows"], get("te.step")["calls"]),
            "control.update_calls": get("control.update")["calls"],
            "batch.self_s": get("batch.run_specs")["self_s"],
            "batch.rows_per_call": ratio(
                get("batch.run_specs")["rows"], get("batch.run_specs")["calls"]
            ),
            "cache.stores": get("cache.store")["calls"],
            "cache.hits": get("cache.load")["outcomes"],
            "mspc.rows_scored": get("mspc.score")["rows"],
            "anomaly.diagnoses": get("anomaly.diagnose")["calls"],
            "live.observe_calls": get("live.observe")["calls"],
            "response.actions": get("response.action")["calls"],
            "gateway.rows_per_flush": ratio(
                get("gateway.flush")["outcomes"], get("gateway.flush")["nonzero"]
            ),
            "journal.appends": get("journal.append")["calls"],
            # Measured outside the wrapped calls; the gateway run fills them.
            "gateway.server_self_s": 0.0,
            "wire.send_s": 0.0,
            "wire.sync_wait_s": 0.0,
        }
    )
    return metrics


#: Counts that depend only on the inputs: two traced runs of one seed must
#: agree on them exactly.
DETERMINISTIC_COUNTS = (
    "te.step_calls", "te.rows_per_step", "control.update_calls",
    "live.observe_calls", "mspc.rows_scored", "cache.stores",
    "response.actions", "journal.appends",
)
