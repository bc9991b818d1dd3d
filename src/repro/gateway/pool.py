"""The multi-tenant monitor pool: per-stream state, cross-stream scoring.

:class:`MonitorPool` is the heart of the gateway.  Every open stream owns a
private :class:`~repro.live.monitor.LiveMonitor` (alarm machines, detection
bookkeeping, on-alarm snapshots) plus a bounded buffer of unscored samples;
all streams share one calibrated
:class:`~repro.anomaly.diagnosis.DualLevelAnalyzer`.  A flush drains the
buffers and packs the due samples of *all* streams into ``(B, M)`` matrices,
calling each view's :meth:`~repro.mspc.model.MSPCMonitor.statistics` once
per batch instead of once per sample — cross-stream vectorization at the
serving layer.

The equivalence anchor: because the PCA projection is shape-stable (see
:meth:`repro.mspc.pca.PCAModel.transform`), row ``i`` of a batched
``statistics`` call is bitwise-identical to scoring that row alone, and the
scattered results drive :meth:`LiveMonitor.ingest_scored` — the same state
machines :meth:`LiveMonitor.observe` drives.  A stream fed through the pool
therefore produces scores, alarm events and reports bitwise-identical to an
in-process :class:`LiveMonitor` over the same samples.
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.anomaly.diagnosis import DualLevelAnalyzer
from repro.common.config import GatewayConfig
from repro.common.exceptions import (
    NotFittedError,
    SampleRejectedError,
    StreamRejectedError,
    UnknownStreamError,
)
from repro.gateway.journal import AlarmJournal
from repro.gateway.metrics import GatewayMetrics
from repro.live.monitor import LiveMonitor

__all__ = ["MonitorPool", "StreamStatus", "STREAM_ID"]

#: The ids a stream may take: exactly what the HTTP routes carry in a path
#: segment, so every stream the pool admits can also be queried.
STREAM_ID = re.compile(r"[A-Za-z0-9_.:-]+")


def _canonical(mapping: Dict[str, Any]) -> Dict[str, Any]:
    """Recursively key-sort a mapping.

    Alarm payloads served from live monitors and from journal replay must
    serialize to identical bytes; sorting keys (the journal's canonical
    form) makes the two sources indistinguishable on the wire.
    """
    return {
        key: _canonical(value) if isinstance(value, dict) else value
        for key, value in sorted(mapping.items())
    }


class _PendingSample:
    """One buffered, not-yet-scored sample of a stream."""

    __slots__ = ("controller", "process", "time_hours")

    def __init__(self, controller, process, time_hours: float):
        self.controller = np.asarray(controller, dtype=float).ravel()
        self.process = np.asarray(process, dtype=float).ravel()
        self.time_hours = float(time_hours)


class _StreamState:
    """Everything the pool holds for one open stream."""

    __slots__ = (
        "stream_id", "monitor", "pending", "last_seen", "event_cursor",
        "journal_cursor",
    )

    def __init__(self, stream_id: str, monitor: LiveMonitor, now: float):
        self.stream_id = stream_id
        self.monitor = monitor
        self.pending: Deque[_PendingSample] = deque()
        self.last_seen = now
        self.event_cursor = 0  # SSE consumers track events past this point
        self.journal_cursor: Dict[str, int] = {}  # per-view journaled count


class StreamStatus:
    """A point-in-time summary of one stream (the ``GET /streams/<id>``
    payload)."""

    __slots__ = (
        "stream_id", "n_samples", "n_pending", "detected", "alarm_active",
        "n_alarm_events", "last_seen_age_seconds",
    )

    def __init__(
        self,
        stream_id: str,
        n_samples: int,
        n_pending: int,
        detected: bool,
        alarm_active: bool,
        n_alarm_events: int,
        last_seen_age_seconds: float,
    ):
        self.stream_id = stream_id
        self.n_samples = n_samples
        self.n_pending = n_pending
        self.detected = detected
        self.alarm_active = alarm_active
        self.n_alarm_events = n_alarm_events
        self.last_seen_age_seconds = last_seen_age_seconds

    def to_mapping(self) -> Dict[str, Any]:
        """A plain, JSON-safe mapping of this status."""
        return {
            "stream_id": self.stream_id,
            "n_samples": self.n_samples,
            "n_pending": self.n_pending,
            "detected": self.detected,
            "alarm_active": self.alarm_active,
            "n_alarm_events": self.n_alarm_events,
            "last_seen_age_seconds": self.last_seen_age_seconds,
        }


class MonitorPool:
    """Per-stream live monitors with cross-stream batched scoring.

    Parameters
    ----------
    analyzer:
        The calibrated dual-level analyzer every stream is scored against.
    config:
        The gateway configuration (capacity, batch size, backpressure and
        idle-reaping knobs).
    clock:
        Monotonic time source; injectable so idle-reaping tests can march
        time forward without sleeping.

    All public methods are thread-safe behind one pool lock.  Scoring a
    batch happens inside the lock — the numpy calls release the GIL, and
    correctness (per-stream sample order, snapshot timing) is easier to
    audit with one serialization point than with per-stream locks.

    Samples are validated against the analyzer's calibrated dimensions at
    feed time: a malformed or wrong-length vector raises
    :class:`~repro.common.exceptions.SampleRejectedError` before touching
    any buffer, so one stream's bad sample can never poison a cross-stream
    scoring batch (which would lose *other* streams' already-drained
    samples).  Reports of cleanly closed streams are archived in an LRU
    bounded at :attr:`max_closed_reports`; the oldest untouched reports
    age out once the cap is hit.
    """

    #: Upper bound on archived closed-stream reports (LRU eviction).
    max_closed_reports = 1024

    def __init__(
        self,
        analyzer: DualLevelAnalyzer,
        config: Optional[GatewayConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        journal: Optional[Union[str, Path, AlarmJournal]] = None,
        journal_fsync: str = "always",
    ):
        if not analyzer.is_fitted:
            raise NotFittedError(
                "the DualLevelAnalyzer must be calibrated before serving streams"
            )
        self.analyzer = analyzer
        self.config = config or GatewayConfig()
        self.clock = clock
        self.metrics = GatewayMetrics(self.config.scoring_batch_size)
        self._controller_dim = len(analyzer.controller_monitor.variable_names)
        self._process_dim = len(analyzer.process_monitor.variable_names)
        self._streams: "OrderedDict[str, _StreamState]" = OrderedDict()
        self._closed_reports: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.RLock()
        if journal is None or isinstance(journal, AlarmJournal):
            self.journal = journal
        else:
            self.journal = AlarmJournal(journal, fsync=journal_fsync)
        #: stream_id -> view -> alarm mappings confirmed before this
        #: process started (journal replay) or by since-dropped monitors.
        self._alarm_history: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
        if self.journal is not None:
            self._alarm_history = self.journal.replay()
            self.metrics.journal_records_replayed.increment(
                sum(
                    len(events)
                    for views in self._alarm_history.values()
                    for events in views.values()
                )
            )
            self.metrics.journal_torn_tails.increment(
                self.journal.journal.torn_tails
            )

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------
    def open_stream(
        self, stream_id: str, anomaly_start_hour: Optional[float] = None
    ) -> None:
        """Admit a new stream; reject duplicates and a full pool."""
        stream_id = str(stream_id)
        if not STREAM_ID.fullmatch(stream_id):
            raise StreamRejectedError(
                f"stream id {stream_id!r} must match {STREAM_ID.pattern}"
            )
        with self._lock:
            if stream_id in self._streams:
                raise StreamRejectedError(f"stream {stream_id!r} is already open")
            if len(self._streams) >= self.config.max_streams:
                raise StreamRejectedError(
                    f"pool is full ({self.config.max_streams} streams)"
                )
            monitor = LiveMonitor(self.analyzer, anomaly_start_hour)
            self._streams[stream_id] = _StreamState(
                stream_id, monitor, self.clock()
            )
            self._closed_reports.pop(stream_id, None)
            if self.journal is not None:
                # History (if any survived a crash) is deliberately kept:
                # a re-open continues the same plant stream, and alarms()
                # serves the pre-crash transitions ahead of the live ones.
                self.journal.record_open(stream_id)
                self.metrics.journal_appends.increment()
            self.metrics.streams_opened.increment()
            self.metrics.streams_active.set(len(self._streams))
            self.metrics.streams_peak.set_max(len(self._streams))

    def feed(
        self, stream_id: str, controller_values, process_values, time_hours: float
    ) -> None:
        """Buffer one sample; flush inline when the buffer is full.

        The inline flush is the backpressure mechanism: a stream can never
        hold more than ``max_pending_samples`` unscored samples, so gateway
        memory stays bounded no matter how fast clients feed — the cost of
        scoring is simply paid on the caller's thread when the background
        flusher falls behind.

        A malformed sample raises
        :class:`~repro.common.exceptions.SampleRejectedError` and buffers
        nothing: only the offending feed fails, never a later cross-stream
        batch.
        """
        started = time.perf_counter()
        with self._lock:
            state = self._require(stream_id)
            state.pending.append(
                self._make_sample(controller_values, process_values, time_hours)
            )
            state.last_seen = self.clock()
            self.metrics.samples_ingested.increment()
            if len(state.pending) >= self.config.max_pending_samples:
                self._flush_locked()
        self.metrics.ingest_latency.observe(time.perf_counter() - started)

    def validate_sample(
        self, controller_values, process_values, time_hours: float
    ) -> None:
        """Raise :class:`SampleRejectedError` unless the sample is scorable.

        Needs no lock — the calibrated dimensions are immutable — so batch
        endpoints can vet a whole payload up front and reject it atomically
        before feeding anything.
        """
        self._make_sample(controller_values, process_values, time_hours)

    def _make_sample(
        self, controller_values, process_values, time_hours
    ) -> _PendingSample:
        """Build a pending sample, rejecting anything that cannot score.

        The dimension check at feed time is what keeps a bad sample's blast
        radius to its own stream: once buffered, samples are drained in
        cross-stream batches, where a wrong-length row would abort scoring
        after every stream's pending queue had already been popped.
        """
        try:
            sample = _PendingSample(controller_values, process_values, time_hours)
        except (TypeError, ValueError, OverflowError) as error:
            self.metrics.samples_rejected.increment()
            raise SampleRejectedError(f"malformed sample: {error}") from error
        if sample.controller.shape[0] != self._controller_dim:
            self.metrics.samples_rejected.increment()
            raise SampleRejectedError(
                f"controller vector has {sample.controller.shape[0]} values,"
                f" expected {self._controller_dim}"
            )
        if sample.process.shape[0] != self._process_dim:
            self.metrics.samples_rejected.increment()
            raise SampleRejectedError(
                f"process vector has {sample.process.shape[0]} values,"
                f" expected {self._process_dim}"
            )
        return sample

    def close_stream(self, stream_id: str) -> Dict[str, Any]:
        """Score any pending samples, archive and return the final report."""
        with self._lock:
            state = self._require(stream_id)
            self._flush_streams_locked([state])
            report = state.monitor.report().to_mapping()
            del self._streams[stream_id]
            if self.journal is not None:
                # A clean close ends the stream's story: the client holds
                # the final report, so the alarm history is dropped and a
                # later stream reusing the id starts clean.
                self.journal.record_close(stream_id)
                self.metrics.journal_appends.increment()
                self._alarm_history.pop(str(stream_id), None)
            self._closed_reports[str(stream_id)] = report
            self._closed_reports.move_to_end(str(stream_id))
            while len(self._closed_reports) > self.max_closed_reports:
                self._closed_reports.popitem(last=False)
            self.metrics.streams_closed.increment()
            self._update_gauges_locked()
            return report

    def drop_stream(self, stream_id: str) -> None:
        """Discard a stream (disconnect path): free its slot, score nothing.

        Pending samples are thrown away unscored — a vanished client gets
        no report, and the freed slot carries no state into the next
        stream that takes it.
        """
        with self._lock:
            state = self._streams.pop(str(stream_id), None)
            if state is None:
                return
            self._preserve_history_locked(state)
            self.metrics.streams_dropped.increment()
            self._update_gauges_locked()

    def reap_idle(self) -> List[str]:
        """Drop streams silent for longer than the idle timeout."""
        timeout = self.config.idle_timeout
        if timeout is None:
            return []
        with self._lock:
            now = self.clock()
            stale = [
                state.stream_id
                for state in self._streams.values()
                if now - state.last_seen > timeout
            ]
            for stream_id in stale:
                self._preserve_history_locked(self._streams.pop(stream_id))
                self.metrics.streams_reaped.increment()
            if stale:
                self._update_gauges_locked()
            return stale

    # ------------------------------------------------------------------
    # Cross-stream batched scoring
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Score every buffered sample of every stream; return the count."""
        started = time.perf_counter()
        with self._lock:
            scored = self._flush_locked()
        if scored:
            self.metrics.flush_latency.observe(time.perf_counter() - started)
        return scored

    def flush_stream(self, stream_id: str) -> int:
        """Score one stream's buffered samples (the ``sync`` op)."""
        with self._lock:
            state = self._require(stream_id)
            return self._flush_streams_locked([state])

    def _flush_locked(self) -> int:
        return self._flush_streams_locked(list(self._streams.values()))

    def _flush_streams_locked(self, states: List[_StreamState]) -> int:
        """Drain the given streams' buffers through batched scoring.

        Samples are packed stream-major (all of stream A's due samples,
        then stream B's, ...) so each stream's samples are ingested in feed
        order; the batch boundary at ``scoring_batch_size`` may split a
        stream across batches, which is harmless — scoring is stateless,
        only ingestion order matters.
        """
        work: List[Tuple[_StreamState, _PendingSample]] = []
        for state in states:
            while state.pending:
                work.append((state, state.pending.popleft()))
        if not work:
            return 0
        batch_size = self.config.scoring_batch_size
        for start in range(0, len(work), batch_size):
            self._score_batch_locked(work[start:start + batch_size])
        self._update_gauges_locked()
        return len(work)

    def _score_batch_locked(
        self, batch: List[Tuple[_StreamState, _PendingSample]]
    ) -> None:
        started = time.perf_counter()
        controller_rows = np.vstack([sample.controller for _, sample in batch])
        process_rows = np.vstack([sample.process for _, sample in batch])
        c_t2, c_spe = self.analyzer.controller_monitor.statistics(controller_rows)
        p_t2, p_spe = self.analyzer.process_monitor.statistics(process_rows)
        self.metrics.scoring_latency.observe(time.perf_counter() - started)
        self.metrics.scoring_batches.increment()
        self.metrics.batch_occupancy.observe(len(batch))
        self.metrics.samples_scored.increment(len(batch))

        for row, (state, sample) in enumerate(batch):
            events = state.monitor.ingest_scored(
                sample.controller,
                sample.process,
                sample.time_hours,
                (float(c_t2[row]), float(c_spe[row])),
                (float(p_t2[row]), float(p_spe[row])),
            )
            for event in events:
                if event.raised:
                    self.metrics.alarms_raised.increment()
        if self.journal is not None:
            # Persist at confirm time: an alarm is journaled in the same
            # locked region that scored it, before any client can read it.
            touched = {id(state): state for state, _ in batch}
            for state in touched.values():
                self._journal_new_events_locked(state)

    def _journal_new_events_locked(self, state: _StreamState) -> None:
        """Append the stream's not-yet-journaled alarm transitions."""
        for name in sorted(state.monitor.views):
            events = state.monitor.views[name].alarms.events
            cursor = state.journal_cursor.get(name, 0)
            for event in events[cursor:]:
                self.journal.record_alarm(
                    state.stream_id, name, event.to_mapping()
                )
                self.metrics.journal_appends.increment()
            state.journal_cursor[name] = len(events)

    def _preserve_history_locked(self, state: _StreamState) -> None:
        """Fold a dropped stream's confirmed alarms into served history.

        Mirrors what a journal replay would rebuild, so a stream dropped
        and re-opened within one process serves the same alarm history as
        one dropped by a crash and re-opened after a restart.
        """
        if self.journal is None:
            return
        views = self._alarm_history.setdefault(str(state.stream_id), {})
        for name in sorted(state.monitor.views):
            events = state.monitor.views[name].alarms.events
            if events:
                views.setdefault(name, []).extend(
                    event.to_mapping() for event in events
                )
        if not views:
            self._alarm_history.pop(str(state.stream_id), None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def stream_ids(self) -> List[str]:
        """Ids of every open stream, in open order."""
        with self._lock:
            return list(self._streams)

    @property
    def n_streams(self) -> int:
        """Number of open streams."""
        with self._lock:
            return len(self._streams)

    @property
    def is_full(self) -> bool:
        """Whether the pool is at capacity (readiness probe)."""
        with self._lock:
            return len(self._streams) >= self.config.max_streams

    def status(self, stream_id: str) -> StreamStatus:
        """Point-in-time summary of one stream."""
        with self._lock:
            state = self._require(stream_id)
            monitor = state.monitor
            n_events = sum(
                len(view.alarms.events) for view in monitor.views.values()
            ) + sum(
                len(events)
                for events in self._alarm_history.get(str(stream_id), {}).values()
            )
            return StreamStatus(
                stream_id=state.stream_id,
                n_samples=monitor.n_samples,
                n_pending=len(state.pending),
                detected=monitor.detected,
                alarm_active=any(
                    view.alarms.active for view in monitor.views.values()
                ),
                n_alarm_events=n_events,
                last_seen_age_seconds=self.clock() - state.last_seen,
            )

    def alarms(self, stream_id: str) -> Dict[str, List[Dict[str, Any]]]:
        """Per-view alarm transitions of one stream (scored samples only).

        When the pool journals, transitions confirmed before this process
        started (or before the stream was dropped and re-opened) come
        first, then the live monitor's own — the full story of the plant
        stream, not just of the current process.  Every payload is emitted
        in canonical (key-sorted) form so the response bytes don't depend
        on whether an event came from replayed history or live scoring.
        """
        with self._lock:
            state = self._require(stream_id)
            history = self._alarm_history.get(str(stream_id), {})
            names = sorted(set(history) | set(state.monitor.views))
            merged: Dict[str, List[Dict[str, Any]]] = {}
            for name in names:
                events = [dict(event) for event in history.get(name, ())]
                view = state.monitor.views.get(name)
                if view is not None:
                    events.extend(
                        event.to_mapping() for event in view.alarms.events
                    )
                merged[name] = [_canonical(event) for event in events]
            return merged

    def alarm_feed(
        self, stream_id: str, cursor: int
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Alarm transitions past ``cursor``, merged across views.

        The SSE endpoint polls this; consumers hold their own cursor, so a
        slow consumer costs the gateway nothing — events already live in
        the per-view alarm managers, nothing is buffered per consumer.

        Deliberately **live-only**: an SSE consumer subscribes to what
        happens next, not to replayed history — a reconnecting consumer
        that wants the full story fetches :meth:`alarms` once and then
        tails the feed.
        """
        with self._lock:
            state = self._require(stream_id)
            merged = []
            for name, view in sorted(state.monitor.views.items()):
                for event in view.alarms.events:
                    payload = event.to_mapping()
                    payload["view"] = name
                    merged.append(payload)
            merged.sort(key=lambda event: (event["index"], event["view"]))
            cursor = max(0, int(cursor))
            return merged[cursor:], len(merged)

    def report(self, stream_id: str) -> Dict[str, Any]:
        """The stream's :class:`LiveRunReport` mapping (pending flushed).

        Open streams are flushed and reported in place; a closed stream's
        archived final report is served until its id is reused or the
        report ages out of the bounded archive (the
        :attr:`max_closed_reports` least-recently-read reports are kept,
        so a long-running gateway cycling many streams stays bounded).
        """
        with self._lock:
            state = self._streams.get(str(stream_id))
            if state is not None:
                self._flush_streams_locked([state])
                return state.monitor.report().to_mapping()
            archived = self._closed_reports.get(str(stream_id))
            if archived is not None:
                self._closed_reports.move_to_end(str(stream_id))
                return archived
            raise UnknownStreamError(f"no such stream: {stream_id!r}")

    def n_pending(self) -> int:
        """Buffered unscored samples across all streams."""
        with self._lock:
            return sum(len(state.pending) for state in self._streams.values())

    # ------------------------------------------------------------------
    def _require(self, stream_id: str) -> _StreamState:
        state = self._streams.get(str(stream_id))
        if state is None:
            raise UnknownStreamError(f"no such stream: {stream_id!r}")
        return state

    def _update_gauges_locked(self) -> None:
        self.metrics.streams_active.set(len(self._streams))
        self.metrics.pending_samples.set(
            sum(len(state.pending) for state in self._streams.values())
        )
