"""Gateway instrumentation, served at ``GET /metrics``.

:class:`GatewayMetrics` bundles every gateway series on a
:class:`~repro.obs.metrics.MetricsRegistry`, the registry the service
coordinator's ``/metrics`` surface is built on too.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry

__all__ = ["GatewayMetrics"]


class GatewayMetrics:
    """Every metric the gateway exposes, in registration order.

    Registration order is the exposition order of ``/metrics``; new
    metrics are appended after the historical ones so existing scrape
    parsers (and the wire-format pin in the tests) see an unchanged
    prefix.
    """

    def __init__(self, scoring_batch_size: int):
        self.registry = MetricsRegistry()
        self.streams_active = self.registry.gauge(
            "gateway_streams_active", "Streams currently held by the pool."
        )
        self.pending_samples = self.registry.gauge(
            "gateway_pending_samples", "Buffered samples awaiting scoring."
        )
        self.streams_opened = self.registry.counter(
            "gateway_streams_opened_total", "Streams opened since start."
        )
        self.streams_closed = self.registry.counter(
            "gateway_streams_closed_total", "Streams closed cleanly."
        )
        self.streams_dropped = self.registry.counter(
            "gateway_streams_dropped_total",
            "Streams dropped by disconnect or error.",
        )
        self.streams_reaped = self.registry.counter(
            "gateway_streams_reaped_total", "Idle streams reaped."
        )
        self.samples_ingested = self.registry.counter(
            "gateway_samples_ingested_total", "Samples accepted from clients."
        )
        self.samples_rejected = self.registry.counter(
            "gateway_samples_rejected_total",
            "Samples rejected at feed time (malformed or wrong dimension).",
        )
        self.samples_scored = self.registry.counter(
            "gateway_samples_scored_total", "Samples scored by the pool."
        )
        self.scoring_batches = self.registry.counter(
            "gateway_scoring_batches_total",
            "Cross-stream statistics() calls issued.",
        )
        self.alarms_raised = self.registry.counter(
            "gateway_alarms_raised_total", "Alarm raise transitions emitted."
        )
        self.flusher_errors = self.registry.counter(
            "gateway_flusher_errors_total",
            "Background flusher passes that raised and were survived.",
        )
        self.batch_occupancy = self.registry.histogram(
            "gateway_scoring_batch_rows",
            "Rows packed per cross-stream scoring batch.",
            buckets=_occupancy_buckets(scoring_batch_size),
        )
        self.flush_latency = self.registry.histogram(
            "gateway_flush_latency_seconds",
            "Wall time of one pool flush pass.",
            buckets=LATENCY_BUCKETS,
        )
        self.scoring_latency = self.registry.histogram(
            "gateway_scoring_latency_seconds",
            "Wall time of one cross-stream scoring batch.",
            buckets=LATENCY_BUCKETS,
        )
        self.ingest_latency = self.registry.histogram(
            "gateway_ingest_latency_seconds",
            "Wall time from sample receipt to buffer append.",
            buckets=LATENCY_BUCKETS,
        )
        self.streams_peak = self.registry.gauge(
            "gateway_streams_peak",
            "High-water mark of concurrently open streams.",
        )
        self.flush_duration = self.registry.histogram(
            "gateway_flush_duration_seconds",
            "Wall time of one full background flusher pass (flush + reap).",
            buckets=LATENCY_BUCKETS,
        )
        # PR 10: alarm-journal series, appended after every older metric
        # so the exposition prefix stays pinned.  All zero when the pool
        # runs without a journal.
        self.journal_appends = self.registry.counter(
            "gateway_journal_appends_total",
            "Records appended to the alarm journal.",
        )
        self.journal_records_replayed = self.registry.counter(
            "gateway_journal_records_replayed_total",
            "Alarm events restored from the journal at startup.",
        )
        self.journal_torn_tails = self.registry.counter(
            "gateway_journal_torn_tails_total",
            "Torn journal tails healed at startup.",
        )

    def render(self) -> str:
        """The full ``/metrics`` document (text exposition format)."""
        return self.registry.render()

    def snapshot(self) -> Dict[str, float]:
        """Scalar metric values as a mapping (tests and health payloads)."""
        return self.registry.snapshot()


def _occupancy_buckets(batch_size: int) -> Tuple[float, ...]:
    """Row-count buckets scaled to the configured batch size."""
    fractions = (0.016, 0.062, 0.125, 0.25, 0.5, 0.75, 1.0)
    bounds = sorted({max(1.0, round(batch_size * f)) for f in fractions})
    return tuple(float(b) for b in bounds)
