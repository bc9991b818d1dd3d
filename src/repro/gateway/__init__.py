"""``repro.gateway`` — the streaming detection gateway.

:mod:`repro.live` scores one stream in process; ``repro.gateway`` serves
**thousands of concurrent plant streams** behind one calibrated
:class:`~repro.anomaly.diagnosis.DualLevelAnalyzer`:

* :class:`~repro.gateway.pool.MonitorPool` — the multi-tenant core: every
  stream keeps its own :class:`~repro.live.monitor.LiveMonitor` (alarm
  machines, detection bookkeeping, on-alarm oMEDA snapshots) and a bounded
  sample buffer, while T²/SPE scoring is **batched across streams** into
  ``(B, M)`` :meth:`~repro.mspc.model.MSPCMonitor.statistics` calls.
  Because the PCA projection is shape-stable, every stream's scores and
  alarm events are bitwise-identical to an in-process ``LiveMonitor`` fed
  the same samples.
* :class:`~repro.gateway.server.GatewayServer` — newline-JSON TCP ingest
  (one connection per stream; a disconnect frees the slot), an HTTP
  operations surface (health/readiness, Prometheus ``/metrics``,
  per-stream status/alarms/report, SSE alarm events) and the background
  flusher that drives batched scoring and idle-stream reaping.
* :class:`~repro.gateway.client.StreamClient` — the feeding/query client
  (``open_stream`` / ``feed`` / ``alarms`` / ``report``), optionally
  retrying idempotent queries and the ingest connect under a
  :class:`~repro.common.retry.RetryPolicy`.
* :class:`~repro.gateway.journal.AlarmJournal` — durable per-stream alarm
  history: a pool built with ``journal=`` persists every confirmed alarm
  transition, and a restarted gateway serves a re-opened stream its
  pre-crash alarms.
* :class:`~repro.gateway.metrics.GatewayMetrics` — the dependency-free
  Prometheus-style instrumentation behind ``/metrics``.

Spec-driven entry points live in :mod:`repro.api` (the ``[gateway]``
section and :func:`~repro.api.session.serve_gateway`); the CLI is
``scripts/run_gateway.py``.
"""

from repro.common.config import GatewayConfig
from repro.gateway.client import StreamClient
from repro.gateway.journal import AlarmJournal
from repro.gateway.metrics import GatewayMetrics
from repro.gateway.pool import MonitorPool, StreamStatus
from repro.gateway.server import GatewayServer

__all__ = [
    "AlarmJournal",
    "GatewayConfig",
    "GatewayMetrics",
    "GatewayServer",
    "MonitorPool",
    "StreamClient",
    "StreamStatus",
]
