"""The chunk worker: claim → simulate → publish → ack.

:class:`ChunkWorker` is deliberately coordinator-agnostic: it drives any
object exposing the coordinator protocol (``campaign_ids``,
``spec_mapping``, ``claim``, ``heartbeat``, ``ack``, ``progress``) — the
in-process :class:`~repro.service.coordinator.CampaignCoordinator` for
tests and single-host fan-out, or a
:class:`~repro.service.client.CoordinatorClient` for remote execution.

Executing a chunk is just handing its :class:`RunSpec` slice to a normal
:class:`~repro.experiments.parallel.CampaignEngine` whose cache points at
the shared store: lockstep batches of at most ``batch_size`` runs
(``run_specs_batched`` under the hood, in-process unless the plan has
several workers and the chunk more than one pending run), per-run derived
seeds and atomic NPZ publication are all inherited, so a distributed run
is bitwise-identical to a local one and every completed batch is durable
the moment it is written — a worker dying mid-chunk loses at most the
batches it had not yet finished.

While a chunk simulates, a daemon heartbeat thread renews the lease every
``[service] heartbeat_seconds``; if the coordinator refuses a renewal (the
lease expired and was reclaimed), the worker abandons the chunk after the
current engine call instead of acking it.  The heartbeat thread is always
stopped and joined *before* the final ack, so a worker that returns from
:meth:`drain_all` leaves no thread behind.

With a :class:`~repro.common.retry.RetryPolicy`, the claim/progress loop
rides out transient coordinator outages.  Retrying a *claim* is safe at
this layer (unlike in the client) because a claim whose response was lost
merely leaves a lease nobody works on — the coordinator's reaper returns
it to the pool after ``lease_seconds``, costing latency, never
correctness.  A worker whose retries exhaust raises
:class:`~repro.common.exceptions.RetryExhaustedError` to its caller
(``run_campaign.py --worker`` exits non-zero on it).
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from dataclasses import replace
from typing import Any, Dict, Optional

from repro import faults
from repro.api.spec import CampaignSpec
from repro.common.exceptions import ServiceUnavailableError
from repro.common.retry import RetryPolicy
from repro.experiments.parallel import CampaignEngine
from repro.obs.logs import get_logger, log_context
from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.service.chunks import WorkChunk

__all__ = ["ChunkWorker"]

_LOG = get_logger("service.worker")


class ChunkWorker:
    """Executes claimable chunks against a coordinator.

    Parameters
    ----------
    coordinator:
        A :class:`CampaignCoordinator` or :class:`CoordinatorClient`.
    worker_id:
        Stable identity used in leases and logs; defaults to
        ``"<hostname>-<pid>-<4 hex>"``.
    cache_dir:
        Override of the shared store path, for workers that mount it
        somewhere else than the coordinator does.  ``None`` trusts the
        normalized spec.
    n_workers:
        Override of the per-chunk process fan-out (``None`` keeps the
        spec's execution plan).  ``1`` makes the worker purely in-process.
    retry:
        Optional :class:`~repro.common.retry.RetryPolicy` for the worker's
        own claim/progress loop (transient coordinator outages).  ``None``
        keeps the loop fail-fast.
    """

    def __init__(
        self,
        coordinator,
        worker_id: Optional[str] = None,
        cache_dir: Optional[str] = None,
        n_workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.coordinator = coordinator
        self.worker_id = worker_id or (
            f"{os.uname().nodename}-{os.getpid()}-{uuid.uuid4().hex[:4]}"
        )
        self.cache_dir = cache_dir
        self.n_workers = n_workers
        self.retry = retry
        self.n_chunks_done = 0
        self.n_chunks_abandoned = 0
        self.n_simulated = 0
        self.n_cache_hits = 0
        self._specs: Dict[str, CampaignSpec] = {}
        #: The most recent chunk's heartbeat thread — always signalled and
        #: joined before the chunk's ack; kept so tests (and operators)
        #: can assert it actually died.
        self.last_heartbeat_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def _spec_of(self, campaign_id: str) -> CampaignSpec:
        """The campaign's normalized spec, fetched once and cached."""
        if campaign_id not in self._specs:
            spec = CampaignSpec.from_mapping(
                self.coordinator.spec_mapping(campaign_id)
            )
            if self.cache_dir is not None or self.n_workers is not None:
                parallel = spec.experiment.parallel
                if self.cache_dir is not None:
                    parallel = replace(parallel, cache_dir=str(self.cache_dir))
                if self.n_workers is not None:
                    parallel = replace(parallel, n_workers=int(self.n_workers))
                spec = spec.with_experiment(
                    spec.experiment.with_parallel(parallel)
                )
            self._specs[campaign_id] = spec
        return self._specs[campaign_id]

    def _execute(
        self, campaign_id: str, descriptor: Dict[str, Any]
    ) -> bool:
        """Simulate one claimed chunk and ack it; True when acknowledged."""
        spec = self._spec_of(campaign_id)
        chunk = WorkChunk.from_mapping(descriptor)
        specs = chunk.specs_of(spec)
        engine = CampaignEngine(spec.experiment.parallel)

        lease_lost = threading.Event()
        stop_beating = threading.Event()
        interval = float(spec.service.heartbeat_seconds)

        def beat() -> None:
            while not stop_beating.wait(interval):
                try:
                    alive = self.coordinator.heartbeat(
                        campaign_id, chunk.chunk_id, self.worker_id
                    )
                except Exception:
                    # A transient coordinator outage must not kill the
                    # simulation; the lease may expire, in which case the
                    # ack below simply won't be ours to make.
                    continue
                if not alive:
                    lease_lost.set()
                    return

        # When the campaign's [obs] section traces, the chunk runs under a
        # worker-local tracer whose drained span buffer ships back in the
        # ack — the coordinator merges every worker's buffer into one
        # campaign trace.  The previous global tracer is restored either
        # way, so an untraced campaign leaves the process untouched.
        tracer: Optional[Tracer] = None
        previous_tracer = None
        if spec.obs.tracing:
            previous_tracer = get_tracer()
            tracer = Tracer(enabled=True, process=self.worker_id)
            set_tracer(tracer)

        heartbeat_thread = threading.Thread(target=beat, daemon=True)
        heartbeat_thread.start()
        self.last_heartbeat_thread = heartbeat_thread
        try:
            with log_context(
                campaign=campaign_id,
                chunk=chunk.chunk_id,
                worker=self.worker_id,
            ):
                # Fault seam: chaos plans kill the worker here — after the
                # claim, before any run publishes.
                faults.fire(
                    "service.worker.execute",
                    campaign=campaign_id,
                    chunk=chunk.chunk_id,
                )
                if tracer is not None:
                    with tracer.span(
                        "worker.chunk",
                        campaign=campaign_id,
                        chunk=chunk.chunk_id,
                        n_runs=len(specs),
                    ):
                        # Publication happens inside the engine: every
                        # completed run is written to the shared cache under
                        # its content-derived key as it finishes.
                        # prune=False — eviction mid-campaign could drop
                        # entries other chunks already produced.
                        engine.run(specs, prune=False)
                else:
                    engine.run(specs, prune=False)
        finally:
            # Stop the heartbeat before anything else — in particular
            # before the final ack — and wait for the thread to actually
            # die.  The join must outlast a heartbeat that is mid-flight
            # against a slow coordinator, or the thread leaks past
            # drain_all; the client's request timeout bounds that flight.
            stop_beating.set()
            request_timeout = getattr(self.coordinator, "timeout", None)
            heartbeat_thread.join(
                timeout=(float(request_timeout) if request_timeout else 0.0)
                + 5.0
            )
            if heartbeat_thread.is_alive():  # pragma: no cover - defensive
                _LOG.warning(
                    "heartbeat thread still alive after join deadline",
                    extra={"chunk": chunk.chunk_id, "worker": self.worker_id},
                )
            if tracer is not None:
                set_tracer(previous_tracer)
        stats = engine.last_stats
        self.n_simulated += stats.n_simulated
        self.n_cache_hits += stats.n_cache_hits
        if lease_lost.is_set():
            # The chunk was reclaimed while we simulated.  The results are
            # in the cache regardless (nothing is wasted), but the ack —
            # and the bookkeeping that goes with it — belongs to the
            # current leaseholder.
            self.n_chunks_abandoned += 1
            _LOG.warning(
                "chunk abandoned: lease reclaimed mid-simulation",
                extra={"chunk": chunk.chunk_id, "worker": self.worker_id},
            )
            return False
        spans = tracer.drain() if tracer is not None else None
        # Fault seam: chaos plans kill the worker here — the chunk's runs
        # are all in the shared cache, but the ack never happens, so the
        # lease must expire and another worker re-claims into cache hits.
        faults.fire(
            "service.worker.ack", campaign=campaign_id, chunk=chunk.chunk_id
        )
        response = self.coordinator.ack(
            campaign_id,
            chunk.chunk_id,
            self.worker_id,
            n_simulated=stats.n_simulated,
            n_cache_hits=stats.n_cache_hits,
            spans=spans,
        )
        if response.get("accepted"):
            self.n_chunks_done += 1
            _LOG.info(
                "chunk acknowledged",
                extra={
                    "chunk": chunk.chunk_id,
                    "worker": self.worker_id,
                    "n_simulated": stats.n_simulated,
                    "n_cache_hits": stats.n_cache_hits,
                },
            )
            return True
        self.n_chunks_abandoned += 1
        return False

    # ------------------------------------------------------------------
    def _claim(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        """Claim a chunk, retrying transient outages when a policy is set.

        Safe here (unlike in the client): a claim that succeeded
        server-side but lost its response leaves an unworked lease the
        coordinator reaps after ``lease_seconds`` — latency, not
        corruption.
        """
        if self.retry is None:
            return self.coordinator.claim(campaign_id, self.worker_id)
        return self.retry.call(
            lambda: self.coordinator.claim(campaign_id, self.worker_id),
            retry_on=(ServiceUnavailableError,),
            description=f"claim chunk of campaign {campaign_id}",
        )

    def _progress(self, campaign_id: str) -> Dict[str, Any]:
        if self.retry is None:
            return self.coordinator.progress(campaign_id)
        return self.retry.call(
            lambda: self.coordinator.progress(campaign_id),
            retry_on=(ServiceUnavailableError,),
            description=f"progress of campaign {campaign_id}",
        )

    def run_once(self, campaign_id: str) -> bool:
        """Claim and execute at most one chunk; True when one was executed."""
        descriptor = self._claim(campaign_id)
        if descriptor is None:
            return False
        self._execute(campaign_id, descriptor)
        return True

    def drain(self, campaign_id: str, poll_seconds: Optional[float] = None) -> int:
        """Work on a campaign until it completes; returns chunks executed.

        When no chunk is claimable but the campaign is still incomplete
        (every remaining chunk is leased to someone else), the worker
        sleeps ``poll_seconds`` — another worker's death would then return
        chunks to the pool for us to pick up.
        """
        executed = 0
        while True:
            if self.run_once(campaign_id):
                executed += 1
                continue
            progress = self._progress(campaign_id)
            if progress["complete"]:
                return executed
            time.sleep(
                float(poll_seconds)
                if poll_seconds is not None
                else float(self._spec_of(campaign_id).service.poll_seconds)
            )

    def drain_all(self, poll_seconds: float = 0.5, max_idle: Optional[float] = None) -> int:
        """Work on every submitted campaign until all complete (or idle out).

        ``max_idle`` bounds how long the worker waits for *new* campaigns
        once everything it can see is complete; ``None`` waits forever
        (the long-running service worker).  Returns chunks executed.
        """
        executed = 0
        idle_since: Optional[float] = None
        while True:
            progressed = False
            for campaign_id in self.coordinator.campaign_ids():
                while self.run_once(campaign_id):
                    executed += 1
                    progressed = True
            if progressed:
                idle_since = None
                continue
            incomplete = [
                campaign_id
                for campaign_id in self.coordinator.campaign_ids()
                if not self._progress(campaign_id)["complete"]
            ]
            if not incomplete:
                if max_idle is not None:
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    elif now - idle_since >= max_idle:
                        return executed
            time.sleep(float(poll_seconds))
