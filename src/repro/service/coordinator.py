"""The campaign coordinator: chunk scheduling, leases and reduction.

:class:`CampaignCoordinator` owns the scheduling state of submitted
campaigns — never simulation data.  A submitted
:class:`~repro.api.spec.CampaignSpec` is normalized onto the coordinator's
shared cache directory and sharded into :class:`~repro.service.chunks.
WorkChunk` slices; workers then drive the claim → simulate → ack protocol:

1. **claim** — the oldest pending chunk is leased to the worker for
   ``lease_seconds``.  Expired leases are reaped lazily on every claim and
   progress call, so a lost worker's chunks return to the pending pool
   without any background thread.
2. **heartbeat** — a busy worker renews its lease; a heartbeat on a lease
   the coordinator already reclaimed is refused, telling the worker to
   abandon the chunk (its results still land in the cache and are never
   wasted).
3. **ack** — before marking a chunk done the coordinator verifies that
   every run's NPZ entry actually exists in the shared cache; a partial
   chunk goes back to pending.  Acks are idempotent and ownership-blind:
   results live under content-derived cache keys, so whoever completed the
   chunk, completed it.

When every chunk is done, :meth:`tables` reduces the campaign by running
the ordinary in-process :class:`~repro.api.session.Session` over the now
fully-warm shared cache — the reduction therefore *is* the single-host
path, which is what makes distributed tables bitwise-identical to
``api.run`` on the same spec, and what makes any loss recoverable: a
re-submitted campaign only simulates the chunks whose cache entries are
missing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro._version import __version__
from repro.api.session import CampaignResult, Session
from repro.api.spec import CampaignSpec
from repro.common.exceptions import (
    CampaignIncompleteError,
    ConfigurationError,
    JournalError,
    ServiceError,
)
from repro.experiments.parallel import ResultCache
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.service.chunks import (
    WorkChunk,
    campaign_fingerprint,
    campaign_run_specs,
    shard_campaign,
)
from repro.service.journal import CampaignEvent, ChunkState, CoordinatorJournal

__all__ = [
    "ChunkRecord",
    "CampaignRecord",
    "CampaignCoordinator",
    "CoordinatorMetrics",
]

_LOG = get_logger("service")

#: Chunk lifecycle states.
PENDING, LEASED, DONE = "pending", "leased", "done"


class CoordinatorMetrics:
    """The coordinator's ``/metrics`` bundle (Prometheus text exposition).

    Counters are incremented at the protocol events themselves; the
    chunk-state and worker gauges are recomputed from the scheduling state
    on every scrape (:meth:`CampaignCoordinator.metrics_render`), so they
    can never drift from the records they describe.
    """

    def __init__(self):
        self.registry = MetricsRegistry()
        self.campaigns = self.registry.gauge(
            "service_campaigns", "Campaigns the coordinator tracks."
        )
        self.chunks_pending = self.registry.gauge(
            "service_chunks_pending", "Chunks waiting to be claimed."
        )
        self.chunks_leased = self.registry.gauge(
            "service_chunks_leased", "Chunks currently leased to workers."
        )
        self.chunks_done = self.registry.gauge(
            "service_chunks_done", "Chunks acknowledged complete."
        )
        self.workers_active = self.registry.gauge(
            "service_workers_active", "Distinct workers holding a lease."
        )
        self.submissions = self.registry.counter(
            "service_submissions_total", "Campaign submissions (incl. re-submits)."
        )
        self.claims = self.registry.counter(
            "service_claims_total", "Chunk leases granted."
        )
        self.heartbeats = self.registry.counter(
            "service_heartbeats_total", "Lease renewals granted."
        )
        self.acks = self.registry.counter(
            "service_acks_total", "Chunk acknowledgements accepted."
        )
        self.acks_rejected = self.registry.counter(
            "service_acks_rejected_total",
            "Chunk acknowledgements rejected (results missing from cache).",
        )
        self.leases_reaped = self.registry.counter(
            "service_leases_reaped_total",
            "Expired leases returned to the pending pool.",
        )
        # Journal gauges mirror the Journal's own counters on every scrape
        # (recomputed in metrics_render, like the chunk-state gauges), so
        # they can never drift from the file they describe.
        self.journal_appends = self.registry.gauge(
            "service_journal_appends",
            "Scheduling events appended to the durable journal.",
        )
        self.journal_records_replayed = self.registry.gauge(
            "service_journal_records_replayed",
            "Journal records applied during restart replay.",
        )
        self.journal_torn_tails = self.registry.gauge(
            "service_journal_torn_tails",
            "Torn journal tails healed on replay.",
        )
        self.journal_compactions = self.registry.gauge(
            "service_journal_compactions",
            "Journal compactions (snapshot rewrites).",
        )

    def render(self) -> str:
        """The full ``/metrics`` document (text exposition format)."""
        return self.registry.render()

    def snapshot(self) -> Dict[str, float]:
        """Scalar metric values as a mapping (tests and health payloads)."""
        return self.registry.snapshot()


@dataclass
class ChunkRecord:
    """Scheduling state of one chunk."""

    chunk: WorkChunk
    state: str = PENDING
    worker_id: Optional[str] = None
    lease_deadline: Optional[float] = None
    attempts: int = 0
    n_simulated: int = 0
    n_cache_hits: int = 0

    def to_mapping(self) -> Dict[str, Any]:
        """The JSON-safe status form of this record."""
        return {
            **self.chunk.to_mapping(),
            "state": self.state,
            "worker_id": self.worker_id,
            "attempts": self.attempts,
            "n_simulated": self.n_simulated,
            "n_cache_hits": self.n_cache_hits,
        }


@dataclass
class CampaignRecord:
    """Everything the coordinator tracks about one submitted campaign."""

    campaign_id: str
    spec: CampaignSpec
    chunks: List[ChunkRecord]
    #: The flattened run-spec list, kept so ack verification can map any
    #: chunk to its cache paths without re-deriving the whole campaign.
    run_specs: List[Any] = field(default_factory=list)
    events: List[str] = field(default_factory=list)
    result: Optional[CampaignResult] = None
    #: Span records shipped by workers in their acks (when the campaign's
    #: ``[obs]`` section enables tracing); merged into one campaign trace
    #: via ``GET /campaigns/<id>/trace``.
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def n_runs(self) -> int:
        """Total runs across every chunk."""
        return len(self.run_specs)

    @property
    def is_complete(self) -> bool:
        """Whether every chunk has been acknowledged."""
        return all(record.state == DONE for record in self.chunks)


class CampaignCoordinator:
    """Shards campaigns, leases chunks to workers and reduces results.

    Parameters
    ----------
    cache_dir:
        The shared result store — a directory every worker can write to
        (same filesystem path on all hosts: a local path for single-host
        fan-out, an NFS/bind mount for a LAN).  Submitted specs are
        normalized onto it, whatever their own ``cache_dir`` said.
    lease_seconds:
        Default chunk lease duration; a spec's ``[service]`` section
        overrides it per campaign.
    clock:
        Monotonic time source, injectable for tests.
    journal:
        Optional path (or prebuilt :class:`CoordinatorJournal`) of the
        durable scheduling journal.  Every submit/claim/heartbeat/ack/reap
        is appended before the request is answered; on construction the
        journal is replayed, so a restarted coordinator resumes with its
        chunk attempt counts and worker history intact (chunks that were
        leased when the old process died return to pending — their
        monotonic deadlines did not survive it).  ``None`` (the default)
        keeps the coordinator purely in-memory, as before.
    journal_fsync:
        Journal durability policy: ``"always"`` (default) or ``"never"``.

    All public methods are thread-safe (the REST surface serves each
    request on its own thread).
    """

    def __init__(
        self,
        cache_dir: Union[str, Path],
        lease_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        journal: Optional[Union[str, Path, CoordinatorJournal]] = None,
        journal_fsync: str = "always",
    ):
        self.cache_dir = str(cache_dir)
        self.lease_seconds = lease_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._campaigns: Dict[str, CampaignRecord] = {}
        self.metrics = CoordinatorMetrics()
        if journal is None or isinstance(journal, CoordinatorJournal):
            self.journal = journal
        else:
            self.journal = CoordinatorJournal(journal, fsync=journal_fsync)
        if self.journal is not None:
            self._replay_journal()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def normalize(self, spec: CampaignSpec) -> CampaignSpec:
        """A submitted spec, rebased onto the shared cache directory.

        Normalization touches only the execution plan (which never affects
        results), so every spec differing merely in its local cache path
        maps to the same campaign id.
        """
        parallel = replace(
            spec.experiment.parallel, cache_dir=self.cache_dir, cache_enabled=True
        )
        return spec.with_experiment(spec.experiment.with_parallel(parallel))

    def submit(self, spec: CampaignSpec) -> str:
        """Register a campaign; returns its id.  Idempotent.

        Re-submitting a spec already known to this coordinator returns the
        existing campaign unchanged (its chunk states survive); after a
        coordinator restart the chunks start over as pending, and the
        shared cache turns every already-simulated run into a hit.
        """
        if spec.live.enabled:
            raise ConfigurationError(
                "live early-stop campaigns are not distributable yet; "
                "disable the spec's [live] section or run in-process"
            )
        spec = self.normalize(spec)
        campaign_id = campaign_fingerprint(spec)
        with self._lock:
            record = self._campaigns.get(campaign_id)
            if record is None:
                record = self._register_locked(campaign_id, spec)
                if self.journal is not None:
                    self.journal.record_submit(campaign_id, spec.to_mapping())
                self._log(
                    record,
                    f"submitted: {spec.name!r}, {record.n_runs} runs in "
                    f"{len(record.chunks)} chunks",
                )
            else:
                self._log(record, "re-submitted (idempotent)")
            self.metrics.submissions.increment()
        return campaign_id

    def _register_locked(
        self, campaign_id: str, spec: CampaignSpec
    ) -> CampaignRecord:
        """Create the scheduling record of a new campaign (lock held)."""
        record = CampaignRecord(
            campaign_id=campaign_id,
            spec=spec,
            chunks=[ChunkRecord(chunk=chunk) for chunk in shard_campaign(spec)],
            run_specs=campaign_run_specs(spec),
        )
        self._campaigns[campaign_id] = record
        return record

    # ------------------------------------------------------------------
    # Worker protocol
    # ------------------------------------------------------------------
    def claim(
        self, campaign_id: str, worker_id: str
    ) -> Optional[Dict[str, Any]]:
        """Lease the next pending chunk to ``worker_id``.

        Returns the chunk's wire mapping (with its lease duration), or
        ``None`` when nothing is claimable — either the campaign is
        complete or every remaining chunk is currently leased out.
        """
        with self._lock:
            record = self._require(campaign_id)
            self._reap(record)
            lease = self._lease_of(record)
            for chunk_record in record.chunks:
                if chunk_record.state != PENDING:
                    continue
                chunk_record.state = LEASED
                chunk_record.worker_id = str(worker_id)
                chunk_record.lease_deadline = self._clock() + lease
                chunk_record.attempts += 1
                self._log(
                    record,
                    f"claim: {chunk_record.chunk.chunk_id} -> {worker_id} "
                    f"(attempt {chunk_record.attempts}, lease {lease:g} s)",
                )
                self.metrics.claims.increment()
                if self.journal is not None:
                    self.journal.record_claim(
                        campaign_id,
                        chunk_record.chunk.chunk_id,
                        str(worker_id),
                    )
                return {
                    **chunk_record.chunk.to_mapping(),
                    "campaign_id": campaign_id,
                    "lease_seconds": lease,
                }
            return None

    def heartbeat(self, campaign_id: str, chunk_id: str, worker_id: str) -> bool:
        """Renew a worker's lease on a chunk.

        Returns ``False`` when the lease is no longer the worker's to renew
        (expired and reclaimed, or the chunk already completed) — the
        worker should stop executing the chunk.
        """
        with self._lock:
            record = self._require(campaign_id)
            self._reap(record)
            chunk_record = self._chunk(record, chunk_id)
            if (
                chunk_record.state != LEASED
                or chunk_record.worker_id != str(worker_id)
            ):
                return False
            chunk_record.lease_deadline = self._clock() + self._lease_of(record)
            self.metrics.heartbeats.increment()
            if self.journal is not None:
                self.journal.record_heartbeat(
                    campaign_id, chunk_id, str(worker_id)
                )
            return True

    def ack(
        self,
        campaign_id: str,
        chunk_id: str,
        worker_id: str,
        n_simulated: int = 0,
        n_cache_hits: int = 0,
        spans: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Mark a chunk complete, after verifying its results are on disk.

        Every run of the chunk must have an NPZ entry in the shared cache;
        otherwise the chunk goes back to pending (and the ack reports how
        many entries were missing).  Acks are idempotent — a second ack of
        a done chunk is accepted without changing anything — and
        ownership-blind, because a result under the right cache key is
        correct no matter which worker's lease produced it.  ``spans`` is
        the worker's drained trace buffer (when the campaign traces); it is
        absorbed into the campaign's merged trace (:meth:`trace`).
        """
        with self._lock:
            record = self._require(campaign_id)
            chunk_record = self._chunk(record, chunk_id)
            if chunk_record.state == DONE:
                return {"accepted": True, "missing": 0, "complete": record.is_complete}
            missing = self._missing_results(record, chunk_record.chunk)
            if missing:
                # Only the current lease holder's failed ack releases the
                # chunk: a rejected ack from an evicted worker must not
                # clear a lease that has since been reassigned.
                if chunk_record.worker_id == str(worker_id):
                    chunk_record.state = PENDING
                    chunk_record.worker_id = None
                    chunk_record.lease_deadline = None
                self._log(
                    record,
                    f"ack rejected: {chunk_id} from {worker_id} "
                    f"({missing} results missing from the shared cache)",
                )
                self.metrics.acks_rejected.increment()
                if self.journal is not None:
                    self.journal.record_ack(
                        campaign_id, chunk_id, str(worker_id),
                        accepted=False, n_simulated=0, n_cache_hits=0,
                    )
                return {"accepted": False, "missing": missing, "complete": False}
            if spans:
                record.spans.extend(
                    dict(span) for span in spans if isinstance(span, dict)
                )
            chunk_record.state = DONE
            chunk_record.worker_id = str(worker_id)
            chunk_record.lease_deadline = None
            chunk_record.n_simulated = int(n_simulated)
            chunk_record.n_cache_hits = int(n_cache_hits)
            complete = record.is_complete
            self._log(
                record,
                f"ack: {chunk_id} by {worker_id} "
                f"({n_simulated} simulated, {n_cache_hits} cached)"
                + ("; campaign complete" if complete else ""),
            )
            self.metrics.acks.increment()
            if self.journal is not None:
                self.journal.record_ack(
                    campaign_id, chunk_id, str(worker_id),
                    accepted=True,
                    n_simulated=int(n_simulated),
                    n_cache_hits=int(n_cache_hits),
                )
            return {"accepted": True, "missing": 0, "complete": complete}

    # ------------------------------------------------------------------
    # Introspection and reduction
    # ------------------------------------------------------------------
    def campaign_ids(self) -> List[str]:
        """Ids of every submitted campaign, in submission order."""
        with self._lock:
            return list(self._campaigns)

    def spec_mapping(self, campaign_id: str) -> Dict[str, Any]:
        """The normalized spec document of a campaign (wire form)."""
        with self._lock:
            return self._require(campaign_id).spec.to_mapping()

    def progress(self, campaign_id: str) -> Dict[str, Any]:
        """Scheduling progress of a campaign."""
        with self._lock:
            record = self._require(campaign_id)
            self._reap(record)
            states = [chunk.state for chunk in record.chunks]
            n_done = states.count(DONE)
            chunk_runs_done = sum(
                chunk.chunk.n_runs
                for chunk in record.chunks
                if chunk.state == DONE
            )
            return {
                "campaign_id": campaign_id,
                "name": record.spec.name,
                "complete": record.is_complete,
                "n_runs": record.n_runs,
                "n_runs_done": chunk_runs_done,
                "n_chunks": len(states),
                "n_pending": states.count(PENDING),
                "n_leased": states.count(LEASED),
                "n_done": n_done,
                "n_simulated": sum(c.n_simulated for c in record.chunks),
                "n_cache_hits": sum(c.n_cache_hits for c in record.chunks),
            }

    def chunk_states(self, campaign_id: str) -> List[Dict[str, Any]]:
        """Per-chunk scheduling state of a campaign."""
        with self._lock:
            record = self._require(campaign_id)
            self._reap(record)
            return [chunk.to_mapping() for chunk in record.chunks]

    def events(self, campaign_id: str) -> List[str]:
        """The campaign's progress log, oldest first."""
        with self._lock:
            return list(self._require(campaign_id).events)

    def trace(self, campaign_id: str) -> List[Dict[str, Any]]:
        """The campaign's merged span records, as shipped by worker acks.

        Each record carries the worker id in its ``process`` field, so the
        merged list renders as one per-worker-lane timeline (see
        :func:`repro.obs.trace.chrome_trace`).
        """
        with self._lock:
            return [dict(span) for span in self._require(campaign_id).spans]

    def metrics_render(self) -> str:
        """The ``/metrics`` document, with state gauges freshly recomputed."""
        with self._lock:
            self._refresh_gauges()
        return self.metrics.render()

    def result(self, campaign_id: str) -> CampaignResult:
        """Reduce a complete campaign into its :class:`CampaignResult`.

        The reduction runs the ordinary in-process session over the shared
        cache — every simulation is a cache hit, so only NPZ loads, model
        fitting and scoring execute here, and the produced tables are the
        single-host tables by construction.  The result is memoized.
        """
        with self._lock:
            record = self._require(campaign_id)
            self._reap(record)
            if not record.is_complete:
                raise CampaignIncompleteError(
                    f"campaign {campaign_id} is not complete "
                    f"({sum(c.state == DONE for c in record.chunks)}/"
                    f"{len(record.chunks)} chunks done)"
                )
            if record.result is not None:
                return record.result
            spec = record.spec
        # Reduce outside the lock: scoring a large campaign may take a
        # while and must not block claims/heartbeats of other campaigns.
        result = Session(spec).run()
        with self._lock:
            if record.result is None:
                record.result = result
                self._log(record, "reduced: tables built from the shared cache")
            return record.result

    def tables(self, campaign_id: str) -> Dict[str, List[Dict[str, Any]]]:
        """The reduced result tables of a complete campaign (JSON-safe)."""
        return self.result(campaign_id).tables()

    def health(self) -> Dict[str, Any]:
        """Liveness snapshot for the ``/health`` endpoint."""
        with self._lock:
            return {
                "status": "ok",
                "version": __version__,
                "cache_dir": self.cache_dir,
                "n_campaigns": len(self._campaigns),
                "journal": (
                    str(self.journal.path) if self.journal is not None else None
                ),
            }

    # ------------------------------------------------------------------
    # Journal replay (construction time)
    # ------------------------------------------------------------------
    def _replay_journal(self) -> None:
        """Rebuild scheduling state from the journal, then compact it.

        Chunks left leased by the dead process return to pending (their
        monotonic deadlines are meaningless here) with attempt counts and
        event history preserved; the replayed journal is then rewritten
        as one snapshot per campaign so restart cost tracks live state,
        not campaign history.
        """
        with span("journal.replay", path=str(self.journal.path)):
            records = self.journal.replay()
            with self._lock:
                skipped = 0
                for number, record in enumerate(records, start=1):
                    applied = self._apply_replayed_locked(record, number)
                    skipped += 0 if applied else 1
                revived = 0
                for campaign in self._campaigns.values():
                    for chunk_record in campaign.chunks:
                        if chunk_record.state == LEASED:
                            chunk_record.state = PENDING
                            chunk_record.worker_id = None
                            chunk_record.lease_deadline = None
                            revived += 1
                for campaign in self._campaigns.values():
                    self._log(
                        campaign,
                        "journal replay: restored "
                        f"{sum(c.state == DONE for c in campaign.chunks)} done"
                        f"/{len(campaign.chunks)} chunks",
                    )
                if records:
                    self._compact_journal_locked()
        if records:
            _LOG.info(
                f"journal replayed: {len(records)} records, "
                f"{len(self._campaigns)} campaigns, {revived} leases "
                f"returned to pending, {skipped} records skipped"
            )

    def _apply_replayed_locked(self, record: Dict[str, Any], number: int) -> bool:
        """Apply journal record ``number``; returns False when it was skipped.

        A known event whose fields (or spec) are missing or malformed
        raises :class:`JournalError` naming the record.
        """
        event = self.journal.decode(record, number)
        if event is None:
            return False  # unknown event type: tolerate forward schemas
        if isinstance(event, CampaignEvent):
            try:
                spec = CampaignSpec.from_mapping(event.spec)
            except ConfigurationError as error:
                raise JournalError(
                    f"journal {self.journal.path} record {number} holds an "
                    f"invalid spec: {error}"
                ) from error
            campaign = self._campaigns.get(event.campaign_id)
            if campaign is None:
                campaign = self._register_locked(event.campaign_id, spec)
            self._apply_snapshot_locked(campaign, event.chunks)
            return True
        campaign = self._campaigns.get(event.campaign_id)
        if campaign is None:
            return False
        if event.event == "heartbeat":
            return True  # only extended a dead process's deadline
        try:
            chunk_record = self._chunk(campaign, event.chunk_id)
        except ServiceError:
            return False
        if event.event == "claim":
            chunk_record.state = LEASED
            chunk_record.worker_id = event.worker_id
            chunk_record.lease_deadline = None
            chunk_record.attempts += 1
            return True
        if event.event == "ack":
            if event.accepted:
                chunk_record.state = DONE
                chunk_record.worker_id = event.worker_id
                chunk_record.lease_deadline = None
                chunk_record.n_simulated = event.n_simulated
                chunk_record.n_cache_hits = event.n_cache_hits
            else:
                chunk_record.state = PENDING
                chunk_record.worker_id = None
                chunk_record.lease_deadline = None
            return True
        # reap
        if chunk_record.state == LEASED:
            chunk_record.state = PENDING
            chunk_record.worker_id = None
            chunk_record.lease_deadline = None
        return True

    def _apply_snapshot_locked(
        self, campaign: CampaignRecord, chunks: Tuple[ChunkState, ...]
    ) -> None:
        by_id = {c.chunk.chunk_id: c for c in campaign.chunks}
        for entry in chunks:
            chunk_record = by_id.get(entry.chunk_id)
            if chunk_record is None:
                continue
            chunk_record.state = DONE if entry.state == DONE else PENDING
            chunk_record.worker_id = (
                entry.worker_id if entry.state == DONE else None
            )
            chunk_record.lease_deadline = None
            chunk_record.attempts = entry.attempts
            chunk_record.n_simulated = entry.n_simulated
            chunk_record.n_cache_hits = entry.n_cache_hits

    def _compact_journal_locked(self) -> None:
        """Rewrite the journal as one snapshot record per campaign."""
        snapshots = [
            CoordinatorJournal.snapshot_record(
                campaign.campaign_id,
                campaign.spec.to_mapping(),
                [chunk.to_mapping() for chunk in campaign.chunks],
            )
            for campaign in self._campaigns.values()
        ]
        self.journal.compact(snapshots)

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------
    def _require(self, campaign_id: str) -> CampaignRecord:
        record = self._campaigns.get(campaign_id)
        if record is None:
            raise ServiceError(f"unknown campaign {campaign_id!r}")
        return record

    @staticmethod
    def _chunk(record: CampaignRecord, chunk_id: str) -> ChunkRecord:
        for chunk_record in record.chunks:
            if chunk_record.chunk.chunk_id == chunk_id:
                return chunk_record
        raise ServiceError(
            f"campaign {record.campaign_id} has no chunk {chunk_id!r}"
        )

    def _lease_of(self, record: CampaignRecord) -> float:
        if self.lease_seconds is not None:
            return float(self.lease_seconds)
        return float(record.spec.service.lease_seconds)

    def _reap(self, record: CampaignRecord) -> None:
        """Return expired leases to the pending pool."""
        now = self._clock()
        for chunk_record in record.chunks:
            if (
                chunk_record.state == LEASED
                and chunk_record.lease_deadline is not None
                and chunk_record.lease_deadline < now
            ):
                self._log(
                    record,
                    f"lease expired: {chunk_record.chunk.chunk_id} "
                    f"(was {chunk_record.worker_id}); back to pending",
                )
                evicted = chunk_record.worker_id
                chunk_record.state = PENDING
                chunk_record.worker_id = None
                chunk_record.lease_deadline = None
                self.metrics.leases_reaped.increment()
                if self.journal is not None:
                    self.journal.record_reap(
                        record.campaign_id,
                        chunk_record.chunk.chunk_id,
                        evicted,
                    )

    def _refresh_gauges(self) -> None:
        """Recompute the chunk-state gauges from the scheduling records."""
        states = [
            chunk.state
            for record in self._campaigns.values()
            for chunk in record.chunks
        ]
        workers = {
            chunk.worker_id
            for record in self._campaigns.values()
            for chunk in record.chunks
            if chunk.state == LEASED and chunk.worker_id is not None
        }
        self.metrics.campaigns.set(len(self._campaigns))
        self.metrics.chunks_pending.set(states.count(PENDING))
        self.metrics.chunks_leased.set(states.count(LEASED))
        self.metrics.chunks_done.set(states.count(DONE))
        self.metrics.workers_active.set(len(workers))
        if self.journal is not None:
            journal = self.journal.journal
            self.metrics.journal_appends.set(journal.appends)
            self.metrics.journal_records_replayed.set(journal.records_replayed)
            self.metrics.journal_torn_tails.set(journal.torn_tails)
            self.metrics.journal_compactions.set(journal.compactions)

    def _missing_results(self, record: CampaignRecord, chunk: WorkChunk) -> int:
        """How many of a chunk's runs have no entry in the shared cache."""
        cache = ResultCache(self.cache_dir)
        specs = record.run_specs[chunk.start : chunk.stop]
        return sum(1 for spec in specs if not cache.path_for(spec).is_file())

    def _log(self, record: CampaignRecord, message: str) -> None:
        record.events.append(f"[{record.campaign_id}] {message}")
        _LOG.info(message, extra={"campaign": record.campaign_id})
