"""Distributed campaign service: coordinator, worker protocol, REST surface.

``repro.service`` turns a :class:`~repro.api.spec.CampaignSpec` into a
shardable unit of distributed work without ever shipping simulation data
over the wire:

* :mod:`repro.service.chunks` — deterministic flattening of a spec into
  its ordered :class:`RunSpec` list, content fingerprinting, and sharding
  into :class:`WorkChunk` index ranges.
* :mod:`repro.service.coordinator` — :class:`CampaignCoordinator`: submit
  (idempotent by fingerprint), lease-based claim/heartbeat/ack scheduling
  with lazy expiry reaping, cache-verified acks, and reduction of the
  finished campaign into the same tables single-host ``api.run`` produces.
* :mod:`repro.service.worker` — :class:`ChunkWorker`: claim → simulate via
  the normal :class:`CampaignEngine` (lockstep batches included) → publish
  into the shared NPZ cache → ack, with a lease heartbeat thread.
* :mod:`repro.service.rest` — :class:`CoordinatorServer`: the stdlib
  ``http.server`` control surface (submit, poll, claim, ack, tables,
  health).
* :mod:`repro.service.client` — :class:`CoordinatorClient`: the urllib
  client mirroring the coordinator protocol, so workers drive local and
  remote coordinators interchangeably (optionally retrying idempotent
  operations under a :class:`~repro.common.retry.RetryPolicy`).
* :mod:`repro.service.journal` — :class:`CoordinatorJournal`: the durable
  scheduling journal; a coordinator constructed with ``journal=`` records
  every submit/claim/heartbeat/ack/reap and replays them on restart, so
  chunk attempt counts and worker history survive a crash.

Because results land in the location-independent NPZ cache under each
run's content-derived key, chunk execution is idempotent and the whole
service is resumable: killed workers, re-claimed leases and coordinator
restarts only ever cost re-simulation of runs that never hit the cache.
"""

from repro.service.chunks import (
    WorkChunk,
    campaign_fingerprint,
    campaign_run_specs,
    shard_campaign,
)
from repro.service.client import CoordinatorClient
from repro.service.coordinator import CampaignCoordinator, CoordinatorMetrics
from repro.service.journal import CoordinatorJournal
from repro.service.rest import CoordinatorServer
from repro.service.worker import ChunkWorker

__all__ = [
    "CampaignCoordinator",
    "CoordinatorMetrics",
    "CoordinatorJournal",
    "ChunkWorker",
    "CoordinatorClient",
    "CoordinatorServer",
    "WorkChunk",
    "campaign_fingerprint",
    "campaign_run_specs",
    "shard_campaign",
]
