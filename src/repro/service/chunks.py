"""Deterministic sharding of a campaign spec into claimable work chunks.

The distributed service never ships simulation data between hosts — only
*coordinates*.  That works because everything a worker needs to execute a
slice of a campaign is derivable, deterministically, from the spec itself:

* :func:`campaign_run_specs` flattens a :class:`~repro.api.spec.CampaignSpec`
  into the exact ordered list of :class:`~repro.experiments.parallel.RunSpec`
  a single-host :meth:`~repro.api.session.Session.run` would execute —
  calibration runs first, then every expanded scenario's repeats, per sweep
  seed.  Coordinator and workers derive the same list independently, so a
  chunk on the wire is just an index range.
* :func:`shard_campaign` splits that list into :class:`WorkChunk` slices
  sized by :meth:`~repro.common.config.ServiceConfig.resolved_chunk_size`:
  the ``[service]`` section's ``chunk_size``, or the plan's, or a batch of
  the plan's ``batch_size`` per worker, or two runs per worker, so a
  campaign spreads over several service workers.
* :func:`~repro.api.spec.campaign_fingerprint` (re-exported here) hashes
  the spec's canonical mapping; it is both the campaign id (submitting the
  same spec twice is idempotent) and the wire-level guard that a worker and
  its coordinator agree on what a chunk's indices mean.

Results land in the shared NPZ cache under each run's existing
:meth:`~repro.experiments.parallel.RunSpec.cache_key`, which makes chunk
execution idempotent: re-running a chunk (after a lost lease, a worker
crash or a coordinator restart) only simulates the runs whose entries are
missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.api.spec import CampaignSpec, campaign_fingerprint
from repro.common.codec import Mapped
from repro.common.exceptions import ConfigurationError
from repro.experiments.parallel import (
    RunSpec,
    calibration_specs,
    scenario_specs,
)

__all__ = [
    "WorkChunk",
    "campaign_run_specs",
    "campaign_fingerprint",
    "shard_campaign",
]


def campaign_run_specs(spec: CampaignSpec) -> List[RunSpec]:
    """The ordered run specs a single-host execution of ``spec`` simulates.

    Per sweep seed: the calibration campaign, then every expanded
    scenario's repeated evaluation runs — exactly the specs (and therefore
    exactly the cache keys) :meth:`Session.run` produces, which is what
    makes distributed results indistinguishable from single-host ones.
    """
    specs: List[RunSpec] = []
    scenarios = spec.expanded_scenarios()
    for seed in spec.seeds():
        experiment = spec.experiment_for(seed)
        specs.extend(calibration_specs(experiment))
        for scenario in scenarios:
            specs.extend(scenario_specs(experiment, scenario))
    return specs


@dataclass(frozen=True)
class WorkChunk(
    Mapped, label="chunk", ignore_keys=("campaign_id", "lease_seconds")
):
    """One claimable slice of a campaign's flattened run-spec list.

    The wire form carries only indices plus the campaign fingerprint; the
    worker re-derives the actual :class:`RunSpec` objects from the spec
    document and takes ``specs[start:stop]``.  A claim reply is that form
    plus the campaign id and the lease length, which decoding skips.
    """

    chunk_id: str
    start: int
    stop: int
    fingerprint: str

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise ConfigurationError(
                f"chunk [{self.start}, {self.stop}) is empty or negative"
            )

    @property
    def n_runs(self) -> int:
        """Number of runs this chunk covers."""
        return self.stop - self.start

    def specs_of(self, spec: CampaignSpec) -> List[RunSpec]:
        """Materialize this chunk's run specs from its campaign spec.

        Refuses a spec whose fingerprint does not match the chunk's — the
        guard against a worker pairing a chunk descriptor with a stale or
        differently-configured spec document.
        """
        fingerprint = campaign_fingerprint(spec)
        if fingerprint != self.fingerprint:
            raise ConfigurationError(
                f"chunk {self.chunk_id} belongs to campaign "
                f"{self.fingerprint}, not {fingerprint}; refetch the spec"
            )
        specs = campaign_run_specs(spec)
        if self.stop > len(specs):
            raise ConfigurationError(
                f"chunk {self.chunk_id} ends at run {self.stop} but the "
                f"campaign only has {len(specs)} runs"
            )
        return specs[self.start : self.stop]


def shard_campaign(
    spec: CampaignSpec, chunk_size: Optional[int] = None
) -> List[WorkChunk]:
    """Split a campaign into claimable chunks.

    ``chunk_size`` defaults to the ``[service]`` section's setting, which
    itself falls back to the execution plan
    (:meth:`~repro.common.config.ServiceConfig.resolved_chunk_size`): whole
    lockstep batches of the plan's ``batch_size`` when it sets one, two
    runs per worker otherwise.
    """
    if chunk_size is None:
        chunk_size = spec.service.resolved_chunk_size(spec.experiment.parallel)
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    n_runs = len(campaign_run_specs(spec))
    fingerprint = campaign_fingerprint(spec)
    chunks = []
    for index, start in enumerate(range(0, n_runs, chunk_size)):
        chunks.append(
            WorkChunk(
                chunk_id=f"c{index:04d}",
                start=start,
                stop=min(start + chunk_size, n_runs),
                fingerprint=fingerprint,
            )
        )
    return chunks
