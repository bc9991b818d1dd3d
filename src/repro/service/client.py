"""HTTP client for the campaign coordinator's REST surface.

:class:`CoordinatorClient` mirrors the in-process
:class:`~repro.service.coordinator.CampaignCoordinator` protocol
(``campaign_ids``, ``spec_mapping``, ``claim``, ``heartbeat``, ``ack``,
``progress``, ``tables``, ``health``) so a
:class:`~repro.service.worker.ChunkWorker` drives either interchangeably;
it additionally exposes ``submit`` for clients pushing a spec to a remote
coordinator.

Error mapping: a coordinator that cannot be reached at all (connection
refused, DNS failure, timeout) raises
:class:`~repro.common.exceptions.ServiceUnavailableError`; a reachable
coordinator that rejects the request raises
:class:`~repro.common.exceptions.ServiceError` carrying the server's
message — with HTTP 409 from ``GET /campaigns/<id>/tables`` mapped to the
typed :class:`~repro.common.exceptions.CampaignIncompleteError`, so
``--submit --no-wait`` pollers branch on the exception type instead of
string-matching.  Callers never see raw ``urllib`` exceptions.

Passing a :class:`~repro.common.retry.RetryPolicy` makes every
**idempotent** operation retry transparently on
``ServiceUnavailableError`` (exhaustion raises
:class:`~repro.common.exceptions.RetryExhaustedError` with the attempt
trail).  ``claim`` is deliberately never retried here: a lost claim
response leaves a lease the client does not know it holds, so claim
recovery belongs to the worker loop (and to the coordinator's lease
reaper), not to a blind re-send.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.api.spec import CampaignSpec
from repro.common.exceptions import (
    CampaignIncompleteError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.common.http import JsonClient

__all__ = ["CoordinatorClient"]


class CoordinatorClient(JsonClient):
    """Talks to a :class:`CoordinatorServer` over HTTP.

    Constructed as ``CoordinatorClient(base_url, timeout=30.0,
    retry=None)``; see :class:`~repro.common.http.JsonClient`.
    """

    fault_prefix = "service.client"
    peer = "campaign coordinator"
    unavailable = ServiceUnavailableError
    rejected = ServiceError
    statuses = {409: CampaignIncompleteError}

    # -- coordinator protocol (what ChunkWorker drives) ----------------
    def campaign_ids(self) -> List[str]:
        """Ids of every campaign the coordinator knows about."""
        return list(
            self._request("GET", "/campaigns", op="campaigns")["campaigns"]
        )

    def spec_mapping(self, campaign_id: str) -> Dict[str, Any]:
        """The campaign's normalized spec document."""
        return self._request(
            "GET", f"/campaigns/{campaign_id}/spec", op="spec"
        )["spec"]

    def claim(self, campaign_id: str, worker_id: str) -> Optional[Dict[str, Any]]:
        """Lease the next pending chunk; None when nothing is claimable."""
        response = self._request(
            "POST",
            f"/campaigns/{campaign_id}/claim",
            {"worker_id": worker_id},
            op="claim",
            idempotent=False,
        )
        return response["chunk"]

    def heartbeat(self, campaign_id: str, chunk_id: str, worker_id: str) -> bool:
        """Renew a lease; False means it is no longer ours."""
        response = self._request(
            "POST",
            f"/campaigns/{campaign_id}/chunks/{chunk_id}/heartbeat",
            {"worker_id": worker_id},
            op="heartbeat",
        )
        return bool(response["alive"])

    def ack(
        self,
        campaign_id: str,
        chunk_id: str,
        worker_id: str,
        n_simulated: int = 0,
        n_cache_hits: int = 0,
        spans: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Report a chunk complete; the coordinator verifies the cache.

        ``spans`` ships the worker's drained trace buffer for the chunk
        (tracing campaigns only); the coordinator merges every worker's
        buffer into the campaign trace served at ``/campaigns/<id>/trace``.
        """
        payload: Dict[str, Any] = {
            "worker_id": worker_id,
            "n_simulated": int(n_simulated),
            "n_cache_hits": int(n_cache_hits),
        }
        if spans:
            payload["spans"] = list(spans)
        return self._request(
            "POST",
            f"/campaigns/{campaign_id}/chunks/{chunk_id}/ack",
            payload,
            op="ack",
        )

    def progress(self, campaign_id: str) -> Dict[str, Any]:
        """Scheduling progress: chunk counts by state, run totals, complete."""
        return self._request("GET", f"/campaigns/{campaign_id}", op="progress")

    def chunk_states(self, campaign_id: str) -> List[Dict[str, Any]]:
        """Per-chunk state records (for monitoring, not the work loop)."""
        return list(
            self._request(
                "GET", f"/campaigns/{campaign_id}/chunks", op="chunks"
            )["chunks"]
        )

    def events(self, campaign_id: str) -> List[str]:
        """The coordinator's per-campaign progress log."""
        return list(
            self._request(
                "GET", f"/campaigns/{campaign_id}/events", op="events"
            )["events"]
        )

    def trace(self, campaign_id: str) -> List[Dict[str, Any]]:
        """The campaign's merged worker span records."""
        return list(
            self._request(
                "GET", f"/campaigns/{campaign_id}/trace", op="trace"
            )["spans"]
        )

    def tables(self, campaign_id: str) -> Dict[str, Any]:
        """The reduced result tables; raises ServiceError until complete."""
        return self._request(
            "GET", f"/campaigns/{campaign_id}/tables", op="tables"
        )["tables"]

    def health(self) -> Dict[str, Any]:
        """The coordinator's liveness document."""
        return self._request("GET", "/health", op="health")

    # -- client-only conveniences --------------------------------------
    def submit(self, spec: CampaignSpec) -> str:
        """Submit a campaign spec; returns its campaign id (idempotent)."""
        response = self._request(
            "POST", "/campaigns", {"spec": spec.to_mapping()}, op="submit"
        )
        return str(response["campaign_id"])
