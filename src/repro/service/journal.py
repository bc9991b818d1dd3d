"""The coordinator's scheduling journal: durable protocol history.

Every state-changing protocol event — submit, claim, heartbeat, ack,
reap — is appended to a :class:`~repro.common.journal.Journal` before the
coordinator answers the request, so a coordinator killed mid-campaign can
be restarted with the same ``--journal`` path and resume with its chunk
attempt counts and worker history intact.  The shared NPZ cache already
made the *results* recoverable; the journal makes the *scheduling state*
recoverable too.

Replay semantics (:meth:`CampaignCoordinator._replay_journal`):

* ``submit`` carries the full normalized spec mapping, so the campaign is
  re-registered exactly as submitted (same fingerprint, same chunks).
* ``claim`` / ``ack`` / ``reap`` move the chunk records through the same
  transitions the live protocol did.  Heartbeats only extend monotonic
  lease deadlines, which are meaningless in a new process — they replay
  as worker-history no-ops.
* A chunk still leased at the end of replay returns to *pending* (its
  deadline died with the old process) but keeps its attempt count and
  last worker — the evicted worker's eventual heartbeat is refused and
  its ack remains cache-verified idempotent, exactly as if the lease had
  expired.

After a successful replay the journal is compacted to one ``snapshot``
record per campaign (the fixed point of replay), so restart cost stays
proportional to live state, not to campaign history.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.common.journal import Journal, decode_record

__all__ = ["CampaignEvent", "ChunkEvent", "ChunkState", "CoordinatorJournal"]

#: Journal record schema version; bump when record shapes change.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ChunkState:
    """One chunk's scheduling state inside a ``snapshot`` record (the
    coordinator's ``ChunkRecord.to_mapping`` form)."""

    chunk_id: str
    start: int = 0
    stop: int = 0
    fingerprint: str = ""
    state: str = "pending"
    worker_id: Optional[str] = None
    attempts: int = 0
    n_simulated: int = 0
    n_cache_hits: int = 0


@dataclass(frozen=True)
class CampaignEvent:
    """A replayed ``submit`` or ``snapshot`` record."""

    v: int
    event: str
    campaign_id: str
    spec: Dict[str, Any]
    chunks: Tuple[ChunkState, ...] = ()


@dataclass(frozen=True)
class ChunkEvent:
    """A replayed ``claim``, ``heartbeat``, ``ack`` or ``reap`` record."""

    v: int
    event: str
    campaign_id: str
    chunk_id: str
    worker_id: Optional[str] = None
    accepted: bool = False
    n_simulated: int = 0
    n_cache_hits: int = 0


_RECORD_TYPES = {
    "submit": CampaignEvent,
    "snapshot": CampaignEvent,
    "claim": ChunkEvent,
    "heartbeat": ChunkEvent,
    "ack": ChunkEvent,
    "reap": ChunkEvent,
}


class CoordinatorJournal:
    """Typed record constructors over the raw checksummed journal.

    Centralizes the wire shape of every scheduling event so the
    coordinator's writer and replayer (and the tests) cannot drift apart.
    """

    def __init__(
        self, path: Union[str, Path, Journal], *, fsync: str = "always"
    ):
        if isinstance(path, Journal):
            self._journal = path
        else:
            self._journal = Journal(path, fsync=fsync)

    @property
    def path(self) -> Path:
        return self._journal.path

    @property
    def journal(self) -> Journal:
        return self._journal

    # -- event writers ---------------------------------------------------

    def record_submit(
        self, campaign_id: str, spec_mapping: Mapping[str, Any]
    ) -> None:
        self._journal.append(
            {
                "v": SCHEMA_VERSION,
                "event": "submit",
                "campaign_id": campaign_id,
                "spec": dict(spec_mapping),
            }
        )

    def record_claim(
        self, campaign_id: str, chunk_id: str, worker_id: str
    ) -> None:
        self._journal.append(
            {
                "v": SCHEMA_VERSION,
                "event": "claim",
                "campaign_id": campaign_id,
                "chunk_id": chunk_id,
                "worker_id": worker_id,
            }
        )

    def record_heartbeat(
        self, campaign_id: str, chunk_id: str, worker_id: str
    ) -> None:
        self._journal.append(
            {
                "v": SCHEMA_VERSION,
                "event": "heartbeat",
                "campaign_id": campaign_id,
                "chunk_id": chunk_id,
                "worker_id": worker_id,
            }
        )

    def record_ack(
        self,
        campaign_id: str,
        chunk_id: str,
        worker_id: str,
        accepted: bool,
        n_simulated: int,
        n_cache_hits: int,
    ) -> None:
        self._journal.append(
            {
                "v": SCHEMA_VERSION,
                "event": "ack",
                "campaign_id": campaign_id,
                "chunk_id": chunk_id,
                "worker_id": worker_id,
                "accepted": bool(accepted),
                "n_simulated": int(n_simulated),
                "n_cache_hits": int(n_cache_hits),
            }
        )

    def record_reap(
        self, campaign_id: str, chunk_id: str, worker_id: Optional[str]
    ) -> None:
        self._journal.append(
            {
                "v": SCHEMA_VERSION,
                "event": "reap",
                "campaign_id": campaign_id,
                "chunk_id": chunk_id,
                "worker_id": worker_id,
            }
        )

    def record_snapshot(
        self,
        campaign_id: str,
        spec_mapping: Mapping[str, Any],
        chunks: List[Dict[str, Any]],
    ) -> None:
        self._journal.append(
            self.snapshot_record(campaign_id, spec_mapping, chunks)
        )

    @staticmethod
    def snapshot_record(
        campaign_id: str,
        spec_mapping: Mapping[str, Any],
        chunks: List[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """The compaction form: one record that replays to a whole campaign."""
        return {
            "v": SCHEMA_VERSION,
            "event": "snapshot",
            "campaign_id": campaign_id,
            "spec": dict(spec_mapping),
            "chunks": [dict(chunk) for chunk in chunks],
        }

    # -- reading / maintenance ------------------------------------------

    def replay(self) -> List[Dict[str, Any]]:
        """Committed records oldest-first (torn tail healed in place)."""
        return self._journal.replay()

    def decode(
        self, record: Mapping[str, Any], number: int
    ) -> Union[CampaignEvent, ChunkEvent, None]:
        """Replayed record ``number`` (1-based) as its typed event.

        ``None`` for an unknown event type (tolerated: forward schemas).  A
        known event whose fields are missing or malformed raises
        :class:`~repro.common.exceptions.JournalError` naming the record.
        """
        event = record.get("event")
        kind = _RECORD_TYPES.get(event) if isinstance(event, str) else None
        if kind is None:
            return None
        return decode_record(kind, record, self.path, number)

    def compact(self, records: List[Dict[str, Any]]) -> int:
        return self._journal.compact(records)

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "CoordinatorJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
