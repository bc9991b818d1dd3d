"""Durable per-stream alarm history for the gateway.

:class:`AlarmJournal` records every alarm transition the
:class:`~repro.gateway.pool.MonitorPool` confirms, plus stream lifecycle
markers, in the checksummed append-only format of
:mod:`repro.common.journal`.  A gateway restarted over the same journal
replays it into per-stream, per-view alarm history, so a re-opened stream
serves the alarms it raised before the crash — the detection evidence an
operator acts on is not lost with the process.

Replay semantics:

* ``alarm`` events accumulate per ``(stream_id, view)`` in append order —
  exactly the order the pool confirmed them.
* ``close`` (a clean ``close_stream``) drops the stream's history: the
  client received its final report, the story is over.  A crash or drop
  writes no ``close``, so the history survives for the re-opened stream.
* ``open`` events are lifecycle markers only; history accumulates across
  them, because a re-open after a crash continues the same plant stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.common.codec import encode
from repro.common.journal import Journal, decode_record

__all__ = ["AlarmJournal"]

#: Bump when the record shapes below change incompatibly.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class _StreamRecord:
    """An ``open`` or ``close`` lifecycle marker."""

    v: int
    event: str
    stream_id: str


@dataclass(frozen=True)
class _AlarmRecord:
    """One confirmed alarm transition of one view of a stream."""

    v: int
    event: str
    stream_id: str
    view: str
    alarm: Dict[str, Any]


_RECORD_TYPES = {"open": _StreamRecord, "close": _StreamRecord, "alarm": _AlarmRecord}


class AlarmJournal:
    """Typed alarm-event records over a :class:`~repro.common.journal.Journal`.

    Parameters
    ----------
    path_or_journal:
        Where the journal lives — a path (a :class:`Journal` is built over
        it) or an existing :class:`Journal`.
    fsync:
        Durability policy forwarded to :class:`Journal` when building one.
    """

    def __init__(
        self,
        path_or_journal: Union[str, Path, Journal],
        *,
        fsync: str = "always",
    ):
        if isinstance(path_or_journal, Journal):
            self.journal = path_or_journal
        else:
            self.journal = Journal(path_or_journal, fsync=fsync)

    @property
    def path(self) -> Path:
        """The backing journal file."""
        return self.journal.path

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_open(self, stream_id: str) -> None:
        """A stream was admitted to the pool."""
        self.journal.append(encode(_StreamRecord(SCHEMA_VERSION, "open", stream_id)))

    def record_alarm(
        self, stream_id: str, view: str, alarm: Dict[str, Any]
    ) -> None:
        """One confirmed alarm transition of one view of a stream.

        ``alarm`` is the :meth:`~repro.live.alarms.AlarmEvent.to_mapping`
        payload; it round-trips bit-for-bit through the journal's canonical
        JSON, so replayed history is byte-identical to what was served
        before the crash.
        """
        self.journal.append(
            encode(_AlarmRecord(SCHEMA_VERSION, "alarm", stream_id, view, alarm))
        )

    def record_close(self, stream_id: str) -> None:
        """A stream closed cleanly; its history is complete and dropped."""
        self.journal.append(encode(_StreamRecord(SCHEMA_VERSION, "close", stream_id)))

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self) -> Dict[str, Dict[str, List[Dict[str, Any]]]]:
        """Rebuild per-stream alarm history from the journal.

        Returns ``{stream_id: {view: [alarm mapping, ...]}}`` for every
        stream that was open (or dropped uncleanly) when the journal
        ended.  Cleanly closed streams are absent.  Every record of a known
        event is decoded through its record type, so one whose checksum
        holds but whose fields are missing or malformed raises
        :class:`~repro.common.exceptions.JournalError` naming it; records
        of unknown events are skipped (forward schemas).
        """
        history: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
        for number, raw in enumerate(self.journal.replay(), start=1):
            event = raw.get("event")
            kind = _RECORD_TYPES.get(event) if isinstance(event, str) else None
            if kind is None:
                continue
            record = decode_record(kind, raw, self.path, number)
            if event == "alarm":
                views = history.setdefault(record.stream_id, {})
                views.setdefault(record.view, []).append(encode(record)["alarm"])
            elif event == "close":
                history.pop(record.stream_id, None)
            # "open" is a lifecycle marker: nothing to apply.
        return history

    def close(self) -> None:
        """Release the underlying file handle."""
        self.journal.close()

    def __enter__(self) -> "AlarmJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
