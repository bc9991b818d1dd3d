"""Append-only, checksummed JSONL write-ahead journal.

The durable substrate under :mod:`repro.service.journal` and
:mod:`repro.gateway.journal`: state-changing events are appended as one
JSON record per line, each protected by a CRC32 checksum, so a process
that crashes mid-write can be restarted and replay exactly the records
that were fully committed.

Line format (one record)::

    crc32-hex \\t canonical-json \\n

where ``crc32-hex`` is eight lowercase hex digits over the UTF-8 bytes of
the JSON payload.  The payload is canonical (sorted keys, no whitespace)
so a record re-serialized after replay is byte-identical to the appended
one — the property the chaos equivalence pin relies on.

Crash semantics on :meth:`Journal.replay`:

* **Torn tail** — the *last* record is damaged (checksum mismatch, bad
  JSON, or a missing trailing newline) and nothing valid follows it.
  This is the expected residue of an interrupted append: the tail is
  truncated off the file and replay returns every committed record.
* **Mid-file corruption** — a damaged record is followed by valid ones.
  An append-only log cannot produce that shape by crashing; the storage
  itself lost committed data, so replay raises
  :class:`~repro.common.exceptions.JournalCorruptedError` instead of
  silently dropping history.

Durability is governed by the ``fsync`` policy: ``"always"`` fsyncs after
every append (survives power loss, the default), ``"never"`` leaves
flushing to the OS (fast, survives process crashes but not power loss).
:meth:`Journal.compact` atomically rewrites the file from a snapshot —
temp file + fsync + ``os.replace`` — so a crash mid-compaction leaves
either the old or the new journal, never a mix.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Type, TypeVar

from repro import faults
from repro.common.codec import decode
from repro.common.exceptions import (
    ConfigurationError,
    JournalCorruptedError,
    JournalError,
)

__all__ = ["Journal", "encode_record", "decode_line", "decode_record"]

T = TypeVar("T")

_FSYNC_POLICIES = ("always", "never")
_SEPARATOR = "\t"


def encode_record(record: Mapping[str, Any]) -> bytes:
    """Serialize *record* into one checksummed journal line (with newline)."""
    payload = json.dumps(
        dict(record), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    checksum = zlib.crc32(payload) & 0xFFFFFFFF
    return f"{checksum:08x}".encode("ascii") + b"\t" + payload + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one journal line (without trailing newline) back to a record.

    Raises ``ValueError`` on any damage: bad checksum, missing separator,
    or unparseable payload.  Callers decide whether the damage is a torn
    tail or corruption.
    """
    head, sep, payload = line.partition(_SEPARATOR.encode("ascii"))
    if not sep:
        raise ValueError("missing checksum separator")
    try:
        expected = int(head.decode("ascii"), 16)
    except (UnicodeDecodeError, ValueError) as error:
        raise ValueError(f"unreadable checksum: {error}") from None
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != expected:
        raise ValueError(
            f"checksum mismatch (stored {expected:08x}, computed {actual:08x})"
        )
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"unparseable payload: {error}") from None
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    return record


def decode_record(cls: Type[T], record: Mapping[str, Any], path, number: int) -> T:
    """Decode committed record ``number`` (1-based) of the journal at
    ``path`` through :mod:`repro.common.codec`.

    A record whose checksum holds but whose fields are missing or malformed
    raises :class:`~repro.common.exceptions.JournalError` naming the record.
    """
    try:
        return decode(cls, record, "record")
    except ConfigurationError as error:
        raise JournalError(
            f"journal {path} record {number} is malformed: {error}"
        ) from error


class Journal:
    """A durable, append-only record log backing crash recovery.

    Thread-safe: appends from concurrent request handlers serialize on an
    internal lock.  The file handle stays open between appends; callers
    should :meth:`close` (or use the journal as a context manager) when
    the owning component shuts down.
    """

    def __init__(self, path, *, fsync: str = "always"):
        if fsync not in _FSYNC_POLICIES:
            raise ConfigurationError(
                f"fsync policy must be one of {_FSYNC_POLICIES}, got {fsync!r}"
            )
        self._path = Path(path)
        self._fsync = fsync
        self._lock = threading.Lock()
        self._handle = None
        self.appends = 0
        self.replays = 0
        self.records_replayed = 0
        self.torn_tails = 0
        self.compactions = 0

    @property
    def path(self) -> Path:
        return self._path

    @property
    def fsync_policy(self) -> str:
        return self._fsync

    # -- writing ---------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> None:
        """Durably append one record (according to the fsync policy)."""
        line = encode_record(record)
        with self._lock:
            handle = self._open_locked()
            handle.write(line)
            handle.flush()
            if self._fsync == "always":
                os.fsync(handle.fileno())
            self.appends += 1
        # Fault seam: chaos plans kill the process or damage the tail
        # right after a committed append — the worst moment to crash.
        faults.fire("journal.append", path=str(self._path))

    def _open_locked(self):
        if self._handle is None or self._handle.closed:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self._path, "ab")
        return self._handle

    # -- reading ---------------------------------------------------------

    def replay(self) -> List[Dict[str, Any]]:
        """Return every committed record, healing a torn tail in place.

        A missing file replays to an empty list (a journal that never
        wrote is indistinguishable from one that was compacted empty).
        Damage anywhere but the tail raises
        :class:`~repro.common.exceptions.JournalCorruptedError`.
        """
        with self._lock:
            self._close_locked()
            try:
                raw = self._path.read_bytes()
            except FileNotFoundError:
                self.replays += 1
                return []
            records: List[Dict[str, Any]] = []
            damage: Optional[tuple] = None  # (offset, line_number, reason)
            offset = 0
            line_number = 0
            while offset < len(raw):
                line_number += 1
                newline = raw.find(b"\n", offset)
                if newline < 0:
                    # No terminator: an append died mid-write.
                    damage = (offset, line_number, "record has no newline")
                    break
                line = raw[offset:newline]
                try:
                    record = decode_line(line)
                except ValueError as error:
                    if damage is None:
                        damage = (offset, line_number, str(error))
                    else:
                        # Two damaged records can never both be the tail.
                        raise JournalCorruptedError(
                            self._path, damage[1], damage[2]
                        )
                else:
                    if damage is not None:
                        raise JournalCorruptedError(
                            self._path, damage[1], damage[2]
                        )
                    records.append(record)
                offset = newline + 1
            if damage is not None:
                self._truncate_locked(damage[0])
                self.torn_tails += 1
            self.replays += 1
            self.records_replayed += len(records)
            return records

    def _truncate_locked(self, size: int) -> None:
        with open(self._path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            if self._fsync == "always":
                os.fsync(handle.fileno())

    # -- maintenance -----------------------------------------------------

    def compact(self, records: Iterable[Mapping[str, Any]]) -> int:
        """Atomically replace the journal's contents with *records*.

        Writes a sibling temp file, fsyncs it, then ``os.replace``s it
        over the journal — a crash at any point leaves a complete old or
        new file.  Returns the number of records written.
        """
        lines = [encode_record(record) for record in records]
        with self._lock:
            self._close_locked()
            self._path.parent.mkdir(parents=True, exist_ok=True)
            temp = self._path.with_name(self._path.name + ".compact")
            with open(temp, "wb") as handle:
                handle.writelines(lines)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, self._path)
            self._fsync_parent()
            self.compactions += 1
        return len(lines)

    def _fsync_parent(self) -> None:
        # Make the rename itself durable (best effort — some platforms
        # refuse to open directories).
        try:
            fd = os.open(self._path.parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Journal(path={str(self._path)!r}, fsync={self._fsync!r}, "
            f"appends={self.appends})"
        )
