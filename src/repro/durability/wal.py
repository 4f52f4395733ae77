"""The write-ahead log: CRC32-framed JSONL records, the one append log
on disk.

The database's ``wal.jsonl`` holds one record per
:class:`~repro.ingest.Mutation` (whose ``op`` and payload this module
does not interpret), written *before* the mutation is applied in
memory, so a crash at any instant loses at most the record being
written — and that torn tail is detected by its CRC frame and dropped
during recovery, never half-applied.  Everything else that must
survive a crash is a snapshot this log moves forward: checkpoints of
the database, and the standing-query state
(:mod:`repro.standing.store`), whose match events recovery re-derives
by replaying the log.

Record framing
--------------
One record per line::

    {"lsn": 12, "op": "append", "epoch": 13, "payload": {...}, "crc": 391842}

``crc`` is the CRC32 of the canonical JSON encoding of the record
*without* the ``crc`` key (sorted keys, compact separators).  A record
whose line is incomplete, whose JSON does not parse, or whose CRC does
not match its body is invalid.  During :func:`read_wal` an
invalid *final* record is tolerated (a torn write: the process died
mid-``write``) — it is dropped and counted.  An invalid record with
valid records *after* it is real corruption and raises
:class:`WalCorruptionError`: replaying past a hole would silently skip
a change.

Sync modes
----------
``"fsync"`` (default) flushes and ``os.fsync``\\ s after every append —
the durability the recovery guarantees assume.  ``"flush"`` flushes to
the OS but skips the fsync (crash-consistent against process death, not
power loss).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["SYNC_MODES", "WalCorruptionError", "WalRecord",
           "WriteAheadLog", "encode_record", "decode_line"]

SYNC_MODES = ("fsync", "flush")


class WalCorruptionError(RuntimeError):
    """A WAL record *before* the tail failed its CRC frame."""


@dataclass(frozen=True)
class WalRecord:
    """One framed record.

    ``lsn`` is the log sequence number (monotonic, starts at 1);
    ``epoch`` is the database epoch the recorded change *produced*,
    which is what replay checks against the restored checkpoint and
    what truncation cuts by.
    """

    lsn: int
    op: str
    epoch: int
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-friendly representation (no CRC frame)."""
        return {"lsn": int(self.lsn), "op": self.op,
                "epoch": int(self.epoch),
                "payload": dict(self.payload)}

    @classmethod
    def from_dict(cls, payload: dict) -> "WalRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(lsn=int(payload["lsn"]), op=payload["op"],
                   epoch=int(payload["epoch"]),
                   payload=dict(payload.get("payload", {})))


def _body_bytes(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def encode_record(record: WalRecord) -> bytes:
    """Frame one record as a CRC'd JSON line (trailing newline).

    The line is the canonical encoding of the record with ``crc``
    added; keys are sorted and ``"crc"`` sorts first, so it is spliced
    into the one serialisation the checksum was taken over.
    """
    canonical = _body_bytes(record.to_dict())
    return b'{"crc":%d,%s\n' % (zlib.crc32(canonical), canonical[1:])


def decode_line(line: bytes) -> WalRecord | None:
    """Decode one framed line; ``None`` when the frame is invalid
    (torn write, truncated JSON, or CRC mismatch)."""
    try:
        body = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(body, dict) or "crc" not in body:
        return None
    crc = body.pop("crc")
    try:
        record = WalRecord.from_dict(body)
    except (KeyError, TypeError, ValueError):
        return None
    if zlib.crc32(_body_bytes(record.to_dict())) != crc:
        return None
    return record


@dataclass
class WalReadResult:
    """What one WAL scan produced."""

    records: list[WalRecord]
    #: invalid final records dropped (0 or 1 — a torn tail).
    torn_records: int = 0
    #: bytes of valid framed records (torn tail excluded).
    valid_bytes: int = 0
    #: each record's framed line as read (newline excluded), so a
    #: truncation copies survivors instead of re-encoding them.
    lines: list[bytes] = field(default_factory=list)


class WriteAheadLog:
    """Append-only CRC-framed JSONL log at a fixed path.

    Parameters
    ----------
    path:
        The log file; created (with parents) on first append.
    sync:
        One of :data:`SYNC_MODES` (see module docstring).
    kill:
        Optional :class:`~repro.durability.crashpoints.KillSwitch`
        consulted mid-append — the crash-campaign hook that leaves a
        physically torn record on disk.
    """

    def __init__(self, path: str | Path, *, sync: str = "fsync",
                 kill=None) -> None:
        if sync not in SYNC_MODES:
            raise ValueError(f"unknown sync mode {sync!r}; expected "
                             f"one of {SYNC_MODES}")
        self.path = Path(path)
        self.sync = sync
        self.kill = kill
        self._fh = None
        self._next_lsn = 1
        #: lifetime counters (exposed through durability stats).
        self.appends = 0
        self.bytes_written = 0

    # -- writing -----------------------------------------------------------------

    def _handle(self):
        if self._fh is None or self._fh.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
        return self._fh

    def _sync(self, fh) -> None:
        fh.flush()
        if self.sync == "fsync":
            os.fsync(fh.fileno())

    def append(self, op: str, epoch: int, payload: dict) -> WalRecord:
        """Frame, write, and sync one record; returns it.

        The record is durable (per the sync mode) when this returns —
        the caller applies the change in memory only afterwards
        (write-ahead discipline).
        """
        record = WalRecord(self._next_lsn, op, epoch, payload)
        line = encode_record(record)
        fh = self._handle()
        if self.kill is not None and self.kill.matches("wal_mid_append"):
            # Simulated crash mid-write: leave a physically torn record
            # (a prefix of the framed line) on disk, then die.
            fh.write(line[:max(1, len(line) // 2)])
            self._sync(fh)
            self.kill.fire("wal_mid_append")
        fh.write(line)
        self._sync(fh)
        self._next_lsn += 1
        self.appends += 1
        self.bytes_written += len(line)
        return record

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._sync(self._fh)
            self._fh.close()

    # -- reading -----------------------------------------------------------------

    def recover(self) -> WalReadResult:
        """Scan the log for replay (see module docstring for the
        torn-tail rule) and make it appendable again: a torn tail is
        physically dropped, the next append continues the LSNs."""
        scan = read_wal(self.path)
        if scan.torn_records:
            self.drop_torn_tail(scan.valid_bytes)
        self._next_lsn = scan.records[-1].lsn + 1 if scan.records else 1
        return scan

    # -- truncation --------------------------------------------------------------

    def drop_torn_tail(self, valid_bytes: int) -> None:
        """Physically truncate the log to its valid prefix.

        Recovery tolerates a CRC-torn final record by *dropping* it;
        the half-written bytes must also leave the file, or the next
        append would glue onto them and turn the tolerated torn tail
        into a mid-log hole.
        """
        self.close()
        with open(self.path, "r+b") as fh:
            fh.truncate(valid_bytes)
            fh.flush()
            os.fsync(fh.fileno())

    def truncate_through(self, epoch: int) -> int:
        """Atomically drop records with ``record.epoch <= epoch`` (they
        are covered by a checkpoint).  Returns the number dropped.

        The surviving tail is rewritten to a tmp file and swapped in
        with ``os.replace`` so a crash mid-truncation leaves either the
        old or the new log, never a half-written one.
        """
        self.close()
        result = read_wal(self.path)
        keep = [line for record, line
                in zip(result.records, result.lines)
                if record.epoch > epoch]
        tmp = self.path.with_name(self.path.name + f".tmp-{os.getpid()}")
        with open(tmp, "wb") as fh:
            fh.write(b"".join(line + b"\n" for line in keep))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        if result.records:
            self._next_lsn = result.records[-1].lsn + 1
        return len(result.records) - len(keep)


def read_wal(path: str | Path) -> WalReadResult:
    """Read and validate a WAL file (missing file = empty log)."""
    path = Path(path)
    if not path.exists():
        return WalReadResult(records=[])
    raw = path.read_bytes()
    records: list[WalRecord] = []
    invalid_at: int | None = None
    valid_bytes = 0
    lines = raw.split(b"\n")
    # A trailing newline leaves one empty chunk; drop it (it is not a
    # record, torn or otherwise).
    if lines and lines[-1] == b"":
        lines.pop()
    for i, line in enumerate(lines):
        record = decode_line(line)
        if record is None:
            if invalid_at is None:
                invalid_at = i
            continue
        if invalid_at is not None:
            raise WalCorruptionError(
                f"{path}: record {invalid_at + 1} failed its CRC frame "
                f"but valid records follow — the log has a hole, not a "
                f"torn tail")
        if records and record.lsn != records[-1].lsn + 1:
            raise WalCorruptionError(
                f"{path}: LSN jumped from {records[-1].lsn} to "
                f"{record.lsn} — records are missing")
        records.append(record)
        valid_bytes += len(line) + 1
    return WalReadResult(records=records,
                         torn_records=0 if invalid_at is None else 1,
                         valid_bytes=valid_bytes,
                         lines=lines[:len(records)])
