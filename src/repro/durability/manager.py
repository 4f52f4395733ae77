"""The durability manager: WAL + checkpoints + recovery for one service.

:class:`DurabilityManager` owns one on-disk directory:

.. code-block:: text

    <dir>/
        wal.jsonl           # CRC-framed mutation log (the tail)
        checkpoints/        # atomic snapshots (see checkpoint.py)
        standing/state.json # standing-query snapshot (repro.standing)
        events.jsonl        # telemetry event log, flushed at shutdown
        slow_queries.jsonl  # slow-query log, flushed at shutdown

The write path follows classic WAL discipline: every
:class:`~repro.ingest.Mutation` is framed, written, and synced *before*
it is applied to the in-memory
:class:`~repro.ingest.VersionedDatabase`; periodic checkpoints bound
replay time; the WAL is truncated through the *oldest retained*
checkpoint's epoch, so every checkpoint on disk can still be replayed
forward to the present.

:meth:`DurabilityManager.recover` inverts it: load the newest valid
checkpoint (skipping crash debris and corrupt directories), replay the
WAL tail (dropping a CRC-torn final record), and hand back a database
at the exact pre-crash logical epoch plus the warm-engine recipes the
service uses to prewarm its cache — or raise when the replay ends
short of a checkpoint that was committed.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..ingest import Mutation, VersionedDatabase
from ..obs import current as current_telemetry
from .checkpoint import (CheckpointError, EngineRecipe,
                         checkpoint_epoch, clean_tmp_dirs,
                         list_checkpoints, load_checkpoint,
                         write_checkpoint)
from .wal import SYNC_MODES, WalCorruptionError, WriteAheadLog

__all__ = ["DurabilityError", "DurabilityManager", "DurabilityPolicy",
           "RecoveryResult"]

#: Committed checkpoints retained; older ones are pruned after each
#: successful checkpoint.  Two, so a corrupt newest one still leaves a
#: floor — which the WAL reaches back to (see
#: :meth:`DurabilityManager.checkpoint`).
KEEP_CHECKPOINTS = 2


class DurabilityError(RuntimeError):
    """The durability directory cannot be attached or recovered."""


@dataclass(frozen=True)
class DurabilityPolicy:
    """Knobs of the durability layer.

    Parameters
    ----------
    sync:
        WAL sync mode (see :mod:`repro.durability.wal`).
    checkpoint_every:
        Mutations between periodic checkpoints (0 = only at
        compactions and explicit :meth:`DurabilityManager.checkpoint`
        calls).
    """

    sync: str = "fsync"
    checkpoint_every: int = 16

    def __post_init__(self) -> None:
        if self.sync not in SYNC_MODES:
            raise ValueError(f"unknown sync mode {self.sync!r}; "
                             f"expected one of {SYNC_MODES}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return asdict(self)


@dataclass
class RecoveryResult:
    """What one :meth:`DurabilityManager.recover` reconstructed."""

    database: VersionedDatabase
    #: epoch of the checkpoint recovery started from.
    checkpoint_epoch: int
    #: logical epoch after WAL replay — the pre-crash epoch.
    epoch: int
    #: WAL records applied on top of the checkpoint.
    replayed: int
    #: WAL records skipped as already covered by the checkpoint.
    skipped: int
    #: CRC-torn final records dropped (0 or 1).
    torn_dropped: int
    #: corrupt/incomplete checkpoint directories skipped over.
    invalid_checkpoints: int
    #: crashed-checkpoint tmp directories swept.
    tmp_dirs_removed: int
    #: warm-engine recipes persisted with the checkpoint.
    engines: list[EngineRecipe] = field(default_factory=list)
    #: the loaded checkpoint (artifact access for prewarm).
    checkpoint: object | None = None

    def to_dict(self) -> dict:
        """JSON-friendly summary (the database itself is omitted)."""
        return {"checkpoint_epoch": self.checkpoint_epoch,
                "epoch": self.epoch, "replayed": self.replayed,
                "skipped": self.skipped,
                "torn_dropped": self.torn_dropped,
                "invalid_checkpoints": self.invalid_checkpoints,
                "tmp_dirs_removed": self.tmp_dirs_removed,
                "engines": [r.to_dict() for r in self.engines]}


class DurabilityManager:
    """WAL + checkpoint lifecycle for one durability directory.

    Parameters
    ----------
    directory:
        Root of the durable state (created if missing).
    policy:
        :class:`DurabilityPolicy` (default policy when None).
    kill:
        Optional :class:`~repro.durability.crashpoints.KillSwitch`
        threaded into the WAL and checkpoint writer (crash campaign).
    """

    WAL_NAME = "wal.jsonl"
    CHECKPOINTS_NAME = "checkpoints"

    def __init__(self, directory: str | Path, *,
                 policy: DurabilityPolicy | None = None,
                 kill=None) -> None:
        self.directory = Path(directory)
        self.policy = policy or DurabilityPolicy()
        self.kill = kill
        self.wal = WriteAheadLog(self.directory / self.WAL_NAME,
                                 sync=self.policy.sync, kill=kill)
        self.checkpoints_dir = self.directory / self.CHECKPOINTS_NAME
        self._ops_since_checkpoint = 0
        #: lifetime counters (exposed through service stats).
        self.checkpoints_written = 0
        self.wal_truncated_records = 0
        self.last_checkpoint_epoch: int | None = None

    # -- introspection -----------------------------------------------------------

    @property
    def has_state(self) -> bool:
        """Does the directory already hold a durable database?"""
        return bool(list_checkpoints(self.checkpoints_dir)) \
            or (self.directory / self.WAL_NAME).exists()

    def stats(self) -> dict:
        """JSON-friendly counters for service stats and the CLI."""
        return {
            "directory": str(self.directory),
            "policy": self.policy.to_dict(),
            "wal_appends": self.wal.appends,
            "wal_bytes": self.wal.bytes_written,
            "wal_truncated_records": self.wal_truncated_records,
            "checkpoints_written": self.checkpoints_written,
            "last_checkpoint_epoch": self.last_checkpoint_epoch,
            "ops_since_checkpoint": self._ops_since_checkpoint,
        }

    # -- write path --------------------------------------------------------------

    def attach(self, database: VersionedDatabase,
               warm_engines=()) -> Path:
        """Bootstrap a fresh directory around an existing database.

        Writes the initial checkpoint (epoch 0 for a new database) so
        recovery always has a floor to replay from.  Refuses a
        directory that already holds durable state — that state must
        be :meth:`recover`\\ ed, not silently overwritten.
        """
        if self.has_state:
            raise DurabilityError(
                f"{self.directory} already holds a durable database; "
                f"recover it (QueryService.recover) instead of "
                f"attaching a new one")
        return self.checkpoint(database, warm_engines=warm_engines)

    def log(self, database: VersionedDatabase,
            mutation: Mutation) -> None:
        """WAL one mutation *before* it is applied to ``database``
        (see :meth:`~repro.ingest.Mutation.to_payload` for what rides
        in the record and why replay reproduces the same state)."""
        before = self.wal.bytes_written
        self.wal.append(mutation.op, database.epoch + 1,
                        mutation.to_payload())
        self._ops_since_checkpoint += 1
        reg = current_telemetry().metrics
        reg.counter("repro_wal_appends_total",
                    "mutations framed into the WAL").inc(op=mutation.op)
        reg.counter("repro_wal_bytes_total",
                    "framed WAL bytes written").inc(
            self.wal.bytes_written - before)
        if self.kill is not None:
            # The record is durable; the in-memory apply has not run.
            self.kill.check("wal_post_append")

    def checkpoint_due(self) -> bool:
        """Has the periodic cadence elapsed?"""
        return (self.policy.checkpoint_every > 0
                and self._ops_since_checkpoint
                >= self.policy.checkpoint_every)

    def checkpoint(self, database: VersionedDatabase,
                   warm_engines=(), *,
                   kill_point: str = "checkpoint_mid") -> Path:
        """Write one checkpoint now, prune old checkpoints, and
        truncate the WAL through the oldest one retained — through
        the *newest* would strand the older one: were the newest to
        turn out corrupt, recovery would fall back to a floor with no
        log to replay forward from.

        ``warm_engines`` is an iterable of ``(method, params, engine)``
        triples describing the service's warm cache; every recipe is
        persisted, and an engine that declares ``persist_index`` is
        also pickled as a prewarm artifact (best-effort).
        """
        snap = database.snapshot()
        triples = list(warm_engines)
        wall0 = time.perf_counter()
        path = write_checkpoint(
            self.checkpoints_dir,
            {
                "epoch": database.epoch,
                "delta_epoch": database.delta_epoch,
                "base_version": database.base_version,
                "next_seg_id": database.next_seg_id,
                "base": snap.base,
                "delta": snap.delta,
                "tombstones": snap.tombstones,
                "counters": {
                    "total_appends": database.total_appends,
                    "total_appended_segments":
                        database.total_appended_segments,
                    "total_deletes": database.total_deletes,
                    "total_compactions": database.total_compactions,
                },
                "applied_keys": database.applied_keys,
            },
            engines=triples, kill=self.kill, kill_point=kill_point)
        wall_s = time.perf_counter() - wall0
        self.checkpoints_written += 1
        self.last_checkpoint_epoch = database.epoch
        self._ops_since_checkpoint = 0
        committed = list_checkpoints(self.checkpoints_dir)
        for stale in committed[KEEP_CHECKPOINTS:]:
            shutil.rmtree(stale)
        oldest_retained = committed[:KEEP_CHECKPOINTS][-1]
        self.wal_truncated_records += self.wal.truncate_through(
            checkpoint_epoch(oldest_retained))
        reg = current_telemetry().metrics
        reg.counter("repro_checkpoints_total",
                    "checkpoints committed").inc()
        reg.histogram("repro_checkpoint_seconds",
                      "checkpoint write wall seconds").observe(wall_s)
        current_telemetry().events.emit(
            "checkpoint", epoch=database.epoch, path=str(path),
            wall_seconds=wall_s, engines=len(triples))
        return path

    def close(self) -> None:
        self.wal.close()

    # -- recovery ----------------------------------------------------------------

    def recover(self, *, ceiling: int | None = None,
                replay=None) -> RecoveryResult:
        """Rebuild the database from disk (see module docstring).

        ``ceiling`` starts from the newest valid checkpoint at or below
        that epoch instead of the newest one (the standing state's
        epoch: see :meth:`repro.standing.StandingQueryManager.recover`).
        ``replay(database, mutation)`` applies each WAL record past the
        checkpoint (default :meth:`VersionedDatabase.apply`).
        """
        replay = replay or VersionedDatabase.apply
        swept = clean_tmp_dirs(self.checkpoints_dir)
        candidates = list_checkpoints(self.checkpoints_dir)
        if not candidates:
            raise DurabilityError(
                f"{self.directory}: no checkpoints to recover from "
                f"(was the directory ever attached to a service?)")
        checkpoint = None
        invalid = 0
        for candidate in candidates:
            if ceiling is not None \
                    and checkpoint_epoch(candidate) > ceiling:
                continue
            try:
                checkpoint = load_checkpoint(candidate)
                break
            except CheckpointError:
                invalid += 1
        if checkpoint is None and ceiling is not None:
            raise DurabilityError(
                f"{self.directory}: no valid checkpoint at or below "
                f"epoch {ceiling}, where the standing state is settled; "
                f"the WAL no longer reaches back to it")
        if checkpoint is None:
            raise DurabilityError(
                f"{self.directory}: all {len(candidates)} checkpoints "
                f"are corrupt; the WAL alone cannot seed a database")
        db = VersionedDatabase.restore(
            base=checkpoint.base, delta=checkpoint.delta,
            tombstones=checkpoint.tombstones,
            epoch=checkpoint.epoch,
            delta_epoch=checkpoint.delta_epoch,
            base_version=checkpoint.base_version,
            next_seg_id=checkpoint.next_seg_id,
            counters=checkpoint.counters,
            applied_keys=checkpoint.applied_keys)
        scan = self.wal.recover()
        replayed = skipped = 0
        for record in scan.records:
            if record.epoch <= checkpoint.epoch:
                skipped += 1
                continue
            if record.epoch != db.epoch + 1:
                raise WalCorruptionError(
                    f"{self.wal.path}: record lsn={record.lsn} produces "
                    f"epoch {record.epoch} but the database is at "
                    f"epoch {db.epoch} — the log has a gap")
            replay(db, Mutation.from_payload(record.op, record.payload))
            replayed += 1
        committed = checkpoint_epoch(candidates[0])
        if db.epoch < committed:
            # Returning would silently roll acknowledged writes back.
            raise DurabilityError(
                f"{self.directory}: recovery ended at epoch {db.epoch} "
                f"but {candidates[0].name} was committed at epoch "
                f"{committed}; that checkpoint is unreadable and the "
                f"WAL no longer reaches back to the one before it")
        result = RecoveryResult(
            database=db, checkpoint_epoch=checkpoint.epoch,
            epoch=db.epoch, replayed=replayed, skipped=skipped,
            torn_dropped=scan.torn_records,
            invalid_checkpoints=invalid, tmp_dirs_removed=swept,
            engines=list(checkpoint.engines), checkpoint=checkpoint)
        reg = current_telemetry().metrics
        reg.counter("repro_recoveries_total",
                    "recover() invocations").inc()
        reg.counter("repro_wal_replayed_total",
                    "WAL records replayed during recovery").inc(
            replayed)
        if scan.torn_records:
            reg.counter("repro_wal_torn_records_total",
                        "CRC-torn WAL tail records dropped").inc(
                scan.torn_records)
        current_telemetry().events.emit("recovery", **result.to_dict())
        return result
