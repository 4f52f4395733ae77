"""Durability: write-ahead logging, checkpoints, and crash recovery.

Everything the serving stack mutates in memory — ingests, tombstones,
compactions — is made restartable here:

* :mod:`repro.durability.wal` frames every mutation as a CRC32'd,
  fsync'd JSONL record *before* it is applied (write-ahead
  discipline), so a torn final record is detected and dropped, never
  half-applied;
* :mod:`repro.durability.checkpoint` writes atomic (tmp-dir +
  ``os.replace``) snapshots of the versioned database: its arrays plus
  a recipe per warm engine, which a restart rebuilds (data, never
  serialized objects);
* :mod:`repro.durability.manager` composes both:
  :class:`DurabilityPolicy` sets the sync mode and the checkpoint
  cadence; :meth:`DurabilityManager.recover` restores the exact
  pre-crash logical epoch from the newest valid checkpoint plus the
  WAL tail;
* :mod:`repro.durability.crashpoints` supplies the seeded
  :class:`KillSwitch` the crash campaign
  (:mod:`repro.campaigns.crash`) uses to die at exact points in the
  apply path.

Every failure a caller should handle — a corrupt WAL, an unloadable
checkpoint, a directory that cannot be recovered — is a
:class:`DurabilityError`.

Entry points::

    svc = QueryService(db, durability_dir="state/")   # durable writes
    svc = QueryService.recover("state/")              # after a crash
"""

from .checkpoint import (Checkpoint, CheckpointError, EngineRecipe,
                         list_checkpoints, load_checkpoint,
                         write_checkpoint)
from .crashpoints import KILL_POINTS, KillSwitch, SimulatedCrash
from .manager import (DurabilityError, DurabilityManager,
                      DurabilityPolicy, RecoveryResult)
from .wal import (SYNC_MODES, WalCorruptionError, WalRecord,
                  WriteAheadLog, read_wal)

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "DurabilityError",
    "DurabilityManager",
    "DurabilityPolicy",
    "EngineRecipe",
    "KILL_POINTS",
    "KillSwitch",
    "RecoveryResult",
    "SYNC_MODES",
    "SimulatedCrash",
    "WalCorruptionError",
    "WalRecord",
    "WriteAheadLog",
    "list_checkpoints",
    "load_checkpoint",
    "read_wal",
    "write_checkpoint",
]
