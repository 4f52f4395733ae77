"""The versioned database: base + delta + tombstones under an epoch.

:class:`VersionedDatabase` is the single writer-side object; everything
readers touch is an immutable :class:`Snapshot`.  The contract that the
differential tests pin down: for any sequence of appends, deletes, and
compactions, a search over a snapshot must equal a search over a
from-scratch database built from :meth:`Snapshot.logical` — compaction
and the delta overlay are performance mechanisms, never semantics.

Epoch bookkeeping
-----------------
* ``epoch`` increments on *every* mutation (append, delete, compact) —
  it names a logical database state, and MVCC pinning is "remember the
  snapshot, which remembers its epoch".
* ``delta_epoch`` increments on append/delete and resets to 0 at
  compaction — with ``base_version`` it names the exact physical
  layout ``(base_version, delta_epoch)``.
* ``base_version`` increments only at compaction: cheap integer proxy
  for "the expensive indexes are stale".
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.result import ResultSet
from ..core.types import SegmentArray, Trajectory, concatenate
from .mutation import AppliedKeys, IngestError, Mutation, as_segments

__all__ = ["CompactionPolicy", "CompactionResult", "IngestReceipt",
           "Snapshot", "VersionedDatabase"]


#: tombstoned base rows over base rows past which compaction triggers
#: (tombstoned rows still occupy the index and are filtered on every
#: query).
MAX_TOMBSTONE_RATIO = 0.5


@dataclass(frozen=True)
class CompactionPolicy:
    """When to fold the delta into a fresh base.

    Compaction triggers when *either* bound is crossed:

    * ``max_delta_segments`` — absolute cap on delta rows (the delta is
      scanned brute-force per query, so its cost is linear in this);
    * ``max_delta_ratio`` — delta rows over base rows: keeps the scan a
      bounded *fraction* of query work as the database grows;
    * tombstoned base rows over base rows past
      ``MAX_TOMBSTONE_RATIO`` (tombstoned base rows still occupy the
      index and are filtered on every query).
    """

    max_delta_segments: int = 4096
    max_delta_ratio: float = 0.25

    def __post_init__(self) -> None:
        if self.max_delta_segments < 1:
            raise ValueError("max_delta_segments must be >= 1")
        if self.max_delta_ratio <= 0:
            raise ValueError("max_delta_ratio must be positive")

    def should_compact(self, *, delta_rows: int, base_rows: int,
                       tombstoned_rows: int) -> bool:
        if delta_rows >= self.max_delta_segments:
            return True
        if base_rows and delta_rows / base_rows > self.max_delta_ratio:
            return True
        return bool(base_rows) and (tombstoned_rows / base_rows
                                    > MAX_TOMBSTONE_RATIO)


@dataclass(frozen=True)
class IngestReceipt:
    """What one append did (returned to the client)."""

    epoch: int
    delta_epoch: int
    num_segments: int
    trajectory_ids: tuple[int, ...]
    #: database-wide segment ids assigned to the appended rows.
    seg_ids: tuple[int, ...]
    #: True when this append pushed the delta over the policy bounds
    #: (the owner decides when to actually run the compaction).
    compaction_due: bool
    #: True when an idempotency key matched an already-applied append:
    #: the receipt replays the original application, nothing mutated.
    deduplicated: bool = False

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {"epoch": self.epoch, "delta_epoch": self.delta_epoch,
                "num_segments": self.num_segments,
                "trajectory_ids": list(self.trajectory_ids),
                "seg_ids": list(self.seg_ids),
                "compaction_due": self.compaction_due,
                "deduplicated": self.deduplicated}


@dataclass(frozen=True)
class CompactionResult:
    """What one compaction did."""

    epoch: int
    base_version: int
    #: delta rows merged into the new base.
    merged_segments: int
    #: tombstoned rows dropped (from base and delta combined).
    dropped_segments: int
    new_base_rows: int
    wall_seconds: float


class Snapshot:
    """One immutable, queryable view of the versioned database.

    A snapshot pins the exact ``(base, delta, tombstones)`` triple that
    existed when it was taken; the writer mutating the
    :class:`VersionedDatabase` afterwards never changes it (MVCC).  All
    derived views (:meth:`logical`, the live delta, the seg→trajectory
    map) are computed lazily and cached on the snapshot itself, so
    repeated queries against one snapshot pay the materialization once.
    """

    def __init__(self, *, base: SegmentArray, delta: SegmentArray,
                 tombstones: frozenset[int], epoch: int,
                 delta_epoch: int, base_version: int) -> None:
        self.base = base
        self.delta = delta
        self.tombstones = tombstones
        self.epoch = epoch
        self.delta_epoch = delta_epoch
        self.base_version = base_version
        self._logical: SegmentArray | None = None
        self._live_delta: SegmentArray | None = None
        self._seg_sorted: np.ndarray | None = None
        self._traj_by_seg: np.ndarray | None = None

    def __repr__(self) -> str:
        return (f"Snapshot(epoch={self.epoch}, base={len(self.base)}, "
                f"delta={len(self.delta)}, "
                f"tombstones={len(self.tombstones)})")

    @property
    def clean(self) -> bool:
        """True when the snapshot is pure base: no delta, no tombstones
        — the overlay machinery can be skipped entirely."""
        return len(self.delta) == 0 and not self.tombstones

    @property
    def num_logical_segments(self) -> int:
        return len(self.base) + len(self.delta) \
            - self.num_tombstoned_rows

    @property
    def num_tombstoned_rows(self) -> int:
        if not self.tombstones:
            return 0
        dead = self._tombstone_array()
        return int(np.isin(self.base.traj_ids, dead).sum()
                   + np.isin(self.delta.traj_ids, dead).sum())

    def _tombstone_array(self) -> np.ndarray:
        return np.fromiter(sorted(self.tombstones), dtype=np.int64,
                           count=len(self.tombstones))

    # -- derived views (lazy, cached on the snapshot) ----------------------------

    def live_delta(self) -> SegmentArray:
        """Delta rows not hidden by a tombstone, in append order."""
        if self._live_delta is None:
            if not self.tombstones or len(self.delta) == 0:
                self._live_delta = self.delta
            else:
                keep = ~np.isin(self.delta.traj_ids,
                                self._tombstone_array())
                self._live_delta = self.delta.take(np.flatnonzero(keep))
        return self._live_delta

    def logical(self) -> SegmentArray:
        """The logical database this snapshot answers queries over:
        live base rows (base order) followed by live delta rows (append
        order), original seg_ids preserved.

        This is exactly what a from-scratch rebuild would index — the
        differential harness asserts query equality against it.
        """
        if self._logical is None:
            base = self.base
            if self.tombstones:
                keep = ~np.isin(base.traj_ids, self._tombstone_array())
                base = base.take(np.flatnonzero(keep))
            live = self.live_delta()
            self._logical = (base if len(live) == 0
                             else concatenate([base, live]))
        return self._logical

    def seg_ids_of_trajectory(self, traj_id: int) -> np.ndarray:
        """All physical seg_ids carried by one trajectory id, across
        base and delta, tombstoned or not.

        The standing-query layer calls this on a *post-delete* snapshot
        to learn which entry ids a tombstone just hid — the rows are
        physically still present, which is exactly why the lookup
        works.
        """
        traj_id = int(traj_id)
        return np.concatenate([
            self.base.seg_ids[self.base.traj_ids == traj_id],
            self.delta.seg_ids[self.delta.traj_ids == traj_id]])

    # -- tombstone filtering at refinement ---------------------------------------

    def _seg_to_traj(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted seg_ids, traj_id per sorted row)`` over base+delta."""
        if self._seg_sorted is None:
            seg = np.concatenate([self.base.seg_ids,
                                  self.delta.seg_ids])
            traj = np.concatenate([self.base.traj_ids,
                                   self.delta.traj_ids])
            order = np.argsort(seg, kind="stable")
            self._seg_sorted = seg[order]
            self._traj_by_seg = traj[order]
        return self._seg_sorted, self._traj_by_seg

    def filter_tombstoned(self, results: ResultSet) -> ResultSet:
        """Drop result items whose *entry* belongs to a tombstoned
        trajectory.

        The base index still contains tombstoned segments (deletes never
        touch it); this is the refinement-time filter that hides them.
        """
        if not self.tombstones or len(results) == 0:
            return results
        seg_sorted, traj_by_seg = self._seg_to_traj()
        pos = np.searchsorted(seg_sorted, results.e_ids)
        pos = np.clip(pos, 0, len(seg_sorted) - 1)
        traj = traj_by_seg[pos]
        # Unknown e_ids (not in this snapshot) can't be tombstoned.
        known = seg_sorted[pos] == results.e_ids
        dead = known & np.isin(traj, self._tombstone_array())
        if not dead.any():
            return results
        keep = np.flatnonzero(~dead)
        return ResultSet(results.q_ids[keep], results.e_ids[keep],
                         results.t_lo[keep], results.t_hi[keep])


class VersionedDatabase:
    """Writer-side state: the mutable log over an immutable base.

    Parameters
    ----------
    base:
        Initial (non-empty) segment database; becomes base version 0.
    policy:
        Compaction trigger bounds (default :class:`CompactionPolicy`).

    Mutations (:meth:`append`, :meth:`delete_trajectory`,
    :meth:`compact`, or :meth:`apply` of the value naming one) bump the
    epoch and invalidate the cached snapshot; :meth:`snapshot` is cheap
    when nothing changed.
    """

    def __init__(self, base: SegmentArray, *,
                 policy: CompactionPolicy | None = None) -> None:
        if len(base) == 0:
            raise ValueError("versioned database needs a non-empty base")
        self.policy = policy or CompactionPolicy()
        self._base = base
        self._delta_parts: list[SegmentArray] = []
        self._delta_rows = 0
        self._tombstones: set[int] = set()
        self._epoch = 0
        self._delta_epoch = 0
        self._base_version = 0
        self._next_seg_id = int(base.seg_ids.max()) + 1
        self._snapshot: Snapshot | None = None
        #: idempotency dedup table: client key -> JSON summary of the
        #: mutation it already named (checkpointed and WAL-carried, so
        #: retried client mutations stay exactly-once across a crash).
        self.applied_keys = AppliedKeys()
        #: lifetime counters (exposed through service stats).
        self.total_appends = 0
        self.total_appended_segments = 0
        self.total_deletes = 0
        self.total_compactions = 0

    @classmethod
    def restore(cls, *, base: SegmentArray, delta: SegmentArray,
                tombstones, epoch: int, delta_epoch: int,
                base_version: int, next_seg_id: int,
                policy: CompactionPolicy | None = None,
                counters: dict | None = None,
                applied_keys: dict | None = None
                ) -> "VersionedDatabase":
        """Reconstruct a database at an exact physical state.

        Used by crash recovery (:mod:`repro.durability`): the arguments
        come from a checkpoint, and the WAL tail is replayed on top
        with the ordinary mutation methods — ``next_seg_id`` makes the
        replayed appends assign the identical seg_ids they did before
        the crash.
        """
        db = cls(base, policy=policy)
        if len(delta):
            db._delta_parts = [delta]
            db._delta_rows = len(delta)
        db._tombstones = set(int(t) for t in tombstones)
        db._epoch = int(epoch)
        db._delta_epoch = int(delta_epoch)
        db._base_version = int(base_version)
        db._next_seg_id = int(next_seg_id)
        for name in ("total_appends", "total_appended_segments",
                     "total_deletes", "total_compactions"):
            setattr(db, name, int((counters or {}).get(name, 0)))
        db.applied_keys = AppliedKeys(applied_keys or {})
        return db

    # -- introspection -----------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def delta_epoch(self) -> int:
        return self._delta_epoch

    @property
    def base_version(self) -> int:
        return self._base_version

    @property
    def base(self) -> SegmentArray:
        return self._base

    @property
    def delta_rows(self) -> int:
        return self._delta_rows

    @property
    def num_tombstones(self) -> int:
        return len(self._tombstones)

    @property
    def next_seg_id(self) -> int:
        """The seg_id the next appended row will receive (persisted by
        checkpoints so WAL replay re-stamps identically)."""
        return self._next_seg_id

    def should_compact(self) -> bool:
        """Has the delta (or tombstone load) crossed the policy bounds?"""
        return self.policy.should_compact(
            delta_rows=self._delta_rows,
            base_rows=len(self._base),
            tombstoned_rows=self.snapshot().num_tombstoned_rows)

    def stats(self) -> dict:
        """JSON-friendly counters for dashboards and reports."""
        return {
            "epoch": self._epoch,
            "delta_epoch": self._delta_epoch,
            "base_version": self._base_version,
            "base_rows": len(self._base),
            "delta_rows": self._delta_rows,
            "tombstones": len(self._tombstones),
            "appends": self.total_appends,
            "appended_segments": self.total_appended_segments,
            "deletes": self.total_deletes,
            "compactions": self.total_compactions,
            "idempotency_keys": len(self.applied_keys),
        }

    # -- reads -------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The current immutable view (cached until the next mutation)."""
        if self._snapshot is None:
            delta = (concatenate(self._delta_parts)
                     if self._delta_parts else SegmentArray.empty())
            self._snapshot = Snapshot(
                base=self._base, delta=delta,
                tombstones=frozenset(self._tombstones),
                epoch=self._epoch, delta_epoch=self._delta_epoch,
                base_version=self._base_version)
        return self._snapshot

    # -- mutation prechecks ------------------------------------------------------
    # The durability layer WALs a mutation *before* applying it, so it
    # must be able to reject an invalid mutation without logging it
    # (a logged-but-unappliable record would poison every replay).

    def check(self, mutation: Mutation) -> bool:
        """Raise :class:`IngestError` iff :meth:`apply` would; returns
        whether the mutation will actually mutate (False = deleting an
        already-tombstoned id, a no-op that must not be WAL-logged)."""
        self.applied_keys.require_fresh(mutation.idempotency_key)
        if mutation.op == "append":
            self.check_append(mutation.segments,
                              keep_seg_ids=mutation.keep_seg_ids)
        elif mutation.op == "delete":
            return bool(self.check_delete(mutation.traj_id))
        return True

    def check_append(self, segments: SegmentArray, *,
                     keep_seg_ids: bool = False) -> None:
        """Raise :class:`IngestError` iff :meth:`append` would."""
        if len(segments) == 0:
            raise IngestError("nothing to append: the segment set is "
                              "empty (single-point trajectories carry "
                              "no segments)")
        dead = self._tombstones.intersection(
            np.unique(segments.traj_ids).tolist())
        if dead:
            raise IngestError(
                f"trajectory ids {sorted(dead)} are tombstoned; "
                f"compact before re-using a deleted id")
        if keep_seg_ids:
            ids = segments.seg_ids
            if len(np.unique(ids)) != len(ids):
                raise IngestError("keep_seg_ids append carries "
                                  "duplicate seg_ids")
            if int(ids.min()) < self._next_seg_id:
                raise IngestError(
                    f"keep_seg_ids append would collide: seg_id "
                    f"{int(ids.min())} < next_seg_id "
                    f"{self._next_seg_id}")

    def check_delete(self, traj_id: int) -> int:
        """Raise iff :meth:`delete_trajectory` would; returns how many
        segments the tombstone will hide (0 = already tombstoned, a
        no-op that must not be WAL-logged)."""
        traj_id = int(traj_id)
        if traj_id in self._tombstones:
            return 0
        hidden = int((self._base.traj_ids == traj_id).sum())
        for part in self._delta_parts:
            hidden += int((part.traj_ids == traj_id).sum())
        if hidden == 0:
            raise IngestError(f"trajectory {traj_id} is not in the "
                              f"database")
        if self.snapshot().num_logical_segments - hidden <= 0:
            raise IngestError(
                "refusing to delete the last live trajectory: the "
                "database must stay non-empty")
        return hidden

    # -- mutations ---------------------------------------------------------------

    def apply(self, mutation: Mutation):
        """Apply one :class:`~repro.ingest.Mutation`; returns what the
        method it names returns (receipt / hidden count / compaction
        result).  WAL replay, the service pipeline and the router all
        come through here."""
        if mutation.op == "append":
            return self.append(
                mutation.segments, keep_seg_ids=mutation.keep_seg_ids,
                idempotency_key=mutation.idempotency_key)
        if mutation.op == "delete":
            return self.delete_trajectory(
                mutation.traj_id,
                idempotency_key=mutation.idempotency_key)
        return self.compact()

    def replayed(self, mutation: Mutation):
        """The reply a keyed retry gets — the original receipt with
        ``deduplicated=True``, or the original hidden count — or None
        when ``mutation`` is unkeyed or its key is fresh.  Owners ask
        *before* WAL-logging: a duplicate client retry must neither
        re-log nor re-apply."""
        prior = self.applied_keys.lookup(mutation)
        if prior is None:
            return None
        if mutation.op == "delete":
            return int(prior["hidden"])
        # ``prior`` is the original receipt's to_dict(), JSON-typed.
        return IngestReceipt(**{
            **prior, "trajectory_ids": tuple(prior["trajectory_ids"]),
            "seg_ids": tuple(prior["seg_ids"]), "deduplicated": True})

    def append(self, segments: SegmentArray | Trajectory |
               list[Trajectory], *,
               keep_seg_ids: bool = False,
               idempotency_key: str | None = None) -> IngestReceipt:
        """Append new segments to the delta log.

        Accepts a :class:`Trajectory`, a list of them, or a raw
        :class:`SegmentArray`.  Fresh database-wide ``seg_ids`` are
        assigned (the caller's ids, if any, are ignored — entry ids are
        owned by the database).  With ``keep_seg_ids=True`` the caller's
        ids are trusted instead: the sharded router stamps *globally*
        unique ids before routing rows to the owning shard, so every
        shard-local database stays byte-compatible with the
        whole-database referee.  Kept ids must be fresh (>= the next
        unassigned id) and duplicate-free.  Appending to a tombstoned
        trajectory id is rejected: the tombstone hides *all* segments of
        that id, so the append would be silently invisible; re-use the
        id after a compaction has physically dropped the old rows.

        ``idempotency_key`` registers the append in the dedup table; a
        key that is already registered raises — the owner must consult
        :meth:`replayed` first and hand back the stored receipt instead
        of re-applying (exactly-once under client retries).
        """
        segments = as_segments(segments)
        self.applied_keys.require_fresh(idempotency_key)
        self.check_append(segments, keep_seg_ids=keep_seg_ids)
        n = len(segments)
        if keep_seg_ids:
            seg_ids = segments.seg_ids.astype(np.int64, copy=False)
        else:
            seg_ids = np.arange(self._next_seg_id,
                                self._next_seg_id + n, dtype=np.int64)
        stamped = SegmentArray(
            segments.xs, segments.ys, segments.zs, segments.ts,
            segments.xe, segments.ye, segments.ze, segments.te,
            segments.traj_ids, seg_ids)
        self._next_seg_id = max(self._next_seg_id,
                                int(seg_ids.max()) + 1)
        self._delta_parts.append(stamped)
        self._delta_rows += n
        self._bump(delta=True)
        self.total_appends += 1
        self.total_appended_segments += n
        receipt = IngestReceipt(
            epoch=self._epoch, delta_epoch=self._delta_epoch,
            num_segments=n,
            trajectory_ids=tuple(int(t) for t in
                                 np.unique(stamped.traj_ids)),
            seg_ids=tuple(int(s) for s in seg_ids),
            compaction_due=self.should_compact())
        self.applied_keys.record(idempotency_key, "append", receipt.to_dict())
        return receipt

    def delete_trajectory(self, traj_id: int, *,
                          idempotency_key: str | None = None) -> int:
        """Tombstone one trajectory; returns the number of segments the
        tombstone hides (base + delta).  Deleting an unknown id raises
        (a typo should not silently 'succeed').  ``idempotency_key``
        registers the delete in the dedup table (see :meth:`append`)."""
        traj_id = int(traj_id)
        self.applied_keys.require_fresh(idempotency_key)
        hidden = self.check_delete(traj_id)
        if not hidden:
            return 0
        self._tombstones.add(traj_id)
        self._bump(delta=True)
        self.total_deletes += 1
        self.applied_keys.record(
            idempotency_key, "delete",
            {"epoch": self._epoch, "traj_id": traj_id, "hidden": hidden})
        return hidden

    def compact(self) -> CompactionResult:
        """Fold the delta into a fresh base, dropping tombstoned rows.

        The new base is exactly :meth:`Snapshot.logical` of the
        pre-compaction state — seg_ids and relative order preserved —
        so query results cannot change across a compaction; only the
        physical layout (and therefore the index builds) does.
        """
        wall0 = time.perf_counter()
        snap = self.snapshot()
        merged = len(snap.live_delta())
        dropped = snap.num_tombstoned_rows
        new_base = snap.logical()
        if len(new_base) == 0:
            raise IngestError("compaction would empty the database")
        self._base = new_base
        self._delta_parts = []
        self._delta_rows = 0
        self._tombstones = set()
        self._base_version += 1
        self._delta_epoch = 0
        self._bump(delta=False)
        self.total_compactions += 1
        return CompactionResult(
            epoch=self._epoch, base_version=self._base_version,
            merged_segments=merged, dropped_segments=dropped,
            new_base_rows=len(new_base),
            wall_seconds=time.perf_counter() - wall0)

    def _bump(self, *, delta: bool) -> None:
        self._epoch += 1
        if delta:
            self._delta_epoch += 1
        self._snapshot = None
