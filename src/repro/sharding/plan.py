"""Shard layout and ownership routing for the sharded service.

:class:`ShardMap` is the router's authoritative answer to "which shard
owns this row?".  It is built once from the initial database with one
of :data:`~repro.sharding.partition.PARTITION_STRATEGIES` — so the
initial layout is exactly the cluster partition the paper's §III
deployment describes — and then *extended* as the router ingests new
trajectories:

* ``round_robin`` — whole trajectories.  A known trajectory id keeps
  its shard (trajectory contiguity survives ingestion); a new id goes
  to the least-loaded non-empty shard by current segment count.
* ``temporal`` / ``spatial`` — per-segment value routing.  The initial
  partition's slab boundaries are recorded as cut values, and new
  segments route by ``searchsorted`` on their ``t_start`` (temporal) or
  segment center along the partition axis (spatial) — the same rule
  that placed the initial rows.

Routing is clamped to *non-empty* shards (``num_shards`` larger than
the database yields structurally empty shards that never run a
service), which preserves the disjoint+covering invariant: every
segment is owned by exactly one live shard.

The map also keeps the bookkeeping the router's robustness story needs:
which shards hold a trajectory (deletes fan out to all of them), how
many live trajectories each shard has (refusing a delete that would
empty a shard), and every seg_id owned by each shard (the partial-answer
verifier restricts the referee database to surviving shards).
"""

from __future__ import annotations

import numpy as np

from ..core.types import SegmentArray
from .partition import partition_indices

__all__ = ["ShardMap"]


class ShardMap:
    """Partition layout plus incremental ownership routing."""

    def __init__(self, database: SegmentArray, num_shards: int,
                 strategy: str = "round_robin") -> None:
        self.strategy = strategy
        self.num_shards = int(num_shards)
        idx_lists = partition_indices(database, num_shards, strategy)
        self.shard_bases = [database.take(ix) for ix in idx_lists]
        #: seg_id arrays owned per shard (initial base + every routed
        #: append), used to restrict the referee on partial answers.
        self._seg_parts: list[list[np.ndarray]] = [
            [base.seg_ids] for base in self.shard_bases]
        #: trajectory id -> shards holding at least one of its segments.
        self._traj_shards: dict[int, set[int]] = {}
        #: live (non-deleted) trajectory ids per shard.
        self._live_trajs: list[set[int]] = [set()
                                            for _ in range(num_shards)]
        self._seg_counts = [len(b) for b in self.shard_bases]
        for shard, base in enumerate(self.shard_bases):
            for tid in np.unique(base.traj_ids).tolist():
                self._traj_shards.setdefault(int(tid), set()).add(shard)
                self._live_trajs[shard].add(int(tid))
        if strategy == "spatial":
            mins, maxs = database.spatial_bounds()
            self._axis = int(np.argmax(maxs - mins))
        else:
            self._axis = -1
        if strategy == "round_robin":
            # Whole-trajectory ownership; with round_robin a trajectory
            # lives on exactly one shard.
            self._owner = {tid: min(shards) for tid, shards
                           in self._traj_shards.items()}
            self._cuts = None
        else:
            self._owner = None
            self._cuts = self._slab_cuts(database, idx_lists)

    # -- construction helpers ----------------------------------------------------

    def _route_value(self, segments: SegmentArray) -> np.ndarray:
        """The scalar each row routes by under a slab strategy."""
        if self.strategy == "temporal":
            return segments.ts
        return 0.5 * (segments.starts[:, self._axis]
                      + segments.ends[:, self._axis])

    def _slab_cuts(self, database: SegmentArray,
                   idx_lists: list[np.ndarray]) -> np.ndarray:
        """Upper routing bound of each shard but the last (running max
        over the initial slabs, so empty trailing slabs inherit the
        previous bound and ``searchsorted`` never lands on them)."""
        values = self._route_value(database)
        cuts, running = [], -np.inf
        for ix in idx_lists[:-1]:
            if len(ix):
                running = max(running, float(values[ix].max()))
            cuts.append(running)
        return np.asarray(cuts)

    # -- introspection -----------------------------------------------------------

    @property
    def nonempty_shards(self) -> list[int]:
        """Shards that own at least one segment (ever)."""
        return [i for i, n in enumerate(self._seg_counts) if n > 0]

    def seg_ids_of(self, shard: int) -> np.ndarray:
        """Every seg_id ever routed to ``shard`` (tombstoned rows
        included — the referee's logical view hides those itself)."""
        parts = self._seg_parts[shard]
        return (np.concatenate(parts) if parts
                else np.zeros(0, dtype=np.int64))

    def shards_of(self, traj_id: int) -> tuple[int, ...]:
        """Shards holding segments of one trajectory (deletes fan out
        to all of them)."""
        return tuple(sorted(self._traj_shards.get(int(traj_id), ())))

    def knows(self, traj_id: int) -> bool:
        return int(traj_id) in self._traj_shards

    def would_empty(self, traj_id: int) -> list[int]:
        """Shards that deleting ``traj_id`` would leave without a
        single live trajectory (the per-shard database refuses that)."""
        tid = int(traj_id)
        return [s for s in self.shards_of(tid)
                if self._live_trajs[s] == {tid}]

    # -- routing -----------------------------------------------------------------

    def _clamp(self, shard: int) -> int:
        """Snap a routed index to the nearest non-empty shard (slab
        routing can land on a structurally empty trailing shard)."""
        nonempty = self.nonempty_shards
        if shard in nonempty:
            return shard
        below = [s for s in nonempty if s < shard]
        return below[-1] if below else nonempty[0]

    def assign_append(self, segments: SegmentArray
                      ) -> list[tuple[int, SegmentArray]]:
        """Route (already globally seg_id-stamped) rows to their owning
        shards and record the ownership; returns ``(shard, rows)``
        pairs for every shard that receives at least one row."""
        if self.strategy == "round_robin":
            owners = np.empty(len(segments), dtype=np.int64)
            for i, tid in enumerate(segments.traj_ids.tolist()):
                tid = int(tid)
                owner = self._owner.get(tid)
                if owner is None:
                    owner = min(self.nonempty_shards,
                                key=lambda s: self._seg_counts[s])
                    self._owner[tid] = owner
                owners[i] = owner
        else:
            owners = np.searchsorted(self._cuts,
                                     self._route_value(segments),
                                     side="left")
            owners = np.asarray([self._clamp(int(s)) for s in owners],
                                dtype=np.int64)
        routed = []
        for shard in np.unique(owners).tolist():
            shard = int(shard)
            rows = segments.take(np.flatnonzero(owners == shard))
            self._seg_parts[shard].append(rows.seg_ids)
            self._seg_counts[shard] += len(rows)
            for tid in np.unique(rows.traj_ids).tolist():
                self._traj_shards.setdefault(int(tid), set()).add(shard)
                self._live_trajs[shard].add(int(tid))
            routed.append((shard, rows))
        return routed

    def note_delete(self, traj_id: int) -> None:
        """Record a tombstoned trajectory (it no longer counts as live
        on any shard; ownership of its rows is unchanged — the rows
        stay physically present until the shard compacts)."""
        tid = int(traj_id)
        for shard in self._traj_shards.get(tid, ()):
            self._live_trajs[shard].discard(tid)

    def describe(self) -> dict:
        """JSON-friendly layout summary."""
        return {
            "strategy": self.strategy,
            "num_shards": self.num_shards,
            "shard_segments": list(self._seg_counts),
            "shard_trajectories": [len(s) for s in self._live_trajs],
        }
