"""Database partitioning: the initial layout of the sharded service.

The paper's intended deployment (§III): "D is partitioned across multiple
GPU-equipped compute nodes in a cluster so that aggregate GPU memory is
large", with each node searching its shard in-memory and the results
merged — :class:`~repro.sharding.ShardedService` with one shard per node.  Distance-threshold searches make this trivial in principle —
every (query, entry) pair is independent — but the partitioning strategy
still matters for *balance* (shards should hold equal work) and for
per-node index quality.  Three strategies are provided:

* ``round_robin`` — trajectory k goes to node k mod N.  Near-perfect
  segment balance for homogeneous trajectories; every node's shard spans
  the full space and time, so per-node indexes look like shrunken copies
  of the global one.
* ``temporal`` — contiguous time slices (by segment t_start).  Gives each
  node a narrow temporal window (great bin selectivity) but queries route
  to few nodes, serializing a temporally clustered query workload.
* ``spatial`` — slabs along the longest spatial axis (by segment center).
  Gives spatial locality, but dense regions (the merger core) make shards
  uneven.

All strategies partition whole *segments*; trajectories may straddle
spatial/temporal shard boundaries, which is fine: the search semantics
are per-segment, and the merged result set is provably identical to the
single-node result because every entry segment lands on exactly one node.
"""

from __future__ import annotations

import numpy as np

from ..core.types import SegmentArray

__all__ = ["PARTITION_STRATEGIES", "partition_indices"]


def _round_robin(database: SegmentArray, num_nodes: int) -> list[np.ndarray]:
    # Deal whole trajectories so per-node tries keep trajectory
    # contiguity (the R-tree and result semantics prefer it).
    traj_ids = np.unique(database.traj_ids)
    assignment = {int(t): i % num_nodes for i, t in enumerate(traj_ids)}
    node_of_seg = np.array([assignment[int(t)]
                            for t in database.traj_ids])
    return [np.flatnonzero(node_of_seg == n) for n in range(num_nodes)]


def _temporal(database: SegmentArray, num_nodes: int) -> list[np.ndarray]:
    order = np.argsort(database.ts, kind="stable")
    return [np.sort(chunk) for chunk in np.array_split(order, num_nodes)]


def _spatial(database: SegmentArray, num_nodes: int) -> list[np.ndarray]:
    mins, maxs = database.spatial_bounds()
    axis = int(np.argmax(maxs - mins))
    centers = 0.5 * (database.starts[:, axis] + database.ends[:, axis])
    order = np.argsort(centers, kind="stable")
    return [np.sort(chunk) for chunk in np.array_split(order, num_nodes)]


PARTITION_STRATEGIES = {
    "round_robin": _round_robin,
    "temporal": _temporal,
    "spatial": _spatial,
}


def partition_indices(database: SegmentArray, num_nodes: int,
                      strategy: str = "round_robin"
                      ) -> list[np.ndarray]:
    """Row indices of each shard: ``num_nodes`` disjoint, covering
    index arrays (:class:`~repro.sharding.ShardMap` takes each shard's
    rows with them and keeps the row→shard ownership map)."""
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; available: "
                         f"{sorted(PARTITION_STRATEGIES)}")
    if len(database) == 0:
        raise ValueError("cannot partition an empty database")
    idx_lists = PARTITION_STRATEGIES[strategy](database, num_nodes)
    total = sum(ix.shape[0] for ix in idx_lists)
    if total != len(database):
        raise AssertionError("partition lost or duplicated segments")
    return idx_lists

