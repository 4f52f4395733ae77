"""Simulated GPU cluster: one virtual GPU per node, broadcast queries,
merge results.

Executes the paper's multi-node vision (§III): each node holds a shard of
``D`` in its own device memory with its own index; the query set (which
fits in any single GPU's memory) is broadcast; every node runs the search
locally; the host union of the per-node result sets is the answer.
Because shards are disjoint and covering, the merged result set equals a
single-node search of the whole database — the merge
(:func:`repro.core.merge.merge_disjoint`) checks disjointness, and the
integration tests assert the equality.

Response time under the model is ``max`` over nodes (nodes run
concurrently) plus a broadcast term, so the cluster report exposes load
imbalance directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.merge import merge_disjoint
from ..core.result import ResultSet
from ..core.types import SegmentArray
from ..engines.base import GpuEngineBase
from ..gpu.costmodel import CostBreakdown, GpuCostModel
from ..gpu.profiler import SearchProfile
from .partition import partition_database

__all__ = ["GpuCluster", "ClusterProfile"]


@dataclass
class ClusterProfile:
    """Per-node profiles plus cluster-level roll-ups."""

    num_nodes: int
    node_profiles: list[SearchProfile]
    strategy: str
    wall_seconds: float = 0.0

    def modeled_time(self, model: GpuCostModel) -> CostBreakdown:
        """Concurrent nodes: the slowest shard defines response time.

        The query broadcast is charged once (nodes receive in parallel on
        independent PCIe links; the interconnect fan-out is assumed to
        overlap with the slowest node's compute).
        """
        slowest = CostBreakdown()
        for prof in self.node_profiles:
            t = prof.modeled_time(model)
            if t.total > slowest.total:
                slowest = t
        return slowest

    def imbalance(self) -> float:
        """max/mean of per-node comparison counts (1.0 = perfect)."""
        work = np.array([p.total_comparisons for p in self.node_profiles],
                        dtype=np.float64)
        if work.sum() == 0:
            return 1.0
        return float(work.max() / work.mean())


class GpuCluster:
    """A set of simulated GPU nodes over a partitioned database.

    ``engine_factory(shard)`` builds the per-node engine — e.g.
    ``lambda shard: GpuTemporalEngine(shard, num_bins=1000)``.  Each
    factory call gets its own :class:`VirtualGPU` unless the factory
    shares one deliberately (don't: real nodes don't share memory).
    """

    def __init__(self, database: SegmentArray, num_nodes: int,
                 engine_factory: Callable[[SegmentArray], GpuEngineBase],
                 *, strategy: str = "round_robin") -> None:
        self.strategy = strategy
        self.shards = partition_database(database, num_nodes, strategy)
        self.nodes = [engine_factory(shard) for shard in self.shards]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def search(self, queries: SegmentArray, d: float, *,
               exclude_same_trajectory: bool = False
               ) -> tuple[ResultSet, ClusterProfile]:
        """Broadcast ``queries`` to all nodes and merge the results."""
        wall0 = time.perf_counter()
        parts: list[ResultSet] = []
        profiles: list[SearchProfile] = []
        for node in self.nodes:
            res, prof = node.search(
                queries, d,
                exclude_same_trajectory=exclude_same_trajectory)
            parts.append(res)
            profiles.append(prof)
        merged = merge_disjoint(parts)
        profile = ClusterProfile(
            num_nodes=self.num_nodes,
            node_profiles=profiles,
            strategy=self.strategy,
            wall_seconds=time.perf_counter() - wall0,
        )
        return merged, profile
