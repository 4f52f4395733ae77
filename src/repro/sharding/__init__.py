"""Sharded serving: scatter-gather routing over replicated per-shard
query services, with failover, op-log catch-up, and exact merges."""

from .partition import PARTITION_STRATEGIES, partition_indices
from .plan import ShardMap
from .router import MergeInvariantError, Replica, Shard, ShardedService

__all__ = ["MergeInvariantError", "PARTITION_STRATEGIES", "Replica",
           "Shard", "ShardMap", "ShardedService", "partition_indices"]
