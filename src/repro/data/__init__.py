"""Dataset generators and IO: Random, Random-dense, the Merger-equivalent
restricted N-body simulation, and query-set construction."""

from .io import load_segments, save_segments
from .merger import MergerConfig, merger_dataset, simulate_merger
from .moving import EpochDelta, FleetConfig, MovingObjectsWorkload
from .queries import queries_from_database, query_trajectory_ids
from .random_walk import (REID_STELLAR_DENSITY, make_random_walks,
                          random_dataset, random_dense_dataset)

__all__ = [
    "EpochDelta", "FleetConfig", "MergerConfig",
    "MovingObjectsWorkload", "REID_STELLAR_DENSITY",
    "load_segments",
    "make_random_walks", "merger_dataset", "queries_from_database",
    "query_trajectory_ids", "random_dataset", "random_dense_dataset",
    "save_segments", "simulate_merger",
]
