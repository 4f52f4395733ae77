"""Core types, geometry, refinement and the public search façade."""

from .analysis import (co_travel_time, interaction_groups, most_exposed,
                       proximity_graph)
from .bruteforce import brute_force_search
from .distance import PairIntervals, compare_pairs
from .geometry import MBB, expand, mbb_min_distance, overlaps, segment_mbbs
from .knn import KnnResult, TrajectoryKnn, knn_brute_force
from .planner import PlanEstimate, WorkloadStats, plan_search
from .result import ResultSet, merge_intervals
from .search import (DistanceThresholdSearch, SearchOutcome,
                     register_engine)
from .types import SegmentArray, Trajectory, concatenate
from .verify import VerificationReport, verify_results

__all__ = [
    "DistanceThresholdSearch", "KnnResult", "MBB",
    "PairIntervals", "PlanEstimate", "ResultSet", "SearchOutcome",
    "SegmentArray", "Trajectory", "TrajectoryKnn", "VerificationReport",
    "WorkloadStats", "brute_force_search", "co_travel_time",
    "compare_pairs", "concatenate", "expand", "interaction_groups",
    "knn_brute_force", "mbb_min_distance", "merge_intervals",
    "most_exposed", "overlaps", "plan_search", "proximity_graph",
    "register_engine", "segment_mbbs", "verify_results",
]
