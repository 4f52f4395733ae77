"""Core types, geometry, refinement and the public search façade."""

from .bruteforce import brute_force_search
from .distance import PairIntervals, compare_pairs
from .geometry import MBB, expand, segment_mbbs
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
    "WorkloadStats", "brute_force_search", "compare_pairs",
    "concatenate", "expand", "knn_brute_force",
    "merge_intervals", "plan_search", "register_engine",
    "segment_mbbs", "verify_results",
]
