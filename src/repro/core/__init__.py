"""Core types, geometry, refinement and the public search façade."""

from .bruteforce import brute_force_search
from .distance import PairIntervals, compare_pairs
from .geometry import MBB, expand, segment_mbbs
from .planner import PlanEstimate, WorkloadStats, plan_search
from .result import ResultSet, merge_intervals
from .search import (DistanceThresholdSearch, SearchOutcome,
                     register_engine)
from .types import SegmentArray, Trajectory, concatenate
from .verify import VerificationReport, verify_results

__all__ = [
    "DistanceThresholdSearch", "MBB", "PairIntervals", "PlanEstimate",
    "ResultSet", "SearchOutcome", "SegmentArray", "Trajectory",
    "VerificationReport", "WorkloadStats", "brute_force_search",
    "compare_pairs", "concatenate", "expand", "merge_intervals",
    "plan_search", "register_engine", "segment_mbbs", "verify_results",
]
