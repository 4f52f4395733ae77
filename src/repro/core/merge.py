"""The one merge of disjoint parts.

The repository's one partition-and-merge path, the sharded router,
splits the database into shards that are disjoint by construction, so
the union of the per-shard result sets must hold exactly
``sum(len(part))`` items.
:func:`merge_disjoint` checks that instead of assuming it: one
duplicated or lost row raises :class:`MergeInvariantError` rather than
returning a silently wrong answer.  :func:`merge_outcomes` rolls whole
:class:`~repro.core.search.SearchOutcome`\\ s up on top of it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..gpu.profiler import CpuSearchProfile, SearchProfile
from .result import ResultSet

if TYPE_CHECKING:  # core.search imports the engines, which import this
    from .search import SearchOutcome

__all__ = ["MergeInvariantError", "merge_disjoint", "merge_outcomes"]


class MergeInvariantError(RuntimeError):
    """A merge of supposedly disjoint parts lost or duplicated items."""


def merge_disjoint(parts: list[ResultSet]) -> ResultSet:
    """Union of disjoint result sets, checked: raises
    :class:`MergeInvariantError` unless the union has exactly
    ``sum(len(part))`` items."""
    union = ResultSet.from_parts(parts).deduplicated()
    expected = sum(len(p) for p in parts)
    if len(union) != expected:
        raise MergeInvariantError(
            f"parts are not disjoint: union has {len(union)} items, "
            f"parts sum to {expected}")
    return union


def merge_outcomes(outcomes: list[SearchOutcome]) -> SearchOutcome:
    """Roll the outcomes of concurrently searched disjoint parts into
    one (``outcomes`` must be non-empty).

    Results are the checked union; profile counters are summed and
    kernel statistics concatenated in part order; the profile is
    labeled with the parts' engine when they agree and ``"mixed"``
    otherwise; modeled time is the slowest part's (the parts ran
    concurrently, one node each).
    """
    results = merge_disjoint([o.results for o in outcomes])
    profiles = [o.profile for o in outcomes]
    engines = {p.engine for p in profiles}
    label = engines.pop() if len(engines) == 1 else "mixed"
    if all(isinstance(p, SearchProfile) for p in profiles):
        profile: SearchProfile | CpuSearchProfile = SearchProfile(
            engine=label,
            num_queries=profiles[0].num_queries,
            kernel_stats=[s for p in profiles for s in p.kernel_stats],
            h2d_bytes=sum(p.h2d_bytes for p in profiles),
            d2h_bytes=sum(p.d2h_bytes for p in profiles),
            num_transfers=sum(p.num_transfers for p in profiles),
            schedule_items=sum(p.schedule_items for p in profiles),
            redo_queries=sum(p.redo_queries for p in profiles),
            defaulted_queries=sum(p.defaulted_queries for p in profiles),
            raw_result_items=sum(p.raw_result_items for p in profiles),
            result_items=len(results),
            index_bytes=sum(p.index_bytes for p in profiles),
            wall_seconds=sum(p.wall_seconds for p in profiles),
            attempts=max(p.attempts for p in profiles),
            backoff_s=sum(p.backoff_s for p in profiles),
        )
    else:
        profile = CpuSearchProfile(
            engine=label,
            num_queries=profiles[0].num_queries,
            node_visits=sum(getattr(p, "node_visits", 0)
                            for p in profiles),
            comparisons=sum(getattr(p, "comparisons", 0)
                            for p in profiles),
            result_items=len(results),
            index_bytes=sum(p.index_bytes for p in profiles),
            wall_seconds=sum(p.wall_seconds for p in profiles),
        )
    slowest = max(outcomes, key=lambda o: o.modeled.total)
    return replace(slowest, results=results, profile=profile)
