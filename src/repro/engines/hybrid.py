"""Hybrid CPU+GPU engine — the paper's stated future direction (§VI).

"investigating hybrid implementations of the distance threshold search
that uses the CPU and the GPU concurrently."

The query set is split: a fraction goes to a GPU engine, the remainder to
the CPU R-tree, both running concurrently.  Response time is the maximum
of the two sides, so the optimal split equalizes their modeled times.
:meth:`HybridEngine.balanced_split` estimates that split from a pilot run
on a query sample, then :meth:`search` executes the full workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.merge import merge_disjoint
from ..core.result import ResultSet
from ..core.types import SegmentArray
from ..gpu.costmodel import CostBreakdown, price
from ..gpu.profiler import CpuSearchProfile, SearchProfile
from .base import GpuEngineBase, SearchEngine
from .cpu_rtree import CpuRTreeEngine

__all__ = ["HybridEngine", "HybridProfile"]


@dataclass
class HybridProfile:
    """Joint execution record: both sides ran concurrently."""

    engine: str
    num_queries: int
    gpu_fraction: float
    gpu_profile: SearchProfile
    cpu_profile: CpuSearchProfile
    wall_seconds: float = 0.0

    def modeled_time(self) -> CostBreakdown:
        """Concurrent execution: the slower side defines response time."""
        t_gpu = price(self.gpu_profile)
        t_cpu = price(self.cpu_profile)
        return t_gpu if t_gpu.total >= t_cpu.total else t_cpu


class HybridEngine(SearchEngine):
    """Run part of ``Q`` on a GPU engine and the rest on CPU-RTree.

    ``gpu_fraction`` is the share of queries (by count, after temporal
    sorting) handed to the GPU side.  Queries are dealt round-robin so both
    sides see the same temporal mix — handing the GPU a contiguous time
    slice would skew its temporal bins' selectivity.
    """

    name = "hybrid"

    def __init__(self, gpu_engine: GpuEngineBase,
                 cpu_engine: CpuRTreeEngine, *,
                 gpu_fraction: float = 0.5) -> None:
        if not 0.0 <= gpu_fraction <= 1.0:
            raise ValueError("gpu_fraction must be in [0, 1]")
        self.gpu_engine = gpu_engine
        self.cpu_engine = cpu_engine
        self.gpu_fraction = gpu_fraction

    @staticmethod
    def _split(queries: SegmentArray, gpu_fraction: float
               ) -> tuple[np.ndarray, np.ndarray]:
        n = len(queries)
        n_gpu = int(round(n * gpu_fraction))
        # Round-robin deal in t_start order for an unbiased temporal mix.
        order = np.argsort(queries.ts, kind="stable")
        stride = max(1, int(round(n / max(n_gpu, 1)))) if n_gpu else n + 1
        take_gpu = np.zeros(n, dtype=bool)
        take_gpu[order[::stride][:n_gpu]] = True
        # Top up if rounding under-filled the GPU share.
        deficit = n_gpu - int(take_gpu.sum())
        if deficit > 0:
            pool = order[~take_gpu[order]]
            take_gpu[pool[:deficit]] = True
        return np.flatnonzero(take_gpu), np.flatnonzero(~take_gpu)

    def search(self, queries: SegmentArray, d: float, *,
               exclude_same_trajectory: bool = False
               ) -> tuple[ResultSet, HybridProfile]:
        wall0 = time.perf_counter()
        gpu_idx, cpu_idx = self._split(queries, self.gpu_fraction)
        gpu_q = queries.take(gpu_idx)
        cpu_q = queries.take(cpu_idx)

        if len(gpu_q):
            gpu_res, gpu_prof = self.gpu_engine.search(
                gpu_q, d, exclude_same_trajectory=exclude_same_trajectory)
        else:
            gpu_res = ResultSet()
            gpu_prof = SearchProfile(engine=self.gpu_engine.name,
                                     num_queries=0)
        if len(cpu_q):
            cpu_res, cpu_prof = self.cpu_engine.search(
                cpu_q, d, exclude_same_trajectory=exclude_same_trajectory)
        else:
            cpu_res = ResultSet()
            cpu_prof = CpuSearchProfile(engine=self.cpu_engine.name,
                                        num_queries=0)

        result = merge_disjoint([gpu_res, cpu_res])
        profile = HybridProfile(
            engine=self.name,
            num_queries=len(queries),
            gpu_fraction=self.gpu_fraction,
            gpu_profile=gpu_prof,
            cpu_profile=cpu_prof,
            wall_seconds=time.perf_counter() - wall0,
        )
        return result, profile

    # -- split tuning -------------------------------------------------------------

    @classmethod
    def balanced_split(
        cls,
        gpu_engine: GpuEngineBase,
        cpu_engine: CpuRTreeEngine,
        queries: SegmentArray,
        d: float,
        *,
        pilot_fraction: float = 0.1,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Estimate the GPU share that equalizes both sides' times.

        A pilot sample of the queries runs on both engines; with per-query
        throughputs ``1/t_gpu`` and ``1/t_cpu``, concurrent completion
        requires ``f * t_gpu = (1 - f) * t_cpu``, i.e.
        ``f = t_cpu / (t_gpu + t_cpu)``.
        """
        rng = rng or np.random.default_rng(0)
        n_pilot = max(1, int(len(queries) * pilot_fraction))
        pilot = queries.take(np.sort(rng.choice(len(queries), size=n_pilot,
                                                replace=False)))
        _, gp = gpu_engine.search(pilot, d)
        _, cp = cpu_engine.search(pilot, d)
        t_gpu = price(gp).total
        t_cpu = price(cp).total
        if t_gpu + t_cpu == 0:
            return 0.5
        return float(t_cpu / (t_gpu + t_cpu))
