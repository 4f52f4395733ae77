"""Cost-based engine selection: predict response times before searching.

The paper's conclusion is a decision rule — CPU for small/sparse,
GPUSpatioTemporal for large/dense unless ``d`` is small — that a user
must otherwise apply by hand.  This planner automates it: it estimates
each engine's per-query candidate count by *sampling* (a few dozen query
segments counted exactly against the database, O(sample x |D|) — far
cheaper than building an index or running a search), prices the counts
with the calibrated cost models, and returns ranked
:class:`PlanEstimate`s.

Sampling instead of closed-form density formulas matters: the Merger
dataset is heavily clustered, and any uniform-density estimate is off by
orders of magnitude exactly where engine choice is hardest.  The
accompanying tests verify the planner's *ranking* against measured
modeled times on the paper's scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.costmodel import CpuCostModel, GpuCostModel
from repro.core.types import SegmentArray

__all__ = ["PlanEstimate", "WorkloadStats", "plan_search"]


@dataclass(frozen=True)
class WorkloadStats:
    """Cheap (O(|D| + |Q|)) global statistics."""

    num_entries: int
    num_queries: int
    volume: float
    total_time: float
    mean_entry_extent_t: float
    mean_entry_extent_s: np.ndarray   # (3,)
    max_entry_extent_s: np.ndarray    # (3,)
    mean_query_extent_t: float
    mean_query_extent_s: np.ndarray   # (3,)
    side: np.ndarray                  # (3,)

    @classmethod
    def measure(cls, database: SegmentArray,
                queries: SegmentArray) -> "WorkloadStats":
        mins, maxs = database.spatial_bounds()
        side = np.maximum(maxs - mins, 1e-30)
        t_lo, t_hi = database.temporal_extent
        q_ext_s = np.stack([np.abs(queries.xe - queries.xs),
                            np.abs(queries.ye - queries.ys),
                            np.abs(queries.ze - queries.zs)], axis=1)
        e_ext_s = np.stack([np.abs(database.xe - database.xs),
                            np.abs(database.ye - database.ys),
                            np.abs(database.ze - database.zs)], axis=1)
        return cls(
            num_entries=len(database),
            num_queries=len(queries),
            volume=float(np.prod(side)),
            total_time=max(t_hi - t_lo, 1e-30),
            mean_entry_extent_t=float(np.mean(database.te - database.ts)),
            mean_entry_extent_s=e_ext_s.mean(axis=0),
            max_entry_extent_s=e_ext_s.max(axis=0),
            mean_query_extent_t=float(np.mean(queries.te - queries.ts)),
            mean_query_extent_s=q_ext_s.mean(axis=0),
            side=side,
        )

    @property
    def coexisting_entries(self) -> float:
        """Entries alive at a random instant."""
        return (self.num_entries * self.mean_entry_extent_t
                / self.total_time)


@dataclass(frozen=True)
class PlanEstimate:
    """One engine's predicted workload and response time."""

    engine: str
    params: dict
    est_candidates_per_query: float
    est_seconds: float

    def __repr__(self) -> str:  # compact, for ranked listings
        return (f"PlanEstimate({self.engine}, "
                f"~{self.est_candidates_per_query:.0f} cand/q, "
                f"~{self.est_seconds:.6f}s)")


@dataclass(frozen=True)
class _SampledSelectivity:
    """Mean per-query candidate counts measured on a query sample."""

    temporal: float
    spatiotemporal: float
    spatial: float
    rtree: float


def _sample_counts(database: SegmentArray, queries: SegmentArray,
                   d: float, *, num_bins: int, num_subbins: int,
                   cells_per_dim: int, segments_per_mbb: int,
                   sample: int, rng: np.random.Generator
                   ) -> _SampledSelectivity:
    """Count each engine's candidates exactly for sampled queries.

    One vectorized pass over the database per sampled query; mirrors
    each index's candidate rule without building the index.
    """
    n = len(database)
    take = rng.choice(len(queries), size=min(sample, len(queries)),
                      replace=False)
    mins, _ = database.spatial_bounds()
    stats = WorkloadStats.measure(database, queries)
    bin_width = stats.total_time / num_bins
    sub_w = stats.side / num_subbins
    cell = stats.side / cells_per_dim
    # Expected dead space on a random query/leaf alignment is half the
    # leaf's union extent on each side.
    leaf_s = stats.mean_entry_extent_s * segments_per_mbb / 2.0
    leaf_t = stats.mean_entry_extent_t * segments_per_mbb / 2.0
    # Spill: segments extend past their bin's nominal edge by up to
    # their own extent; candidate windows grow accordingly.
    max_spill = float((database.te - database.ts).max())

    d_lo = np.minimum(database.starts, database.ends)
    d_hi = np.maximum(database.starts, database.ends)

    c_t = c_st = c_sp = c_rt = 0.0
    for qi in take:
        q_lo3 = np.minimum(
            np.array([queries.xs[qi], queries.ys[qi], queries.zs[qi]]),
            np.array([queries.xe[qi], queries.ye[qi], queries.ze[qi]]))
        q_hi3 = np.maximum(
            np.array([queries.xs[qi], queries.ys[qi], queries.zs[qi]]),
            np.array([queries.xe[qi], queries.ye[qi], queries.ze[qi]]))
        qts, qte = queries.ts[qi], queries.te[qi]

        # GPUTemporal: bin-granular window with spill.
        t_mask = ((database.ts <= qte + bin_width)
                  & (database.ts >= qts - bin_width - max_spill))
        n_t = int(np.count_nonzero(t_mask))
        c_t += n_t

        # GPUSpatioTemporal: best single-subbin dimension among the
        # temporal candidates; default to temporal when every dimension
        # straddles a subbin boundary.
        best = None
        for dim in range(3):
            w_lo = q_lo3[dim] - d
            w_hi = q_hi3[dim] + d
            j_lo = int(np.clip((w_lo - mins[dim]) // sub_w[dim], 0,
                               num_subbins - 1))
            j_hi = int(np.clip((w_hi - mins[dim]) // sub_w[dim], 0,
                               num_subbins - 1))
            if j_lo != j_hi:
                continue
            sb_lo = mins[dim] + j_lo * sub_w[dim]
            sb_hi = sb_lo + sub_w[dim]
            cnt = int(np.count_nonzero(
                t_mask & (d_lo[:, dim] <= sb_hi)
                & (d_hi[:, dim] >= sb_lo)))
            best = cnt if best is None else min(best, cnt)
        c_st += n_t if best is None else best

        # GPUSpatial: cell-granular spatial overlap, all times, with
        # rasterization duplication (ids appear once per overlapped
        # cell the query probes).
        sp_mask = np.ones(n, dtype=bool)
        for dim in range(3):
            w_lo = q_lo3[dim] - d - cell[dim]
            w_hi = q_hi3[dim] + d + cell[dim]
            sp_mask &= (d_lo[:, dim] <= w_hi) & (d_hi[:, dim] >= w_lo)
        dup = float(np.prod(1.0 + stats.mean_entry_extent_s / cell))
        c_sp += np.count_nonzero(sp_mask) * min(dup, 8.0) ** 0.5

        # CPU-RTree: 4-D leaf overlap (leaf dead space in both space
        # and time), all r segments of each overlapping leaf.
        rt_mask = ((database.ts <= qte + leaf_t)
                   & (database.te >= qts - leaf_t))
        for dim in range(3):
            w_lo = q_lo3[dim] - d - leaf_s[dim]
            w_hi = q_hi3[dim] + d + leaf_s[dim]
            rt_mask &= (d_lo[:, dim] <= w_hi) & (d_hi[:, dim] >= w_lo)
        c_rt += int(np.count_nonzero(rt_mask))

    k = float(take.shape[0])
    return _SampledSelectivity(temporal=c_t / k, spatiotemporal=c_st / k,
                               spatial=c_sp / k, rtree=c_rt / k)


def _gpu_seconds(stats: WorkloadStats, cand_per_query: float,
                 model: GpuCostModel, *, gathers_per_query: float = 0.0
                 ) -> float:
    total_cmp = cand_per_query * stats.num_queries
    # Tail underutilization, mirroring the kernel cost model: a grid
    # with fewer warps than the device runs concurrently cannot fill it.
    ws = model.spec.warp_size
    grid_warps = max(1, -(-stats.num_queries // ws))
    concurrency = min(model.spec.concurrent_warps, grid_warps)
    compute = ((total_cmp * model.cycles_per_comparison
                + gathers_per_query * stats.num_queries
                * model.cycles_per_gather)
               / (concurrency * ws * model.spec.clock_hz))
    transfers = (stats.num_queries * 96) / model.spec.pcie_bandwidth
    return compute + transfers + model.spec.kernel_launch_s


def _cpu_seconds(stats: WorkloadStats, cand_per_query: float,
                 visits_per_query: float, model: CpuCostModel) -> float:
    thr = (model.spec.cores * model.spec.parallel_efficiency
           * model.spec.clock_hz)
    cycles = stats.num_queries * (
        cand_per_query * model.cycles_per_comparison
        + visits_per_query * model.cycles_per_node_visit
        + model.cycles_per_query_overhead)
    return cycles / thr


def plan_search(
    database: SegmentArray,
    queries: SegmentArray,
    d: float,
    *,
    num_bins: int = 1000,
    num_subbins: int = 4,
    cells_per_dim: int = 50,
    segments_per_mbb: int = 4,
    sample: int = 48,
    gpu_model: GpuCostModel | None = None,
    cpu_model: CpuCostModel | None = None,
    rng: np.random.Generator | None = None,
) -> list[PlanEstimate]:
    """Rank the engines for this workload, fastest predicted first."""
    if len(database) == 0 or len(queries) == 0:
        raise ValueError("planner needs a non-empty database and "
                         "query set")
    gpu_model = gpu_model or GpuCostModel()
    cpu_model = cpu_model or CpuCostModel()
    rng = rng or np.random.default_rng(0)
    stats = WorkloadStats.measure(database, queries)
    sel = _sample_counts(database, queries, d, num_bins=num_bins,
                         num_subbins=num_subbins,
                         cells_per_dim=cells_per_dim,
                         segments_per_mbb=segments_per_mbb,
                         sample=sample, rng=rng)

    probes = float(np.prod(np.ceil(
        (stats.mean_query_extent_s + 2.0 * d)
        / (stats.side / cells_per_dim)) + 1.0))
    # Node *expansions* per query: one per tree level on the main
    # descent path plus one per touched leaf node.
    leaves = max(stats.num_entries / segments_per_mbb, 1.0)
    visits = (np.log(leaves) / np.log(16) + 1.0
              + sel.rtree / (segments_per_mbb * 16.0))

    plans = [
        PlanEstimate("gpu_temporal", {"num_bins": num_bins},
                     sel.temporal,
                     _gpu_seconds(stats, sel.temporal, gpu_model)),
        PlanEstimate("gpu_spatiotemporal",
                     {"num_bins": num_bins, "num_subbins": num_subbins},
                     sel.spatiotemporal,
                     _gpu_seconds(stats, sel.spatiotemporal, gpu_model,
                                  gathers_per_query=sel.spatiotemporal)),
        PlanEstimate("gpu_spatial", {"cells_per_dim": cells_per_dim},
                     sel.spatial,
                     _gpu_seconds(
                         stats, sel.spatial, gpu_model,
                         gathers_per_query=sel.spatial + probes
                         * np.log2(max(stats.num_entries, 2)))),
        PlanEstimate("cpu_rtree",
                     {"segments_per_mbb": segments_per_mbb},
                     sel.rtree,
                     _cpu_seconds(stats, sel.rtree, visits, cpu_model)),
    ]
    return sorted(plans, key=lambda p: p.est_seconds)
