"""Cost-based engine selection: predict response times before searching.

The paper's conclusion is a decision rule — CPU for small/sparse,
GPUSpatioTemporal for large/dense unless ``d`` is small — that a user
must otherwise apply by hand.  This planner automates it: it estimates
each engine's per-query candidate count by *sampling* (a few dozen query
segments counted exactly against the database), prices the counts with
the calibrated cost models, and returns ranked :class:`PlanEstimate`s.

The work is split by what it depends on.  Everything that depends only
on the database is a :class:`DatabaseProfile`, built once per base in
O(|D| log |D|): the global statistics, and the columns the candidate
rules read, stored in ``t_start`` order — the paper's temporal index
(§IV-B), under which a temporal candidate set is a contiguous row
range.  A request then costs, per sampled query, two binary searches
(GPUTemporal's count), three passes over that row range
(GPUSpatioTemporal's sub-bin counts), one pass over the R-tree's
temporal window and one full-length pass (GPUSpatial has no temporal
bound) — far cheaper than building an index or running a search.
``plan_search`` takes either a database, and profiles it on the spot,
or a profile a caller kept (``QueryService`` keeps one per base).

Sampling instead of closed-form density formulas matters: the Merger
dataset is heavily clustered, and any uniform-density estimate is off by
orders of magnitude exactly where engine choice is hardest.  The
accompanying tests verify the planner's *ranking* against measured
modeled times on the paper's scenarios, and every estimate, to the bit,
against the one-pass-per-rule formulation kept in
``tests/oracles/planner_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.costmodel import CpuCostModel, GpuCostModel
from .types import SegmentArray

__all__ = ["DatabaseProfile", "PlanEstimate", "WorkloadStats",
           "plan_search"]


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
        return DatabaseProfile.build(database).stats(queries)

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
    #: database rows the planner's masks passed over to count this
    #: engine's candidates (what the estimate itself cost; exact).
    rows_scanned: int = 0

    def __repr__(self) -> str:  # compact, for ranked listings
        return (f"PlanEstimate({self.engine}, "
                f"~{self.est_candidates_per_query:.0f} cand/q, "
                f"~{self.est_seconds:.6f}s)")


def _extents(segments: SegmentArray) -> np.ndarray:
    """``(n, 3)`` per-segment spatial extents."""
    return np.stack([np.abs(segments.xe - segments.xs),
                     np.abs(segments.ye - segments.ys),
                     np.abs(segments.ze - segments.zs)], axis=1)


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class DatabaseProfile:
    """The half of a plan that depends only on the database.

    Immutable (every array is flagged non-writeable) and valid for as
    long as the database it was built over is: a service keeps one per
    base and drops it when a compaction installs the next.  The row
    columns are in ``argsort(ts, kind="stable")`` order; counts do not
    depend on row order, so only the slicing does.
    """

    num_entries: int
    mins: np.ndarray                  # (3,)
    side: np.ndarray                  # (3,)
    volume: float
    total_time: float
    mean_entry_extent_t: float
    mean_entry_extent_s: np.ndarray   # (3,)
    max_entry_extent_s: np.ndarray    # (3,)
    #: longest entry: how far past a bin's nominal edge a segment
    #: filed under it can reach.
    max_spill: float
    ts: np.ndarray
    te: np.ndarray
    #: running maximum of ``te``: rows before the first position where
    #: it reaches ``x`` all end before ``x``.
    te_running_max: np.ndarray
    d_lo: tuple[np.ndarray, np.ndarray, np.ndarray]
    d_hi: tuple[np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def build(cls, database: SegmentArray) -> "DatabaseProfile":
        mins, maxs = database.spatial_bounds()
        side = np.maximum(maxs - mins, 1e-30)
        t_lo, t_hi = database.temporal_extent
        e_ext_s = _extents(database)
        duration = database.te - database.ts
        order = np.argsort(database.ts, kind="stable")

        def column(values: np.ndarray) -> np.ndarray:
            return _frozen(values[order])

        te = column(database.te)
        pairs = ((database.xs, database.xe), (database.ys, database.ye),
                 (database.zs, database.ze))
        return cls(
            num_entries=len(database),
            mins=_frozen(mins),
            side=_frozen(side),
            volume=float(np.prod(side)),
            total_time=max(t_hi - t_lo, 1e-30),
            mean_entry_extent_t=float(np.mean(duration)),
            mean_entry_extent_s=_frozen(e_ext_s.mean(axis=0)),
            max_entry_extent_s=_frozen(e_ext_s.max(axis=0)),
            max_spill=float(duration.max()),
            ts=column(database.ts),
            te=te,
            te_running_max=_frozen(np.maximum.accumulate(te)),
            d_lo=tuple(column(np.minimum(s, e)) for s, e in pairs),
            d_hi=tuple(column(np.maximum(s, e)) for s, e in pairs),
        )

    def __len__(self) -> int:
        return self.num_entries

    def stats(self, queries: SegmentArray) -> WorkloadStats:
        """The global statistics of this database under ``queries``."""
        return WorkloadStats(
            num_entries=self.num_entries,
            num_queries=len(queries),
            volume=self.volume,
            total_time=self.total_time,
            mean_entry_extent_t=self.mean_entry_extent_t,
            mean_entry_extent_s=self.mean_entry_extent_s,
            max_entry_extent_s=self.max_entry_extent_s,
            mean_query_extent_t=float(np.mean(queries.te - queries.ts)),
            mean_query_extent_s=_extents(queries).mean(axis=0),
            side=self.side,
        )


@dataclass(frozen=True)
class _SampledSelectivity:
    """Mean per-query candidate counts measured on a query sample, and
    the database rows each count passed over."""

    temporal: float
    spatiotemporal: float
    spatial: float
    rtree: float
    rows_spatiotemporal: int
    rows_spatial: int
    rows_rtree: int


def _box_hits(profile: DatabaseProfile, rows: slice, lo3, hi3,
              d: float, pad) -> np.ndarray:
    """Mask over ``rows`` of the entries whose bounding box meets the
    query's box grown by ``d`` and then ``pad[dim]`` on every side."""
    hits = True
    for dim in range(3):
        w_lo = lo3[dim] - d - pad[dim]
        w_hi = hi3[dim] + d + pad[dim]
        hits = hits & ((profile.d_lo[dim][rows] <= w_hi)
                       & (profile.d_hi[dim][rows] >= w_lo))
    return hits


def _sample_counts(profile: DatabaseProfile, queries: SegmentArray,
                   d: float, *, num_bins: int, num_subbins: int,
                   cells_per_dim: int, segments_per_mbb: int,
                   sample: int, rng: np.random.Generator
                   ) -> _SampledSelectivity:
    """Count each engine's candidates exactly for sampled queries.

    Mirrors each index's candidate rule without building the index.
    The scalars are Python floats (same IEEE doubles, same operation
    order as the array formulation, a fraction of the per-call cost),
    and the four window edges of every sampled query are located in
    four vectorized binary searches up front.
    """
    take = rng.choice(len(queries), size=min(sample, len(queries)),
                      replace=False)
    d = float(d)
    mins = profile.mins.tolist()
    bin_width = profile.total_time / num_bins
    sub_w = (profile.side / num_subbins).tolist()
    cell_w = profile.side / cells_per_dim
    cell = cell_w.tolist()
    # Expected dead space on a random query/leaf alignment is half the
    # leaf's union extent on each side.
    leaf_s = (profile.mean_entry_extent_s * segments_per_mbb
              / 2.0).tolist()
    leaf_t = profile.mean_entry_extent_t * segments_per_mbb / 2.0
    # Rasterization duplication: ids appear once per overlapped cell
    # the query probes.
    dup = float(np.prod(1.0 + profile.mean_entry_extent_s / cell_w))
    dup_factor = min(dup, 8.0) ** 0.5

    ends = [(s[take], e[take]) for s, e in (
        (queries.xs, queries.xe), (queries.ys, queries.ye),
        (queries.zs, queries.ze))]
    q_lo3 = zip(*(np.minimum(s, e).tolist() for s, e in ends))
    q_hi3 = zip(*(np.maximum(s, e).tolist() for s, e in ends))
    qts, qte = queries.ts[take], queries.te[take]
    ts, te = profile.ts, profile.te
    # GPUTemporal: bin-granular window with spill (segments extend past
    # their bin's nominal edge by up to their own extent).  Sorted by
    # t_start, the window is a row range.
    t_first = np.searchsorted(
        ts, qts - bin_width - profile.max_spill, "left").tolist()
    t_last = np.searchsorted(ts, qte + bin_width, "right").tolist()
    # CPU-RTree: leaf dead space in time.  ``ts <= hi`` is a row range;
    # ``te >= lo`` is narrowed by the running maximum and then masked.
    rt_lo = (qts - leaf_t).tolist()
    rt_first = np.searchsorted(profile.te_running_max, rt_lo,
                               "left").tolist()
    rt_last = np.searchsorted(ts, qte + leaf_t, "right").tolist()

    c_t = c_st = c_sp = c_rt = 0.0
    rows_st = rows_rt = 0
    for lo3, hi3, i0, i1, j0, j1, te_lo in zip(
            q_lo3, q_hi3, t_first, t_last, rt_first, rt_last, rt_lo):
        n_t = i1 - i0
        c_t += n_t

        # GPUSpatioTemporal: best single-subbin dimension among the
        # temporal candidates; default to temporal when every dimension
        # straddles a subbin boundary.
        best = None
        for dim in range(3):
            w_lo = lo3[dim] - d
            w_hi = hi3[dim] + d
            j_lo = int(min(max((w_lo - mins[dim]) // sub_w[dim], 0),
                           num_subbins - 1))
            j_hi = int(min(max((w_hi - mins[dim]) // sub_w[dim], 0),
                           num_subbins - 1))
            if j_lo != j_hi:
                continue
            sb_lo = mins[dim] + j_lo * sub_w[dim]
            sb_hi = sb_lo + sub_w[dim]
            cnt = int(np.count_nonzero(
                (profile.d_lo[dim][i0:i1] <= sb_hi)
                & (profile.d_hi[dim][i0:i1] >= sb_lo)))
            rows_st += n_t
            best = cnt if best is None else min(best, cnt)
        c_st += n_t if best is None else best

        # GPUSpatial: cell-granular spatial overlap, all times.
        c_sp += np.count_nonzero(_box_hits(
            profile, slice(None), lo3, hi3, d, cell)) * dup_factor

        # CPU-RTree: 4-D leaf overlap (leaf dead space in both space
        # and time), all r segments of each overlapping leaf.
        window = slice(j0, j1)
        c_rt += int(np.count_nonzero(
            (te[window] >= te_lo)
            & _box_hits(profile, window, lo3, hi3, d, leaf_s)))
        rows_rt += j1 - j0

    k = float(take.shape[0])
    return _SampledSelectivity(
        temporal=c_t / k, spatiotemporal=c_st / k, spatial=c_sp / k,
        rtree=c_rt / k, rows_spatiotemporal=rows_st,
        rows_spatial=profile.num_entries * len(take),
        rows_rtree=rows_rt)


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
    database: SegmentArray | DatabaseProfile,
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
    """Rank the engines for this workload, fastest predicted first.

    ``database`` may be the :class:`DatabaseProfile` of a database the
    caller plans over repeatedly; the estimates are the same.
    """
    if len(database) == 0 or len(queries) == 0:
        raise ValueError("planner needs a non-empty database and "
                         "query set")
    profile = (database if isinstance(database, DatabaseProfile)
               else DatabaseProfile.build(database))
    gpu_model = gpu_model or GpuCostModel()
    cpu_model = cpu_model or CpuCostModel()
    rng = rng or np.random.default_rng(0)
    stats = profile.stats(queries)
    sel = _sample_counts(profile, queries, d, num_bins=num_bins,
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
                                  gathers_per_query=sel.spatiotemporal),
                     rows_scanned=sel.rows_spatiotemporal),
        PlanEstimate("gpu_spatial", {"cells_per_dim": cells_per_dim},
                     sel.spatial,
                     _gpu_seconds(
                         stats, sel.spatial, gpu_model,
                         gathers_per_query=sel.spatial + probes
                         * np.log2(max(stats.num_entries, 2))),
                     rows_scanned=sel.rows_spatial),
        PlanEstimate("cpu_rtree",
                     {"segments_per_mbb": segments_per_mbb},
                     sel.rtree,
                     _cpu_seconds(stats, sel.rtree, visits, cpu_model),
                     rows_scanned=sel.rows_rtree),
    ]
    return sorted(plans, key=lambda p: p.est_seconds)
