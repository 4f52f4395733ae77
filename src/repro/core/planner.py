"""Cost-based engine selection: predict response times before searching.

The paper's conclusion is a decision rule — CPU for small/sparse,
GPUSpatioTemporal for large/dense unless ``d`` is small — that a user
must otherwise apply by hand.  This planner automates it: it estimates
each engine's per-query candidate count by *sampling* (a few dozen query
segments counted exactly against the database), prices the counts on
the paper's machine (``costmodel.GPU_MODEL`` / ``CPU_MODEL``), and
returns ranked :class:`PlanEstimate`s.

The work is split by what it depends on.  Everything that depends only
on the database is a :class:`DatabaseProfile`, built once per base in
O(|D| log |D|), 100 bytes per row: the global statistics, the rows'
4-D bounding boxes in ``t_start`` order — the paper's temporal index
(§IV-B), under which a temporal candidate set is a contiguous row range
— and an ``x_lo`` order with a float32 copy of what GPUSpatial's count
reads first, under which a spatial candidate set is one too.  A request
reads windows of those two orders, never a full pass, with a handful of
array operations for all sampled queries together: GPUTemporal's count
is two binary searches per query; GPUSpatioTemporal's and CPU-RTree's
read each query's own ``t_start`` window once (the former counts the
rows of one (dimension, subbin) there, as the paper's per-subbin id
arrays would); GPUSpatial's reads the union of the queries' ``x_lo``
windows in one pass, as Lettich et al. (arXiv:1411.3212) answer a batch
of range queries in one pass, and tests each query against the rows
inside the union of their boxes alone.  ``plan_search`` takes either a
database, and profiles it on the spot, or a profile a caller kept
(``QueryService`` keeps one per base).

Sampling instead of closed-form density formulas matters: the Merger
dataset is heavily clustered, and any uniform-density estimate is off by
orders of magnitude exactly where engine choice is hardest.  The
accompanying tests verify the planner's *ranking* against measured
modeled times on the paper's scenarios, and every estimate, to the bit,
against the one-pass-per-rule formulation kept in
``tests/oracles/planner_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from ..gpu.costmodel import CPU_MODEL, GPU_MODEL
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


@dataclass(frozen=True)
class PlanEstimate:
    """One engine's predicted workload and response time."""

    engine: str
    params: dict
    est_candidates_per_query: float
    est_seconds: float
    #: database rows the planner's masks read to count this engine's
    #: candidates (what the estimate itself cost; exact): a row once per
    #: window or pass that reads it, however many sampled queries that
    #: pass tests it against.  A binary search or offset lookup reads
    #: none.
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


def _ends(segments: SegmentArray) -> list[np.ndarray]:
    """Start and end of each dimension in turn: t, x, y, z."""
    return [segments.ts, segments.te, segments.xs, segments.xe,
            segments.ys, segments.ye, segments.zs, segments.ze]


def _edges(segments: SegmentArray, rows: np.ndarray) -> np.ndarray:
    """``(8, len(rows))`` bounding-box edges of ``segments[rows]``.

    For t, x, y, z in turn: the lower edge, then the *negated* upper
    edge.  A box meets the window ``[w_lo, w_hi]`` exactly when every
    edge is ``<=`` the matching entry of the window's *bounds* — ``w_hi``,
    then ``-w_lo`` — so one comparison tests every side of every
    dimension (negation is exact).
    """
    ends = _ends(segments)
    edges = np.empty((8, len(rows)))
    for dim in range(4):
        s, e = ends[2 * dim][rows], ends[2 * dim + 1][rows]
        lo, neg_hi = edges[2 * dim], edges[2 * dim + 1]
        np.minimum(s, e, out=lo)
        np.maximum(s, e, out=neg_hi)
        np.negative(neg_hi, out=neg_hi)
    return edges


def _float32(values: np.ndarray) -> np.ndarray:
    """``values`` rounded to float32 (past its range, to an infinity).

    Rounding is monotone, ``a <= b`` implies ``float32(a) <=
    float32(b)``, so a ``<=`` test between rounded edges and rounded
    bounds keeps every row the exact test keeps, and a few more.
    """
    with np.errstate(over="ignore"):
        return values.astype(np.float32)


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
    depend on row order, so only the windows do.
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
    #: ``(8, n)`` bounding-box edges (:func:`_edges`); row 0 is ``ts``,
    #: ascending.
    edges: np.ndarray
    #: running maximum of ``te``: rows before the first position where
    #: it reaches ``x`` all end before ``x``.
    te_running_max: np.ndarray
    #: rows in ``x_lo`` order (int32), and a float32 copy in that order
    #: (``_float32``: it can only let extra rows through) of what
    #: GPUSpatial's count reads first: the sort key ``x_lo``, the
    #: running maximum of ``x_hi`` (rows outside
    #: ``[searchsorted(x_hi_running_max, lo), searchsorted(x_lo, hi,
    #: "right"))`` cannot meet the x window ``[lo, hi]``) and the ``(4,
    #: n)`` y and z edges.
    x_order: np.ndarray
    x_lo: np.ndarray
    x_hi_running_max: np.ndarray
    x_yz: np.ndarray

    @classmethod
    def build(cls, database: SegmentArray) -> "DatabaseProfile":
        mins, maxs = database.spatial_bounds()
        side = np.maximum(maxs - mins, 1e-30)
        t_lo, t_hi = database.temporal_extent
        e_ext_s = _extents(database)
        mean_s, max_s = e_ext_s.mean(axis=0), e_ext_s.max(axis=0)
        duration = database.te - database.ts
        mean_t, max_spill = float(np.mean(duration)), float(duration.max())
        # The service builds a profile while it serves: drop the (n, 3)
        # extents first and fill the rest row by row, so no full-size
        # temporary lives beside the profile.
        del e_ext_s, duration
        edges = _edges(database, np.argsort(database.ts, kind="stable"))
        x_order = np.argsort(edges[2]).astype(np.int32)
        x_yz = np.empty((4, len(database)), np.float32)
        for row, edge in zip(x_yz, edges[4:]):
            row[:] = _float32(edge[x_order])
        return cls(
            num_entries=len(database),
            mins=_frozen(mins),
            side=_frozen(side),
            volume=float(np.prod(side)),
            total_time=max(t_hi - t_lo, 1e-30),
            mean_entry_extent_t=mean_t,
            mean_entry_extent_s=_frozen(mean_s),
            max_entry_extent_s=_frozen(max_s),
            max_spill=max_spill,
            edges=_frozen(edges),
            te_running_max=_frozen(np.maximum.accumulate(-edges[1])),
            x_order=_frozen(x_order),
            x_lo=_frozen(_float32(edges[2][x_order])),
            x_hi_running_max=_frozen(np.maximum.accumulate(
                _float32(-edges[3][x_order]))),
            x_yz=_frozen(x_yz),
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
            # ``np.mean``'s sums and division, without its per-call
            # dispatch: over the ``(n, 3)`` extents its axis-0 sum adds
            # row after row, as a running sum along each row does.
            mean_query_extent_t=float(np.add.reduce(
                queries.te - queries.ts)) / len(queries),
            mean_query_extent_s=np.abs(
                np.array([queries.xe, queries.ye, queries.ze])
                - np.array([queries.xs, queries.ys, queries.zs])
            ).cumsum(axis=1)[:, -1] / len(queries),
            side=self.side,
        )


@lru_cache(maxsize=64)
def _sample_rows(num_queries: int, sample: int) -> np.ndarray:
    """The query rows a plan samples: ``default_rng(0)``'s draw of
    ``min(sample, num_queries)`` distinct rows, one per request shape."""
    return _frozen(np.random.default_rng(0).choice(
        num_queries, size=min(sample, num_queries), replace=False))


@dataclass(frozen=True)
class _SampledSelectivity:
    """Mean per-query candidate counts measured on a query sample, and
    the database rows each count read."""

    temporal: float
    spatiotemporal: float
    spatial: float
    rtree: float
    rows_spatiotemporal: int
    rows_spatial: int
    rows_rtree: int


#: about how many bytes of temporaries a count's array operations
#: take at once: a request's memory stays bounded however wide its
#: windows are, and each block of rows stays in cache.
_BLOCK_BYTES = 1 << 20


def _window_blocks(starts: np.ndarray, stops: np.ndarray):
    """The rows of the windows ``[starts[i], stops[i])`` (``stops >=
    starts``) back to back, a block at a time: ``(rows, owner)``,
    ``owner`` the window each row belongs to."""
    lens = stops - starts
    ends = lens.cumsum()
    offset = starts + lens - ends
    step = _BLOCK_BYTES // 128     # 8 edges and 8 bounds, float64
    for first in range(0, int(ends[-1]), step):
        at = np.arange(first, min(first + step, ends[-1]))
        owner = ends.searchsorted(at, "right")
        yield at + offset[owner], owner


def _sample_counts(profile: DatabaseProfile, queries: SegmentArray,
                   d: float, *, num_bins: int, num_subbins: int,
                   cells_per_dim: int, segments_per_mbb: int,
                   sample: int) -> _SampledSelectivity:
    """Count each engine's candidates exactly for sampled queries.

    Mirrors each index's candidate rule without building the index,
    every sampled query at once (query arrays are ``(..., k)``).
    Integer counts sum exactly in any order; GPUSpatial's weighted
    counts are added in ``take`` order, as the one-query-at-a-time
    formulation did.
    """
    take = _sample_rows(len(queries), sample)
    k = take.shape[0]
    edges = profile.edges
    ts = edges[0]
    # Per-request constants, as Python floats (the same IEEE doubles
    # and operations as the one-query-at-a-time formulation).
    bin_width = profile.total_time / num_bins
    sub_w = [side / num_subbins for side in profile.side.tolist()]
    cell_w = [side / cells_per_dim for side in profile.side.tolist()]
    extent = [profile.mean_entry_extent_t,
              *profile.mean_entry_extent_s.tolist()]
    # Expected dead space on a random query/leaf alignment is half the
    # leaf's union extent on each side.
    leaf = [e * segments_per_mbb / 2.0 for e in extent]
    # Rasterization duplication: ids appear once per overlapped cell
    # the query probes.
    dup = 1.0
    for e, c in zip(extent[1:], cell_w):
        dup *= 1.0 + e / c
    dup_factor = min(dup, 8.0) ** 0.5
    # The sampled queries' boxes grown by ``d`` in space, as bounds
    # (``_edges``): per dimension ``hi + d``, then ``-(lo - d)``.
    hi_neg_lo = np.array([[1.0], [-1.0]])    # (hi, lo) -> (hi, -lo)
    ends = np.sort(np.array(_ends(queries)).take(take, axis=1)
                   .reshape(4, 2, k), axis=1)
    reach = (ends[:, ::-1] * hi_neg_lo
             + np.array([0.0, d, d, d])[:, None, None]).reshape(8, k)

    # GPUTemporal: bin-granular window with spill (segments extend past
    # their bin's nominal edge by up to their own extent).  Sorted by
    # t_start, the window is a row range.
    t_lo = -reach[1] - bin_width - profile.max_spill
    t_hi = reach[0] + bin_width
    i0 = ts.searchsorted(t_lo, "left")
    i1 = ts.searchsorted(t_hi, "right")
    n_t = i1 - i0

    # GPUSpatioTemporal: best single-subbin dimension among the
    # temporal candidates; default to temporal when every dimension
    # straddles a subbin boundary.  A query with such a dimension reads
    # its window once, counting for each dimension the rows of its
    # subbin there: what the paper's per-subbin id arrays hold.
    width = np.array(sub_w)[:, None]
    box = reach[2:].reshape(3, 2, k) * hi_neg_lo
    j = np.minimum(np.maximum((box - profile.mins[:, None, None])
                              // width[:, None], 0), num_subbins - 1)
    single = j[:, 0] == j[:, 1]
    sb_lo = profile.mins[:, None] + j[:, 1] * width
    subbin = np.empty((3, 2, k))
    np.add(sb_lo, width, out=subbin[:, 0])
    np.negative(sb_lo, out=subbin[:, 1])
    stops = np.where(single.any(axis=0), i1, i0)
    in_subbin = np.zeros(3 * k, np.intp)
    for rows, owner in _window_blocks(i0, stops):
        inside = edges[2:].take(rows, axis=1) \
            <= subbin.reshape(6, k).take(owner, axis=1)
        dim, hit = np.nonzero(inside[0::2] & inside[1::2])
        in_subbin += np.bincount(dim * k + owner[hit], minlength=3 * k)
    n_st = np.where(single, in_subbin.reshape(3, k), n_t).min(axis=0)
    rows_st = int((stops - i0).sum())

    # GPUSpatial: cell-granular spatial overlap, all times.  In x_lo
    # order, the rows whose box can meet one of the sampled x windows
    # form one range.  One pass over it, in the float32 copy against
    # the union of the boxes, keeps the rows near any query (x rarely
    # rejects a row inside the range, so it is skipped); each query is
    # tested against those alone.
    sp = reach[2:] + np.array(cell_w).repeat(2)[:, None]
    union = _float32(sp.max(axis=1))
    x = slice(profile.x_hi_running_max.searchsorted(-union[1], "left"),
              profile.x_lo.searchsorted(union[0], "right"))
    window = profile.x_order[x]
    near = window[(profile.x_yz[:, x] <= union[2:, None]).all(axis=0)]
    n_sp = np.zeros(k, np.intp)
    step = max(_BLOCK_BYTES // (8 * k), 1)   # (6, k, step) booleans
    for first in range(0, near.size, step):
        rows = near[first:first + step]
        n_sp += (edges[2:].take(rows, axis=1)[:, None]
                 <= sp[:, :, None]).all(axis=0).sum(axis=1)
    rows_sp = window.size + near.size
    c_sp = 0.0
    for count in n_sp.tolist():
        c_sp += count * dup_factor

    # CPU-RTree: 4-D leaf overlap (leaf dead space in both space and
    # time), all r segments of each overlapping leaf.  ``ts <= hi`` is
    # a row range; ``te >= lo`` is narrowed by the running maximum.
    # Each query reads its own window once.
    rt = reach + np.array(leaf).repeat(2)[:, None]
    starts = profile.te_running_max.searchsorted(-rt[1])
    stops = ts.searchsorted(rt[0], "right")
    n_rt = np.zeros(k, np.intp)
    for rows, owner in _window_blocks(starts, stops):
        hits = (edges.take(rows, axis=1)
                <= rt.take(owner, axis=1)).all(axis=0)
        n_rt += np.bincount(owner[hits], minlength=k)
    rows_rt = int((stops - starts).sum())

    return _SampledSelectivity(
        temporal=int(n_t.sum()) / k, spatiotemporal=int(n_st.sum()) / k,
        spatial=c_sp / k, rtree=int(n_rt.sum()) / k,
        rows_spatiotemporal=rows_st, rows_spatial=rows_sp,
        rows_rtree=rows_rt)


def _gpu_seconds(stats: WorkloadStats, cand_per_query: float, *,
                 gathers_per_query: float = 0.0) -> float:
    model = GPU_MODEL
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
                 visits_per_query: float) -> float:
    model = CPU_MODEL
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
) -> list[PlanEstimate]:
    """Rank the engines for this workload, fastest predicted first.

    ``database`` may be the :class:`DatabaseProfile` of a database the
    caller plans over repeatedly; the estimates are the same.  A
    threshold that is negative or not finite, or a hint or ``sample``
    that is not a positive int, is refused with a ``ValueError`` naming
    it.
    """
    if not (math.isfinite(d) and d >= 0):
        raise ValueError(f"planner: d must be finite and >= 0, got {d!r}")
    for name, value in (("num_bins", num_bins),
                        ("num_subbins", num_subbins),
                        ("cells_per_dim", cells_per_dim),
                        ("segments_per_mbb", segments_per_mbb),
                        ("sample", sample)):
        if (isinstance(value, bool)
                or not isinstance(value, (int, Integral)) or value < 1):
            raise ValueError(f"planner: {name} must be a positive int, "
                             f"got {value!r}")
    if len(database) == 0 or len(queries) == 0:
        raise ValueError("planner needs a non-empty database and "
                         "query set")
    profile = (database if isinstance(database, DatabaseProfile)
               else DatabaseProfile.build(database))
    stats = profile.stats(queries)
    sel = _sample_counts(profile, queries, float(d), num_bins=num_bins,
                         num_subbins=num_subbins,
                         cells_per_dim=cells_per_dim,
                         segments_per_mbb=segments_per_mbb,
                         sample=sample)

    probes = 1.0
    for extent, side in zip(stats.mean_query_extent_s.tolist(),
                            stats.side.tolist()):
        probes *= float(np.ceil((extent + 2.0 * d)
                                / (side / cells_per_dim))) + 1.0
    # Node *expansions* per query: one per tree level on the main
    # descent path plus one per touched leaf node.
    leaves = max(stats.num_entries / segments_per_mbb, 1.0)
    visits = (np.log(leaves) / np.log(16) + 1.0
              + sel.rtree / (segments_per_mbb * 16.0))

    plans = [
        PlanEstimate("gpu_temporal", {"num_bins": num_bins},
                     sel.temporal,
                     _gpu_seconds(stats, sel.temporal)),
        PlanEstimate("gpu_spatiotemporal",
                     {"num_bins": num_bins, "num_subbins": num_subbins},
                     sel.spatiotemporal,
                     _gpu_seconds(stats, sel.spatiotemporal,
                                  gathers_per_query=sel.spatiotemporal),
                     rows_scanned=sel.rows_spatiotemporal),
        PlanEstimate("gpu_spatial", {"cells_per_dim": cells_per_dim},
                     sel.spatial,
                     _gpu_seconds(
                         stats, sel.spatial,
                         gathers_per_query=sel.spatial + probes
                         * np.log2(max(stats.num_entries, 2))),
                     rows_scanned=sel.rows_spatial),
        PlanEstimate("cpu_rtree",
                     {"segments_per_mbb": segments_per_mbb},
                     sel.rtree,
                     _cpu_seconds(stats, sel.rtree, visits),
                     rows_scanned=sel.rows_rtree),
    ]
    return sorted(plans, key=lambda p: p.est_seconds)
