"""Temporal bins + spatial subbins — the GPUSpatioTemporal index (§IV-C).

The index starts from :class:`~repro.indexes.temporal.TemporalIndex` (the
same ``m`` temporal bins) and subdivides the database's spatial bounds into
``v`` *subbins per dimension*, subject to the paper's constraint that a
subbin must be at least as large as the largest segment extent in that
dimension (so a segment overlaps at most two adjacent subbins and id
duplication stays bounded).

Physical layout (paper Fig. 3): three integer arrays ``X``, ``Y``, ``Z``,
one per dimension.  Array ``X`` stores the row ids of the entries
overlapping each subbin *in the x dimension*, grouped by
``(subbin j, temporal bin i)`` in lexicographic order — i.e. chunk ``j``
holds the ids of subbin ``j`` of temporal bin 0, then of temporal bin 1,
and so on.  Consequently, a query that (a) overlaps a contiguous range of
temporal bins ``[i0, i1]`` and (b) overlaps a *single* subbin index ``j``
in some dimension maps to **one contiguous range** of that dimension's
array — encodable in 2 integers, the property the whole scheme is built
around.

The host-side schedule picks, per query, the dimension with the fewest
candidates among the dimensions where (b) holds; when no dimension
qualifies the query *defaults* to the plain temporal scheme (arrayXYZ =
-1), trading spatial selectivity for correctness exactly as the paper
does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.geometry import cell_of
from ..core.ranges import expand_ranges
from ..core.types import SegmentArray
from ..gpu.memory import layout_nbytes
from .temporal import TemporalIndex

__all__ = ["SpatioTemporalIndex", "Schedule"]


@dataclass(frozen=True)
class Schedule:
    """Per-query search specification (4 integers each, §IV-C.2).

    ``array_sel[k]`` selects the lookup array (0 = X, 1 = Y, 2 = Z, -1 =
    default to the temporal scheme); ``ent_min``/``ent_max`` give the
    inclusive range — into the selected array for subbin queries, into the
    sorted database for defaulted queries.  ``q_rows[k]`` is the query row
    the entry refers to (schedules are sorted by ``array_sel`` to reduce
    thread divergence, so the mapping is explicit).

    The same candidates in temporal bins, kept on the host for the
    reject (never shipped): rows of bins ``bin_lo[k] .. bin_hi[k]``
    (empty when ``bin_lo > bin_hi``), and for a subbin query only those
    in ``subbin[k]`` of dimension ``array_sel[k]``.
    """

    array_sel: np.ndarray
    ent_min: np.ndarray
    ent_max: np.ndarray
    q_rows: np.ndarray
    bin_lo: np.ndarray
    bin_hi: np.ndarray
    subbin: np.ndarray

    def __len__(self) -> int:
        return int(self.array_sel.shape[0])

    @property
    def num_defaulted(self) -> int:
        """Queries that fell back to the temporal scheme."""
        return int(np.count_nonzero(self.array_sel == -1))

    @property
    def nbytes(self) -> int:
        """Host->device traffic for shipping the schedule (4 int32 each)."""
        return 16 * len(self)


def _subbin_layout(start: np.ndarray, end: np.ndarray, lo_edge: float,
                   width: float, v: int, m: int, row_bins: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One dimension's id array, grouped by ``(subbin j, temporal bin
    i)``, and its offsets.  Each total-sized temporary is deleted once
    the next one exists, so the build peaks at a few of them."""
    s_lo = cell_of(np.minimum(start, end), lo_edge, width, v)
    spans = cell_of(np.maximum(start, end), lo_edge, width, v)
    spans -= s_lo
    spans += 1
    # key = j * m + i, one per (row, overlapped subbin), row-major
    key = expand_ranges(s_lo, spans)
    del s_lo
    key *= m
    key += np.repeat(row_bins, spans)
    # Rows are non-decreasing, so a stable sort by key alone is the
    # (key, row) order.
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=v * m)
    del key
    ids = np.repeat(np.arange(len(spans), dtype=np.int64), spans)[order]
    offsets = np.zeros(v * m + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return ids, offsets


@dataclass(frozen=True)
class SpatioTemporalIndex:
    """Built spatiotemporal index.

    ``dim_arrays[d]`` is the paper's ``X``/``Y``/``Z`` array for dimension
    ``d``; ``dim_offsets[d]`` has length ``v * m + 1`` with the group for
    ``(subbin j, temporal bin i)`` occupying
    ``dim_arrays[d][dim_offsets[d][j*m+i] : dim_offsets[d][j*m+i+1]]``.
    """

    temporal: TemporalIndex
    num_subbins: int
    space_min: np.ndarray    # (3,) spatial lower bounds of D
    subbin_width: np.ndarray  # (3,) per-dimension subbin widths
    dim_arrays: tuple[np.ndarray, np.ndarray, np.ndarray]
    dim_offsets: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def segments(self) -> SegmentArray:
        return self.temporal.segments

    @classmethod
    def max_admissible_subbins(cls, segments: SegmentArray) -> int:
        """Largest ``v`` satisfying the subbin-size constraint (§IV-C.1):
        ``v <= (x_max - x_min) / max_i |x_start - x_end|`` in every
        dimension."""
        mins, maxs = segments.spatial_bounds()
        extent = maxs - mins
        seg_extent = segments.max_spatial_extent()
        vmax = np.inf
        for d in range(3):
            if seg_extent[d] > 0:
                vmax = min(vmax, extent[d] / seg_extent[d])
        return max(1, int(np.floor(vmax)) if np.isfinite(vmax) else 2 ** 30)

    @classmethod
    def build(cls, segments: SegmentArray, num_bins: int, num_subbins: int,
              *, strict: bool = True) -> "SpatioTemporalIndex":
        if num_subbins <= 0:
            raise ValueError("num_subbins must be positive")
        if strict and num_subbins > cls.max_admissible_subbins(segments):
            raise ValueError(
                f"num_subbins={num_subbins} violates the subbin-size "
                f"constraint (max admissible: "
                f"{cls.max_admissible_subbins(segments)}); pass "
                f"strict=False to experiment anyway")
        temporal = TemporalIndex.build(segments, num_bins)
        seg = temporal.segments
        m, v = num_bins, num_subbins

        mins, maxs = seg.spatial_bounds()
        width = np.maximum((maxs - mins) / v, 1e-300)
        row_bins = temporal.bin_of_rows()

        # One axis at a time on the 1-D columns: no (n, 3) stacks.
        dim_arrays, dim_offsets = zip(*(
            _subbin_layout(start, end, mins[d], width[d], v, m, row_bins)
            for d, (start, end) in enumerate(((seg.xs, seg.xe),
                                              (seg.ys, seg.ye),
                                              (seg.zs, seg.ze)))))

        return cls(temporal=temporal, num_subbins=v, space_min=mins,
                   subbin_width=width,
                   dim_arrays=dim_arrays, dim_offsets=dim_offsets)

    # -- schedule computation (host side, §IV-C.2) -------------------------------

    def make_schedule(self, queries: SegmentArray, d: float) -> Schedule:
        """Compute the per-query schedule ``S`` on the host.

        ``queries`` must already be sorted by ``t_start`` (the engine's
        responsibility, as in GPUTemporal).  The query's spatial MBB is
        expanded by ``d`` before subbin overlap is computed — required for
        completeness of a distance-threshold search.
        """
        nq = len(queries)
        m, v = self.temporal.num_bins, self.num_subbins
        j_lo, j_hi = self.temporal.bin_range(queries.ts, queries.te)
        row_lo, row_hi = self.temporal.candidate_rows(queries.ts, queries.te)
        no_bins = j_lo > j_hi
        j_lo_c = np.clip(j_lo, 0, m - 1)
        j_hi_c = np.clip(j_hi, 0, m - 1)

        q_lo = np.minimum(queries.starts, queries.ends) - d
        q_hi = np.maximum(queries.starts, queries.ends) + d

        array_sel = np.full(nq, -1, dtype=np.int64)
        ent_min = np.zeros(nq, dtype=np.int64)
        ent_max = np.full(nq, -1, dtype=np.int64)
        subbin = np.zeros(nq, dtype=np.int64)
        best_count = np.full(nq, np.iinfo(np.int64).max, dtype=np.int64)
        spatially_empty = np.zeros(nq, dtype=bool)

        for dim in range(3):
            dmin = self.space_min[dim]
            w = self.subbin_width[dim]
            dmax = dmin + w * v
            outside = (q_hi[:, dim] < dmin) | (q_lo[:, dim] > dmax)
            spatially_empty |= outside
            s_lo = cell_of(q_lo[:, dim], dmin, w, v)
            s_hi = cell_of(q_hi[:, dim], dmin, w, v)
            eligible = (s_lo == s_hi) & ~outside & ~no_bins
            offs = self.dim_offsets[dim]
            start = offs[s_lo * m + j_lo_c]
            end = offs[s_lo * m + j_hi_c + 1]
            count = end - start
            better = eligible & (count < best_count)
            array_sel[better] = dim
            ent_min[better] = start[better]
            ent_max[better] = end[better] - 1
            best_count[better] = count[better]
            subbin[better] = s_lo[better]

        # Defaulted queries fall back to the temporal candidate row range.
        defaulted = (array_sel == -1) & ~no_bins & ~spatially_empty
        ent_min[defaulted] = row_lo[defaulted]
        ent_max[defaulted] = row_hi[defaulted]

        # Queries with no temporal or spatial overlap at all: empty range,
        # arbitrarily tagged dimension 0 so they don't count as defaults.
        dead = no_bins | spatially_empty
        array_sel[dead] = 0
        ent_min[dead] = 0
        ent_max[dead] = -1
        bin_lo = np.where(dead, 0, j_lo_c)
        bin_hi = np.where(dead, -1, j_hi_c)

        # Sort by lookup-array selector to reduce thread divergence (§IV-C.2).
        order = np.argsort(array_sel, kind="stable")
        return Schedule(array_sel=array_sel[order], ent_min=ent_min[order],
                        ent_max=ent_max[order],
                        q_rows=np.arange(nq, dtype=np.int64)[order],
                        bin_lo=bin_lo[order], bin_hi=bin_hi[order],
                        subbin=subbin[order])

    # -- reporting ----------------------------------------------------------------

    def device_arrays(self) -> dict[str, tuple[tuple[int, ...], type]]:
        """What GPUSpatioTemporal places besides ``D``: the X/Y/Z id
        arrays as 4-byte ids (>= 3|D| x 4 bytes, §IV-C.1), their offset
        tables, and each bin's temporal extent (start, end)."""
        arrays = {}
        for name, arr, offs in zip("XYZ", self.dim_arrays,
                                   self.dim_offsets):
            arrays[f"subbin_{name}"] = (arr.shape, np.int32)
            arrays[f"subbin_{name}_offsets"] = (offs.shape, offs.dtype)
        arrays["st_bins"] = ((2, self.temporal.num_bins), np.float64)
        return arrays

    def nbytes(self) -> int:
        """Device footprint of the index (:meth:`device_arrays`)."""
        return layout_nbytes(self.device_arrays())

    def subbin_entries(self, dim: int, j: int, i: int) -> np.ndarray:
        """Row ids of entries in subbin ``j`` of temporal bin ``i`` for
        ``dim`` (testing/introspection helper)."""
        m = self.temporal.num_bins
        offs = self.dim_offsets[dim]
        return self.dim_arrays[dim][offs[j * m + i]:offs[j * m + i + 1]]
