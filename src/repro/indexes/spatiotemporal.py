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

The host-side schedule starts from the temporal index's and picks, per
query, the dimension with the fewest candidates among the dimensions
where (b) holds; when no dimension qualifies the query keeps its
temporal entry — it *defaults* to the plain temporal scheme (arrayXYZ =
-1), trading spatial selectivity for correctness exactly as the paper
does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.geometry import cell_of
from ..core.distance import BinGrid
from ..core.ranges import expand_ranges, range_offsets
from ..core.types import SegmentArray
from ..gpu.memory import layout_nbytes
from .temporal import Schedule, TemporalIndex

__all__ = ["SpatioTemporalIndex"]


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
        responsibility, as in GPUTemporal).  Every query starts as its
        entry of the temporal schedule; the query's spatial MBB is
        expanded by ``d`` before subbin overlap is computed — required
        for completeness of a distance-threshold search — and only the
        subbin-eligible and the dead queries are overridden.
        """
        schedule = self.temporal.make_schedule(queries, d)
        m, v = self.temporal.num_bins, self.num_subbins
        no_bins = schedule.bin_lo > schedule.bin_hi
        j_lo_c = np.clip(schedule.bin_lo, 0, m - 1)
        j_hi_c = np.clip(schedule.bin_hi, 0, m - 1)

        q_lo = np.minimum(queries.starts, queries.ends) - d
        q_hi = np.maximum(queries.starts, queries.ends) + d

        best_count = np.full(len(schedule), np.iinfo(np.int64).max,
                             dtype=np.int64)
        spatially_empty = np.zeros(len(schedule), dtype=bool)

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
            schedule.array_sel[better] = dim
            schedule.ent_min[better] = start[better]
            schedule.ent_max[better] = end[better] - 1
            best_count[better] = count[better]
            schedule.subbin[better] = s_lo[better]

        # Queries with no temporal or spatial overlap at all: empty range,
        # arbitrarily tagged dimension 0 so they don't count as defaults.
        dead = no_bins | spatially_empty
        schedule.array_sel[dead] = 0
        schedule.ent_min[dead] = 0
        schedule.ent_max[dead] = -1
        schedule.bin_lo[dead] = 0
        schedule.bin_hi[dead] = -1

        # Sort by lookup-array selector to reduce thread divergence (§IV-C.2).
        return schedule[np.argsort(schedule.array_sel, kind="stable")]

    def schedule_rows(self, schedule: Schedule) -> np.ndarray:
        """Every candidate row of ``schedule``'s threads, thread by
        thread: a subbin thread's read through its X/Y/Z array (the
        kernel's extra indirection), a defaulted one's as the temporal
        index reads them."""
        rows = self.temporal.schedule_rows(schedule)
        lens = schedule.lengths()
        starts = range_offsets(lens)
        for dim, lookup in enumerate(self.dim_arrays):
            pick = np.flatnonzero(schedule.array_sel == dim)
            at = expand_ranges(starts[pick], lens[pick])
            rows[at] = lookup[rows[at]]
        return rows

    @property
    def subbins(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The subbin geometry ``(space_min, subbin_width, num_subbins)``
        the reject checks a subbin thread's rows against."""
        return self.space_min, self.subbin_width, self.num_subbins

    def bin_grid(self) -> BinGrid:
        """The temporal index's :meth:`~TemporalIndex.bin_grid`."""
        return self.temporal.bin_grid()

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
