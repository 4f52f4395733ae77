"""Temporal bin index — the GPUTemporal index (paper §IV-B).

The database is sorted by ascending ``t_start`` and its temporal extent
``[t_min, t_max]`` is partitioned into ``m`` logical bins of fixed width
``b = (t_max - t_min) / m``.  Entry ``l_i`` belongs to bin
``j = floor((t_start_i - t_min) / b)``.  Bins therefore map to contiguous
index ranges ``[B_first_j, B_last_j]`` of the sorted database.  A bin's
temporal extent is ``[B_start_j, B_end_j]`` with
``B_end_j = max((j+1) * b, max_{i in B_j} t_end_i)`` — segments can spill
past their bin's nominal right edge, so adjacent bins overlap temporally.

For a query ``q_k`` the candidate set is the contiguous row range

    E_k = [ min_{B in B_k} B_first,  max_{B in B_k} B_last ]

over the bins ``B_k`` whose extents overlap the query's.  Because
``B_end`` is *not* monotone in ``j``, the index precomputes a prefix
maximum of ``B_end`` so the earliest overlapping bin is found with one
binary search; the whole schedule for a sorted query set is computed in
near-linear time on the host, matching the paper's observation that
schedule computation is a negligible fraction of response time.

That schedule is a :class:`Schedule` with every thread temporal: the
GPUSpatioTemporal index starts from it and overrides only the queries
its subbins serve (§IV-C, Algorithm 3 line 15).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields

import numpy as np

from ..core.distance import BinGrid
from ..core.ranges import expand_ranges, run_starts
from ..core.types import SegmentArray
from ..gpu.memory import layout_nbytes

__all__ = ["Schedule", "TemporalIndex"]

#: Each live :class:`BinGrid` by (its base's ``id``, bin count).  A grid
#: holds its base, so the ``id`` cannot be reused while the entry lives,
#: and the entry goes with the last engine holding the grid.
_BIN_GRIDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class Schedule:
    """Per-query search specification (4 integers each, §IV-C.2).

    ``array_sel[k]`` selects the lookup array (0 = X, 1 = Y, 2 = Z, -1 =
    the temporal scheme: every thread of a GPUTemporal schedule, a
    defaulted one of a GPUSpatioTemporal schedule); ``ent_min``/``ent_max``
    give the inclusive range — into the selected array for subbin
    queries, into the sorted database for temporal ones.  ``q_rows[k]``
    is the query row the entry refers to (GPUSpatioTemporal sorts its
    schedule by ``array_sel`` to reduce thread divergence, so the mapping
    is explicit).

    The same candidates in temporal bins, kept on the host for the
    reject (never shipped): rows of bins ``bin_lo[k] .. bin_hi[k]``
    (empty when ``bin_lo > bin_hi``), and for a subbin query only those
    in ``subbin[k]`` of dimension ``array_sel[k]``.  ``schedule[k]``
    (an index array or a slice) is the schedule of those entries alone.
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

    def __getitem__(self, entries) -> "Schedule":
        return Schedule(*(getattr(self, f.name)[entries]
                          for f in fields(self)))

    def lengths(self) -> np.ndarray:
        """Each entry's candidate count."""
        return np.maximum(self.ent_max - self.ent_min + 1, 0)

    @property
    def num_defaulted(self) -> int:
        """Queries that take the temporal scheme."""
        return int(np.count_nonzero(self.array_sel == -1))

    @property
    def nbytes(self) -> int:
        """Host->device traffic for shipping the schedule (4 int32 each)."""
        return 16 * len(self)


@dataclass(frozen=True)
class TemporalIndex:
    """Built temporal-bin index.

    ``segments`` is the database *re-sorted* by ``t_start``; all row
    ranges produced by this index refer to that ordering.  Empty bins are
    represented with ``B_first = n`` and ``B_last = -1`` sentinels, which
    make the prefix/suffix scans below work without special cases.
    """

    #: no subbin geometry: every thread of a temporal schedule reads
    #: every row of its bins.
    subbins = None

    segments: SegmentArray
    num_bins: int
    bin_width: float
    t_min: float
    bin_start: np.ndarray    # (m,) nominal start times  j*b + t_min
    bin_end: np.ndarray      # (m,) extents incl. spill-over
    bin_first: np.ndarray    # (m,) first row of bin (n if empty)
    bin_last: np.ndarray     # (m,) last row of bin  (-1 if empty)
    _end_prefix_max: np.ndarray   # prefix max of bin_end
    _first_suffix_min: np.ndarray  # suffix min of bin_first
    _last_prefix_max: np.ndarray   # prefix max of bin_last

    @classmethod
    def build(cls, segments: SegmentArray, num_bins: int) -> "TemporalIndex":
        if num_bins <= 0:
            raise ValueError("num_bins must be positive")
        if len(segments) == 0:
            raise ValueError("cannot index an empty database")
        seg = segments.sorted_by_start_time()
        n = len(seg)
        t_min, t_max = seg.temporal_extent
        width = max((t_max - t_min) / num_bins, 1e-300)

        # Clip in float before the cast: extreme ratios (degenerate
        # temporal extents) must not reach an undefined int64 cast.
        bins = np.clip(np.floor((seg.ts - t_min) / width), 0,
                       num_bins - 1).astype(np.int64)

        bin_first = np.full(num_bins, n, dtype=np.int64)
        bin_last = np.full(num_bins, -1, dtype=np.int64)
        # seg is sorted by ts, hence bins is non-decreasing: each bin's rows
        # are contiguous, starting where the bin id steps.
        first_idx = run_starts(bins)
        uniq = bins[first_idx]
        bin_first[uniq] = first_idx
        bin_last[uniq[:-1]] = first_idx[1:] - 1
        bin_last[uniq[-1]] = n - 1

        bin_start = t_min + np.arange(num_bins, dtype=np.float64) * width
        nominal_end = bin_start + width
        max_te = np.full(num_bins, -np.inf)
        max_te[uniq] = np.maximum.reduceat(seg.te, first_idx)
        bin_end = np.maximum(nominal_end, max_te)

        return cls(
            segments=seg,
            num_bins=num_bins,
            bin_width=width,
            t_min=t_min,
            bin_start=bin_start,
            bin_end=bin_end,
            bin_first=bin_first,
            bin_last=bin_last,
            _end_prefix_max=np.maximum.accumulate(bin_end),
            _first_suffix_min=np.minimum.accumulate(
                bin_first[::-1])[::-1].copy(),
            _last_prefix_max=np.maximum.accumulate(bin_last),
        )

    # -- schedule computation (host side) ----------------------------------------

    def bin_range(self, q_start: np.ndarray, q_end: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Per-query inclusive range ``[j_lo, j_hi]`` of overlapping bins.

        ``j_lo > j_hi`` signals "no overlapping bin".  Vectorized over the
        whole (sorted) query set.
        """
        q_start = np.asarray(q_start, dtype=np.float64)
        q_end = np.asarray(q_end, dtype=np.float64)
        # Last bin whose nominal start is <= q_end … (float clip before
        # the cast, as in build)
        j_hi = np.clip(np.floor((q_end - self.t_min) / self.bin_width),
                       -1, self.num_bins - 1).astype(np.int64)
        # … and earliest bin whose (spill-aware) end reaches q_start: the
        # prefix max of bin_end is non-decreasing, so one binary search.
        j_lo = np.searchsorted(self._end_prefix_max, q_start,
                               side="left").astype(np.int64)
        return j_lo, j_hi

    def make_schedule(self, queries: SegmentArray, d: float) -> Schedule:
        """GPUTemporal's schedule ``S`` (§IV-B): query ``k`` is thread
        ``k``, a temporal thread over the row range ``E_k`` of its bins.
        ``queries`` must be sorted by ``t_start``; the schedule does not
        depend on ``d``."""
        nq = len(queries)
        bin_lo, bin_hi = self.bin_range(queries.ts, queries.te)
        ent_min, ent_max = self.bin_rows(bin_lo, bin_hi)
        return Schedule(array_sel=np.full(nq, -1, dtype=np.int64),
                        ent_min=ent_min, ent_max=ent_max,
                        q_rows=np.arange(nq, dtype=np.int64),
                        bin_lo=bin_lo, bin_hi=bin_hi,
                        subbin=np.zeros(nq, dtype=np.int64))

    def schedule_rows(self, schedule: Schedule) -> np.ndarray:
        """Every candidate row of ``schedule``'s temporal threads, thread
        by thread: rows ``ent_min .. ent_max`` of the sorted base."""
        return expand_ranges(schedule.ent_min, schedule.lengths())

    def candidate_rows(self, q_start: np.ndarray, q_end: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Per-query inclusive candidate row range ``E_k`` (``lo > hi`` =>
        empty)."""
        return self.bin_rows(*self.bin_range(q_start, q_end))

    def bin_rows(self, j_lo: np.ndarray, j_hi: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """The inclusive row range of the bins ``j_lo .. j_hi`` (of
        :meth:`bin_range`; ``lo > hi`` => empty)."""
        n = len(self.segments)
        empty = j_lo > j_hi
        j_lo_c = np.clip(j_lo, 0, self.num_bins - 1)
        j_hi_c = np.clip(j_hi, 0, self.num_bins - 1)
        lo = self._first_suffix_min[j_lo_c]
        hi = self._last_prefix_max[j_hi_c]
        lo = np.where(empty, n, lo)
        hi = np.where(empty, -1, hi)
        return lo, hi

    # -- reporting -----------------------------------------------------------------

    def device_arrays(self) -> dict[str, tuple[tuple[int, ...], type]]:
        """What GPUTemporal places besides ``D``: the 4 descriptors of
        every bin (start, end, first row, last row) as one float64
        block."""
        return {"temporal_bins": ((4, self.num_bins), np.float64)}

    def nbytes(self) -> int:
        """Device footprint of the bin descriptors (4 values per bin)."""
        return layout_nbytes(self.device_arrays())

    def bin_grid(self) -> BinGrid:
        """The reject's :class:`~repro.core.distance.BinGrid` over this
        index's base: built once per time-sorted base and bin count and
        shared, as the sorted base is, by the bin engines over it."""
        key = (id(self.segments), self.num_bins)
        grid = _BIN_GRIDS.get(key)
        if grid is None:
            grid = BinGrid.build(self.segments, self.bin_of_rows(),
                                 self.num_bins)
            _BIN_GRIDS[key] = grid
        return grid

    def bin_of_rows(self) -> np.ndarray:
        """Bin id of every row of the sorted database (for subbin builds)."""
        bins = np.floor((self.segments.ts - self.t_min)
                        / self.bin_width).astype(np.int64)
        return np.clip(bins, 0, self.num_bins - 1)
