"""Flatly-Structured Grid (FSG) — the GPUSpatial index (paper §IV-A).

A 3-D rectangular box covering the database's spatial bounds is split into
``nx x ny x nz`` cells.  Each entry segment's spatial MBB is *rasterized*:
the segment's row id is recorded in every cell its MBB overlaps.  The
physical layout is exactly the paper's:

* only **non-empty** cells are stored, as the array ``G`` of linear cell
  coordinates (row-major ``h = (ix * ny + iy) * nz + iz``), kept sorted so
  a cell can be located with one binary search in ``O(log |G|)``;
* cell ``C_h`` is described by an index range ``[A_min_h, A_max_h]`` into
  a flat integer *lookup array* ``A`` holding entry row ids.  An id occurs
  in ``A`` once per overlapped cell, so duplicates downstream are expected
  and filtered on the host.

Cell spatial coordinates are never stored — they are recomputed from ``h``
on demand — which is the paper's memory-footprint optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.ranges import expand_ranges, run_starts
from ..core.types import SegmentArray
from ..gpu.memory import layout_nbytes

__all__ = ["FlatGrid"]


@dataclass(frozen=True)
class FlatGrid:
    """The built FSG over a segment database.

    Attributes
    ----------
    dims:
        ``(nx, ny, nz)`` cell counts.
    origin, cell_size:
        Grid geometry; cell ``(ix, iy, iz)`` spans
        ``origin + i*cell_size`` to ``origin + (i+1)*cell_size``.
    cell_ids:
        Sorted linear coordinates of the non-empty cells (the array ``G``).
    cell_start, cell_end:
        Per non-empty cell, the half-open range ``[start, end)`` into
        ``lookup`` (the paper's inclusive ``[A_min, A_max]`` stored
        half-open for NumPy ergonomics).
    lookup:
        The lookup array ``A``: entry row indices, grouped by cell.
    """

    dims: tuple[int, int, int]
    origin: np.ndarray
    cell_size: np.ndarray
    cell_ids: np.ndarray
    cell_start: np.ndarray
    cell_end: np.ndarray
    lookup: np.ndarray

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(cls, segments: SegmentArray,
              cells_per_dim: int | tuple[int, int, int]) -> "FlatGrid":
        """Rasterize every entry MBB onto the grid.

        ``cells_per_dim`` is the resolution knob the paper sweeps in §V-C
        (50 cells per dimension is its best setting for Random).
        """
        if isinstance(cells_per_dim, int):
            dims = (cells_per_dim,) * 3
        else:
            dims = tuple(int(c) for c in cells_per_dim)
        if len(dims) != 3 or any(c <= 0 for c in dims):
            raise ValueError("cells_per_dim must be positive (3 values)")
        if len(segments) == 0:
            raise ValueError("cannot index an empty database")

        mins, maxs = segments.spatial_bounds()
        extent = np.maximum(maxs - mins, 1e-300)
        cell_size = extent / np.asarray(dims, dtype=np.float64)

        n = len(segments)
        lo_cells, spans = [], []    # per axis, from the 1-D columns
        for d, (start, end) in enumerate(((segments.xs, segments.xe),
                                          (segments.ys, segments.ye),
                                          (segments.zs, segments.ze))):
            lo_c, hi_c = cls._cell_span(np.minimum(start, end),
                                        np.maximum(start, end),
                                        mins[d], cell_size[d], dims[d])
            hi_c -= lo_c
            hi_c += 1
            lo_cells.append(lo_c)
            spans.append(hi_c)
        counts = spans[0] * spans[1] * spans[2]
        total = int(counts.sum())

        # Vectorized rasterization: emit one (cell_id, row) pair per
        # overlapped cell.  The k-th overlapped cell of a segment is k
        # decomposed into (dx, dy, dz) offsets, z fastest; h is built
        # axis by axis in place, so only k, h and a stride are
        # total-sized at a time.
        k = expand_ranges(np.zeros(n, dtype=np.int64), counts)
        h = np.repeat(lo_cells[0], counts)
        stride = np.repeat(spans[1] * spans[2], counts)
        h += k // stride                              # + dx
        k %= stride
        h *= dims[1]
        h += np.repeat(lo_cells[1], counts)
        stride = np.repeat(spans[2], counts)
        h += k // stride                              # + dy
        k %= stride                                   # k is now dz
        h *= dims[2]
        h += np.repeat(lo_cells[2], counts)
        h += k
        del k, stride

        # Rows are non-decreasing, so a stable sort by cell alone is the
        # (cell, row) order; cells then start where h steps.
        order = np.argsort(h, kind="stable")
        h_sorted = h[order]
        del h
        rows_sorted = np.repeat(np.arange(n, dtype=np.int64), counts)[order]
        del order
        cell_start = run_starts(h_sorted)
        cell_ids = h_sorted[cell_start]
        cell_end = np.empty_like(cell_start)
        cell_end[:-1] = cell_start[1:]
        cell_end[-1] = total
        return cls(dims=dims, origin=mins, cell_size=cell_size,
                   cell_ids=cell_ids, cell_start=cell_start,
                   cell_end=cell_end, lookup=rows_sorted)

    @staticmethod
    def _cell_span(lo: np.ndarray, hi: np.ndarray, origin: np.ndarray,
                   cell_size: np.ndarray, dims: tuple[int, int, int]
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Integer cell ranges overlapped by boxes (clipped to the grid).

        Clipping happens in floating point *before* the integer cast:
        degenerate dimensions (zero spatial extent => near-zero cell
        size) produce +/-inf coordinates whose int64 cast would be
        undefined.
        """
        dims_arr = np.asarray(dims, dtype=np.float64)
        lo_f = np.clip(np.floor((lo - origin) / cell_size), 0.0,
                       dims_arr - 1)
        hi_f = np.clip(np.floor((hi - origin) / cell_size), 0.0,
                       dims_arr - 1)
        return lo_f.astype(np.int64), hi_f.astype(np.int64)

    # -- queries ------------------------------------------------------------------

    @property
    def num_nonempty_cells(self) -> int:
        return int(self.cell_ids.shape[0])

    def device_arrays(self) -> dict[str, tuple[tuple[int, ...], type]]:
        """What GPUSpatial places besides ``D``: ``G``, each cell's
        ``[start, end)`` range, and ``A`` as 4-byte row ids."""
        return {"fsg_G": (self.cell_ids.shape, self.cell_ids.dtype),
                "fsg_ranges": ((2, self.num_nonempty_cells),
                               self.cell_start.dtype),
                "fsg_A": (self.lookup.shape, np.int32)}

    def nbytes(self) -> int:
        """Device footprint of G (+ranges) and A (:meth:`device_arrays`)."""
        return layout_nbytes(self.device_arrays())

    def linearize(self, ix: np.ndarray, iy: np.ndarray,
                  iz: np.ndarray) -> np.ndarray:
        """Row-major linear coordinate ``h`` of cells ``(ix, iy, iz)``."""
        return (ix * self.dims[1] + iy) * self.dims[2] + iz

    def delinearize(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]:
        """Recompute cell coordinates from ``h`` (cells store no coords)."""
        iz = h % self.dims[2]
        iy = (h // self.dims[2]) % self.dims[1]
        ix = h // (self.dims[2] * self.dims[1])
        return ix, iy, iz
