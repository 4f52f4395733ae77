"""Index introspection: occupancy and selectivity statistics.

Tuning the paper's indexes is all about selectivity (how few candidates
the index hands to refinement) against overhead (probes, indirections,
memory).  These reports quantify both for a built index, powering the
``tuning_parameters`` example and the ablation write-ups, and giving a
downstream user a principled way to choose ``cells_per_dim``,
``num_bins`` and ``num_subbins`` for a new dataset before running any
search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.types import SegmentArray
from .fsg import FlatGrid
from .rtree import RTree
from .spatiotemporal import SpatioTemporalIndex
from .temporal import TemporalIndex

__all__ = ["FsgStats", "TemporalStats", "SpatioTemporalStats",
           "RTreeStats", "describe"]


@dataclass(frozen=True)
class FsgStats:
    """Occupancy statistics of a flat grid."""

    total_cells: int
    nonempty_cells: int
    lookup_entries: int
    duplication_factor: float   # |A| / |D|: ids stored per segment
    mean_ids_per_nonempty_cell: float
    max_ids_per_cell: int
    index_bytes: int

    @classmethod
    def of(cls, grid: FlatGrid, num_segments: int) -> "FsgStats":
        sizes = grid.cell_end - grid.cell_start
        return cls(
            total_cells=int(np.prod(grid.dims)),
            nonempty_cells=grid.num_nonempty_cells,
            lookup_entries=int(grid.lookup.shape[0]),
            duplication_factor=float(grid.lookup.shape[0]
                                     / max(num_segments, 1)),
            mean_ids_per_nonempty_cell=float(sizes.mean()),
            max_ids_per_cell=int(sizes.max()),
            index_bytes=grid.nbytes(),
        )


@dataclass(frozen=True)
class TemporalStats:
    """Bin statistics of a temporal index."""

    num_bins: int
    empty_bins: int
    mean_bin_size: float
    max_bin_size: int
    #: mean spill past the nominal right edge, in bin widths — the
    #: quantity that widens E_k beyond the ideal.
    mean_spill_bins: float
    #: expected candidate fraction for a point query:
    #: mean (bin extent / total extent) weighted by bin size.
    expected_selectivity: float
    index_bytes: int

    @classmethod
    def of(cls, index: TemporalIndex) -> "TemporalStats":
        sizes = np.where(index.bin_last >= 0,
                         index.bin_last - index.bin_first + 1, 0)
        nominal_end = index.bin_start + index.bin_width
        spill = (index.bin_end - nominal_end) / index.bin_width
        n = len(index.segments)
        t_lo, t_hi = index.segments.temporal_extent
        total = max(t_hi - t_lo, 1e-300)
        # A point query at uniform random time hits bin j with
        # probability (extent_j / total); it then scans size_j rows.
        extents = index.bin_end - index.bin_start
        expected = float(np.sum(extents / total * sizes) / max(n, 1))
        return cls(
            num_bins=index.num_bins,
            empty_bins=int(np.count_nonzero(index.bin_last < 0)),
            mean_bin_size=float(sizes.mean()),
            max_bin_size=int(sizes.max()),
            mean_spill_bins=float(spill.mean()),
            expected_selectivity=expected,
            index_bytes=index.nbytes(),
        )


@dataclass(frozen=True)
class SpatioTemporalStats:
    """Subbin statistics of a spatiotemporal index."""

    num_bins: int
    num_subbins: int
    #: per-dimension id duplication: |X|/|D|, |Y|/|D|, |Z|/|D|.
    duplication_per_dim: tuple[float, float, float]
    #: fraction of (subbin, bin) groups that are empty, per dimension.
    empty_group_fraction: tuple[float, float, float]
    #: expected spatial selectivity of the best single dimension for a
    #: point query (~1/v for uniform data).
    expected_best_dim_selectivity: float
    extra_bytes_over_temporal: int

    @classmethod
    def of(cls, index: SpatioTemporalIndex) -> "SpatioTemporalStats":
        n = len(index.segments)
        m, v = index.temporal.num_bins, index.num_subbins
        dup = tuple(float(a.shape[0] / max(n, 1))
                    for a in index.dim_arrays)
        empty = tuple(
            float(np.count_nonzero(np.diff(offs) == 0) / (m * v))
            for offs in index.dim_offsets)
        # Expected candidates via the fullest chunk of each dimension,
        # relative to the temporal index's candidates.
        best = 1.0
        for dim in range(3):
            chunk_tot = np.add.reduceat(
                np.diff(index.dim_offsets[dim]),
                np.arange(0, m * v, m))
            best = min(best, float(chunk_tot.max())
                       / max(index.dim_arrays[dim].shape[0], 1))
        return cls(
            num_bins=m,
            num_subbins=v,
            duplication_per_dim=dup,
            empty_group_fraction=empty,
            expected_best_dim_selectivity=best,
            extra_bytes_over_temporal=index.nbytes()
            - index.temporal.nbytes(),
        )


@dataclass(frozen=True)
class RTreeStats:
    """Structural statistics of an R-tree."""

    num_nodes: int
    num_leaf_mbbs: int
    depth: int
    mean_fanout: float
    #: total overlap among sibling boxes at the root's children —
    #: insertion-built trees score much worse than packed ones.
    sibling_overlap_volume: float
    index_bytes: int

    @classmethod
    def of(cls, tree: RTree) -> "RTreeStats":
        fanouts = np.concatenate([np.diff(level.start)
                                  for level in tree.levels])
        lo = tree.levels[0].lo.T
        hi = tree.levels[0].hi.T
        overlap = 0.0
        for i in range(lo.shape[0]):
            for j in range(i + 1, lo.shape[0]):
                inter = np.minimum(hi[i], hi[j]) - np.maximum(lo[i],
                                                              lo[j])
                if np.all(inter > 0):
                    overlap += float(np.prod(inter))
        return cls(
            num_nodes=tree.num_nodes,
            num_leaf_mbbs=tree.num_leaf_mbbs,
            depth=tree.depth(),
            mean_fanout=float(np.mean(fanouts)),
            sibling_overlap_volume=overlap,
            index_bytes=tree.nbytes(),
        )


def describe(index, segments: SegmentArray | None = None):
    """Statistics object for any of the four index types."""
    if isinstance(index, FlatGrid):
        if segments is None:
            raise ValueError("FlatGrid stats need the indexed segments")
        return FsgStats.of(index, len(segments))
    if isinstance(index, SpatioTemporalIndex):
        return SpatioTemporalStats.of(index)
    if isinstance(index, TemporalIndex):
        return TemporalStats.of(index)
    if isinstance(index, RTree):
        return RTreeStats.of(index)
    raise TypeError(f"no statistics for {type(index).__name__}")
