"""Trajectory indexes: the paper's three GPU schemes plus the CPU R-tree.

* :class:`FlatGrid` — flatly-structured spatial grid (GPUSpatial, §IV-A)
* :class:`TemporalIndex` — temporal bins (GPUTemporal, §IV-B)
* :class:`SpatioTemporalIndex` — bins + spatial subbins (§IV-C)
* :class:`RTree` — R-tree over per-``r``-segment MBBs (CPU baseline,
  §V-B): Guttman insertion by default, STR bulk loading as an ablation;
  3-D spatial boxes by default, 4-D with ``temporal_axis=True`` (the
  ``cpu_rtree`` engine's default); frozen as per-level arrays
  (:class:`RTreeLevel`)
"""

from .fsg import FlatGrid
from .rtree import RTree, RTreeLevel
from .rtree_insert import GuttmanBuilder
from .spatiotemporal import SpatioTemporalIndex
from .stats import (FsgStats, RTreeStats, SpatioTemporalStats,
                    TemporalStats, describe)
from .temporal import Schedule, TemporalIndex

__all__ = ["FlatGrid", "FsgStats", "GuttmanBuilder", "RTree",
           "RTreeLevel", "RTreeStats", "Schedule", "SpatioTemporalIndex",
           "SpatioTemporalStats", "TemporalIndex", "TemporalStats",
           "describe"]
