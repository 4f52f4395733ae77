"""repro — reproduction of Gowanlock & Casanova, "Indexing of
Spatiotemporal Trajectories for Efficient Distance Threshold Similarity
Searches on the GPU" (IPDPS Workshops 2015).

Public surface
--------------
* :class:`DistanceThresholdSearch` — one façade over the paper's three GPU
  engines and the CPU R-tree baseline.
* :mod:`repro.data` — the Random / Random-dense / Merger-equivalent
  dataset generators.
* :mod:`repro.gpu` — the virtual-GPU substrate and cost models.
* :mod:`repro.experiments` — scenario definitions and the figure/table
  regeneration harness.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .core import (DistanceThresholdSearch, ResultSet, SearchOutcome,
                   SegmentArray, Trajectory, brute_force_search,
                   register_engine)
from .data import (merger_dataset, queries_from_database, random_dataset,
                   random_dense_dataset)
from .engines import (ConfigError, CpuRTreeEngine, GpuSpatialEngine,
                      GpuSpatioTemporalEngine, GpuTemporalEngine,
                      HybridEngine)
from .gpu import (CpuCostModel, GpuCostModel, TESLA_C2075, VirtualGPU,
                  XEON_W3690)
from .obs import Telemetry
from .service import QueryService, SearchRequest, SearchResponse

__version__ = "1.1.0"

__all__ = [
    "ConfigError", "CpuCostModel", "CpuRTreeEngine",
    "DistanceThresholdSearch", "GpuCostModel",
    "GpuSpatialEngine", "GpuSpatioTemporalEngine", "GpuTemporalEngine",
    "HybridEngine", "QueryService", "ResultSet", "SearchOutcome",
    "SearchRequest", "SearchResponse", "SegmentArray", "Telemetry",
    "TESLA_C2075",
    "Trajectory", "VirtualGPU", "XEON_W3690", "brute_force_search",
    "merger_dataset", "queries_from_database", "random_dataset",
    "random_dense_dataset", "register_engine", "__version__",
]
