"""Search engines: the paper's three GPU schemes, the CPU baseline, and
the future-work hybrid — plus their typed configs and retry policy."""

from .base import (Deadline, DeadlineExceededError, GpuEngineBase,
                   KernelInvocationLimitError, NO_RETRY, RangeBatch,
                   ResultBufferOverflowError, RetryPolicy, SearchEngine,
                   current_deadline, deadline_scope)
from .config import (ConfigError, CpuRTreeConfig, CpuScanConfig,
                     EngineConfig, GpuSpatialConfig,
                     GpuSpatioTemporalConfig, GpuTemporalConfig)
from .cpu_rtree import CpuRTreeEngine, tune_segments_per_mbb
from .cpu_scan import CpuScanEngine
from .gpu_spatial import GpuSpatialEngine
from .gpu_spatiotemporal import GpuSpatioTemporalEngine
from .gpu_temporal import GpuTemporalEngine
from .hybrid import HybridEngine, HybridProfile
from .registry import available, get_engine, register_engine

__all__ = [
    "ConfigError", "CpuRTreeConfig", "CpuRTreeEngine",
    "CpuScanConfig", "CpuScanEngine", "Deadline",
    "DeadlineExceededError", "EngineConfig", "GpuEngineBase",
    "GpuSpatialConfig", "GpuSpatialEngine", "GpuSpatioTemporalConfig",
    "GpuSpatioTemporalEngine", "GpuTemporalConfig", "GpuTemporalEngine",
    "HybridEngine", "HybridProfile", "KernelInvocationLimitError",
    "NO_RETRY", "RangeBatch", "ResultBufferOverflowError", "RetryPolicy",
    "SearchEngine", "available", "current_deadline",
    "deadline_scope", "get_engine", "register_engine",
    "tune_segments_per_mbb",
]
