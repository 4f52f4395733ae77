"""Virtual GPU substrate: SIMT execution, memory, transfers, cost model.

This package substitutes for the paper's Tesla C2075 + OpenCL runtime (see
DESIGN.md §2).  The search kernels run for real; machine time is modeled
from the measured operation counts.
"""

from .costmodel import (CPU_MODEL, GPU_MODEL, CostBreakdown, CpuCostModel,
                        CpuSpec, GpuCostModel, XEON_W3690, price)
from .device import DeviceSpec, TESLA_C2075, VirtualGPU
from .kernel import KernelLauncher, KernelStats, warp_work
from .memory import DeviceOutOfMemoryError, MemoryManager
from .trace import profile_to_trace, write_trace
from .profiler import CpuSearchProfile, SearchProfile
from .transfers import TransferLedger, TransferRecord

__all__ = [
    "CPU_MODEL", "CostBreakdown", "CpuCostModel", "CpuSpec",
    "GPU_MODEL", "GpuCostModel", "XEON_W3690", "price",
    "DeviceSpec", "TESLA_C2075", "VirtualGPU",
    "KernelLauncher", "KernelStats", "warp_work",
    "DeviceOutOfMemoryError", "MemoryManager",
    "profile_to_trace", "write_trace",
    "CpuSearchProfile", "SearchProfile",
    "TransferLedger", "TransferRecord",
]
