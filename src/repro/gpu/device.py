"""The virtual GPU: machine description and top-level device object.

The paper runs its OpenCL kernels on an NVIDIA Tesla C2075 (448 CUDA
cores, 14 SMs, 6 GiB of global memory) attached to the host over PCI
Express.  This module models that machine:

* :class:`DeviceSpec` captures the architectural constants that drive the
  paper's performance behaviour — core count, warp width, clock, memory
  capacity, PCIe bandwidth/latency, kernel-launch overhead.
* :class:`VirtualGPU` owns the device-side state of one
  :data:`TESLA_C2075` (the only machine modeled): a global-memory
  ledger of name -> bytes (allocations must fit in ``global_mem_bytes``;
  it holds counts, not arrays, and is the only record of the card's
  bytes), a host<->device transfer ledger, and the per-kernel execution
  statistics that the cost model converts to modeled seconds.

The kernels themselves execute *for real* (see :mod:`repro.gpu.kernel`):
every candidate gathered, comparison refined and result appended is
actually computed, so correctness is independent of the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .memory import MemoryManager
from .transfers import TransferLedger

if TYPE_CHECKING:   # kernel.py imports this module
    from .kernel import KernelStats

__all__ = ["DeviceSpec", "VirtualGPU", "TESLA_C2075"]


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural constants of the modeled accelerator."""

    name: str
    num_cores: int          # total scalar cores (C2075: 448)
    num_sms: int            # streaming multiprocessors (C2075: 14)
    warp_size: int          # SIMT width; divergence granularity
    clock_hz: float         # core clock
    global_mem_bytes: int   # device global memory capacity
    pcie_bandwidth: float   # host<->device bandwidth, bytes/s
    pcie_latency_s: float   # per-transfer fixed latency
    kernel_launch_s: float  # per-kernel-invocation host overhead

    def __post_init__(self) -> None:
        if self.num_cores % self.warp_size != 0:
            raise ValueError("num_cores must be a multiple of warp_size")
        if self.num_cores <= 0 or self.clock_hz <= 0:
            raise ValueError("device spec must be positive")

    @property
    def concurrent_warps(self) -> int:
        """Warps the device can execute simultaneously (one per warp-wide
        group of cores).  The C2075 executes 448/32 = 14 warps at a time,
        one per SM, which is exactly its architecture."""
        return self.num_cores // self.warp_size


#: The paper's GPU (§V-B): Tesla C2075 — 448 cores across 14 SMs,
#: 1.15 GHz, 6 GiB GDDR5, PCIe 2.0 x16 (~6 GB/s effective).
TESLA_C2075 = DeviceSpec(
    name="Tesla C2075",
    num_cores=448,
    num_sms=14,
    warp_size=32,
    clock_hz=1.15e9,
    global_mem_bytes=6 * (1 << 30),
    pcie_bandwidth=6.0e9,
    pcie_latency_s=10e-6,
    kernel_launch_s=15e-6,
)


class VirtualGPU:
    """A software C2075: global memory + transfer ledger + kernel stats.

    One instance represents one physical device.  Engines reserve the
    database, the index and all working buffers (the result buffer
    included) in :attr:`memory`, move data through :attr:`transfers`, and
    launch kernels through :class:`repro.gpu.kernel.KernelLauncher`; all
    three record the operation counts the cost model consumes.
    """

    def __init__(self, *, faults=None, lane: int | None = None) -> None:
        #: fault injector shared by memory, transfers and the kernel
        #: launcher (duck-typed, see :mod:`repro.faults`); None = off.
        self.faults = faults
        #: device-pool lane identity (None until homed by the pool).
        self.lane = lane
        self.memory = MemoryManager(
            capacity_bytes=TESLA_C2075.global_mem_bytes,
            device_name=TESLA_C2075.name, faults=faults, lane=lane)
        self.transfers = TransferLedger(faults=faults, lane=lane)
        self.kernel_stats: list[KernelStats] = []  # filled by launcher

    # -- bookkeeping ----------------------------------------------------------

    def reset_counters(self) -> None:
        """Clear transfer and kernel statistics (keeps allocations).

        Used between the offline index-build phase and the timed search,
        because the paper's response times exclude index construction and
        the initial placement of ``D`` on the device (§V-B).
        """
        self.transfers = TransferLedger(faults=self.faults,
                                        lane=self.lane)
        self.kernel_stats = []

    def __repr__(self) -> str:
        return (f"VirtualGPU({TESLA_C2075.name}, "
                f"{self.memory.allocated_bytes / (1 << 20):.1f} MiB "
                f"allocated, {len(self.kernel_stats)} kernels)")
