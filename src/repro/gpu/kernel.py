"""SIMT kernel-execution model.

All three search kernels follow the paper's load-balancing rule: *one
query segment per GPU thread* (§IV).  A kernel launch therefore creates
``|Q|`` logical threads; the hardware executes them in warps of 32 in
thread-id order, and a warp retires only when its slowest lane finishes —
SIMT lockstep.  Thread *divergence* (lanes of one warp doing different
amounts of work) is consequently the GPU's main inefficiency, and it is
exactly what GPUSpatioTemporal's schedule sort is designed to reduce.

The model executes each thread's real work (vectorized NumPy inside the
engines) and records, per thread, how many *work units* it performed —
candidate-gathering steps, index probes and segment comparisons.  The cost
model then reconstructs warp timing: a warp's duration is the maximum of
its lanes' work, and the device retires ``concurrent_warps`` warps at a
time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..obs.telemetry import current as _current_telemetry
from .device import VirtualGPU

__all__ = ["KernelStats", "KernelLauncher", "LaunchSpec", "BatchResult",
           "warp_work"]


@dataclass
class KernelStats:
    """Execution record of one kernel invocation.

    ``thread_work`` holds, per logical thread in thread-id order, the
    number of work units (dominated by segment comparisons) the thread
    executed.  ``atomic_ops`` counts global atomic operations issued by
    the whole grid.  ``gather_ops`` counts index-probe/buffer-fill steps
    (GPUSpatial's cell lookups and ``U_k`` writes), which are charged at a
    different rate than full segment comparisons.
    """

    name: str
    num_threads: int
    thread_work: np.ndarray
    gather_work: np.ndarray
    atomic_ops: int = 0

    def __post_init__(self) -> None:
        if self.thread_work.shape != (self.num_threads,):
            raise ValueError("thread_work must have one slot per thread")
        if self.gather_work.shape != (self.num_threads,):
            raise ValueError("gather_work must have one slot per thread")

    @property
    def total_comparisons(self) -> int:
        return int(self.thread_work.sum())

    def divergence_factor(self, warp_size: int) -> float:
        """How much SIMT lockstep inflates compute: (warp-max work summed)
        / (mean work summed).  1.0 = perfectly converged warps."""
        eff = warp_work(self.thread_work, warp_size)
        total = self.thread_work.sum()
        if total == 0:
            return 1.0
        return float(eff * warp_size / total)

    def to_dict(self) -> dict:
        """JSON-friendly representation (work arrays as plain lists)."""
        return {
            "name": self.name,
            "num_threads": int(self.num_threads),
            "thread_work": self.thread_work.tolist(),
            "gather_work": self.gather_work.tolist(),
            "atomic_ops": int(self.atomic_ops),
        }


def warp_work(thread_work: np.ndarray, warp_size: int) -> int:
    """Sum over warps of the per-warp maximum lane work.

    This is the number of lockstep issue slots the grid needs: each warp
    occupies its 32 lanes for as long as its busiest lane.
    """
    n = thread_work.shape[0]
    if n == 0:
        return 0
    pad = (-n) % warp_size
    padded = np.pad(thread_work, (0, pad))
    return int(padded.reshape(-1, warp_size).max(axis=1).sum())


@dataclass(frozen=True)
class LaunchSpec:
    """Declarative description of one kernel invocation.

    An engine states *what* is launched — grid size, named device
    inputs to ship, and the fault-hook point — and hands the launcher a
    kernel callable executed once for the whole batch of logical
    threads.

    Attributes
    ----------
    name:
        Kernel name; tags the recorded :class:`KernelStats`, the
        telemetry span and (by default) the fault-injection label.
    num_threads:
        Grid size — one logical thread per live query segment (§IV).
    inputs:
        ``(label, nbytes)`` pairs charged as host-to-device transfers
        immediately before the launch (e.g. the redo-query id list).
        Transfer faults therefore fire *before* the kernel fault hook,
        exactly like the historical explicit ``transfers.h2d`` calls.
    fault_point:
        Fault-injection channel consulted at launch; an injected abort
        kills the invocation before it runs, an injected stall inflates
        the recorded per-thread work on completion.
    """

    name: str
    num_threads: int
    inputs: tuple[tuple[str, int], ...] = ()
    fault_point: str = "kernel"

    def __post_init__(self) -> None:
        if self.num_threads < 0:
            raise ValueError("num_threads must be non-negative")


@dataclass(frozen=True)
class BatchResult:
    """What one whole-batch kernel invocation produced.

    ``stats`` is the same object appended to ``gpu.kernel_stats`` (the
    per-thread op counts the cost model charges); ``value`` is whatever
    the kernel callable returned to the host.
    """

    stats: "KernelStats"
    value: Any = None

    @property
    def thread_work(self) -> np.ndarray:
        return self.stats.thread_work

    @property
    def gather_work(self) -> np.ndarray:
        return self.stats.gather_work

    @property
    def atomic_ops(self) -> int:
        return self.stats.atomic_ops


class KernelLauncher:
    """Creates kernel invocations against a :class:`VirtualGPU`.

    Usage::

        launcher = KernelLauncher(gpu)

        def kernel(k):                    # runs once for all threads
            ...vectorized passes over every live thread...
            k.thread_work[:] = comparisons_per_thread
            k.add_atomics(results_appended)
            return host_visible_outputs

        out = launcher.run(LaunchSpec(name="gpu_temporal",
                                      num_threads=len(Q)), kernel)
        out.value          # what `kernel` returned
        out.thread_work    # per-thread op counts, post stall inflation

    The stats are validated on completion and appended to
    ``gpu.kernel_stats``; the cost model later charges one
    ``kernel_launch_s`` per entry plus the modeled execution time.
    """

    def __init__(self, gpu: VirtualGPU) -> None:
        self.gpu = gpu

    def run(self, spec: LaunchSpec,
            kernel: Callable[["_LaunchContext"], Any]) -> BatchResult:
        """Execute ``kernel`` once for the whole batch described by
        ``spec``; returns the recorded stats plus the kernel's return
        value.  Failed launches (fault aborts, kernel errors) propagate
        and record nothing."""
        for label, nbytes in spec.inputs:
            self.gpu.transfers.h2d(label, nbytes)
        ctx = _LaunchContext(self.gpu, spec.name, spec.num_threads,
                             fault_point=spec.fault_point)
        with ctx:
            value = kernel(ctx)
        return BatchResult(stats=ctx.stats, value=value)


class _LaunchContext:
    def __init__(self, gpu: VirtualGPU, name: str, num_threads: int,
                 fault_point: str = "kernel") -> None:
        self.gpu = gpu
        self.name = name
        self.num_threads = num_threads
        self.fault_point = fault_point
        self.thread_work = np.zeros(num_threads, dtype=np.int64)
        self.gather_work = np.zeros(num_threads, dtype=np.int64)
        self._atomics = 0
        self.stats: KernelStats | None = None

    def add_atomics(self, n: int) -> None:
        if n < 0:
            raise ValueError("atomic count must be non-negative")
        self._atomics += int(n)

    def __enter__(self) -> "_LaunchContext":
        # Fault check happens at launch: an injected abort kills the
        # invocation before it runs (nothing recorded, nothing
        # published); an injected stall lets it run but inflates the
        # per-thread work on exit, modeling a slow lane.
        self._stall = 1.0
        if self.gpu.faults is not None:
            self._stall = self.gpu.faults.check(
                self.fault_point, lane=self.gpu.lane, label=self.name)
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return  # don't record failed launches
        thread_work = self.thread_work
        if self._stall > 1.0:
            thread_work = np.ceil(
                thread_work * self._stall).astype(np.int64)
        stats = KernelStats(
            name=self.name,
            num_threads=self.num_threads,
            thread_work=thread_work,
            gather_work=self.gather_work,
            atomic_ops=self._atomics,
        )
        self.stats = stats
        self.gpu.kernel_stats.append(stats)
        # One span per invocation under the engine's search span (a
        # no-op when no telemetry is active).
        telemetry = _current_telemetry()
        if telemetry.enabled:
            telemetry.tracer.record(
                f"kernel:{self.name}",
                self._wall0, time.perf_counter() - self._wall0,
                invocation=len(self.gpu.kernel_stats) - 1,
                num_threads=self.num_threads,
                comparisons=stats.total_comparisons,
                atomics=stats.atomic_ops)
