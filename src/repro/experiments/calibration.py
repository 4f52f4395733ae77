"""Cost-model calibration against the paper's anchor measurements.

The per-operation cycle constants in :mod:`repro.gpu.costmodel` were not
guessed — they are the solution of a small least-squares system anchored
on the response times the paper actually quotes (§V-C/§V-D).  This module
makes that fit reproducible: given anchor observations (a measured time
plus the operation counts the engines would have produced at the paper's
scale), it solves for the cycle costs and reports the residuals.

Anchors used for the shipped constants:

* GPUTemporal, Merger, d = 0.001: 41.75 s (~141k comparisons/thread x
  50,880 threads — pure comparison throughput).
* GPUTemporal vs GPUSpatioTemporal(v=1), Random, d = 50: +12.4 % —
  fixes the gather (indirection) cost relative to a comparison.
* CPU-RTree, Merger, d = 0.001: 9.70 s — fixes the CPU refinement cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.costmodel import CpuCostModel, GpuCostModel
from ..gpu.device import DeviceSpec, TESLA_C2075

__all__ = ["Anchor", "CalibrationResult", "fit_gpu_cycles",
           "fit_cpu_cycles", "verify_calibration", "PAPER_ANCHORS"]


@dataclass(frozen=True)
class Anchor:
    """One observed (time, operation counts) pair.

    Counts are *effective warp-serialized* operations for the GPU (sum
    over warps of max lane work x warp size / concurrent lanes is already
    folded in by using per-thread uniform workloads at paper scale) and
    plain totals for the CPU.
    """

    name: str
    seconds: float
    comparisons: float = 0.0
    gathers: float = 0.0
    atomics: float = 0.0
    node_visits: float = 0.0
    queries: float = 0.0


#: Anchor observations reconstructed from the paper's quoted numbers.
PAPER_ANCHORS: dict[str, Anchor] = {
    # 50,880 threads x ~141k candidates each (25.2M segments / 1,000
    # bins x ~5.6 bins overlapped): the 41.75 s point of §V-D.
    "gpu_temporal_merger_d0.001": Anchor(
        name="gpu_temporal_merger_d0.001", seconds=41.75,
        comparisons=50_880 * 141_000),
    # Same workload through one extra indirection: 41.75 s x 1.124.
    "gpu_st_v1_merger_equiv": Anchor(
        name="gpu_st_v1_merger_equiv", seconds=41.75 * 1.124,
        comparisons=50_880 * 141_000, gathers=50_880 * 141_000),
    # CPU-RTree at the same point: 9.70 s (§V-D), traversal+refinement.
    "cpu_rtree_merger_d0.001": Anchor(
        name="cpu_rtree_merger_d0.001", seconds=9.70,
        comparisons=50_880 * 4_200, node_visits=50_880 * 1_000,
        queries=50_880),
}


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted cycle costs plus per-anchor residuals."""

    cycles: dict[str, float]
    residuals: dict[str, float]  # (model - observed) / observed


def fit_gpu_cycles(anchors: list[Anchor],
                   spec: DeviceSpec = TESLA_C2075) -> CalibrationResult:
    """Least-squares fit of (comparison, gather) cycle costs.

    With uniform per-thread work, modeled compute time is
    ``(N/warp) * per_thread * cycles / (concurrent_warps * clock)`` =
    ``total_ops * cycles / (concurrent_warps * warp * clock)`` — linear
    in the unknown cycle costs, so ordinary least squares applies.
    """
    denom = spec.concurrent_warps * spec.warp_size * spec.clock_hz
    rows, rhs = [], []
    for a in anchors:
        rows.append([a.comparisons / denom, a.gathers / denom])
        rhs.append(a.seconds)
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    cycles = {"cycles_per_comparison": float(coef[0]),
              "cycles_per_gather": float(coef[1])}
    model = GpuCostModel(spec=spec, **cycles)
    residuals = {}
    for a in anchors:
        t = (a.comparisons * coef[0] + a.gathers * coef[1]) / denom
        residuals[a.name] = (t - a.seconds) / a.seconds
    return CalibrationResult(cycles=cycles, residuals=residuals)


def fit_cpu_cycles(anchors: list[Anchor],
                   base: CpuCostModel | None = None) -> CalibrationResult:
    """Fit a single refinement/traversal cycle cost (the paper gives one
    usable CPU anchor, so both are tied to the same unknown)."""
    base = base or CpuCostModel()
    spec = base.spec
    throughput = spec.cores * spec.parallel_efficiency * spec.clock_hz
    rows, rhs = [], []
    for a in anchors:
        ops = a.comparisons + a.node_visits
        fixed = a.queries * base.cycles_per_query_overhead / throughput
        rows.append([ops / throughput])
        rhs.append(a.seconds - fixed)
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    c = float(coef[0])
    residuals = {}
    for a in anchors:
        t = ((a.comparisons + a.node_visits) * c
             + a.queries * base.cycles_per_query_overhead) / throughput
        residuals[a.name] = (t - a.seconds) / a.seconds
    return CalibrationResult(
        cycles={"cycles_per_comparison": c, "cycles_per_node_visit": c},
        residuals=residuals)


def verify_calibration(gpu_model: GpuCostModel | None = None,
                       cpu_model: CpuCostModel | None = None,
                       *, tolerance: float = 0.25) -> dict[str, float]:
    """Check the shipped constants against the paper anchors.

    Returns the per-anchor relative errors; raises if any exceeds
    ``tolerance``.  Run by the test suite so a drive-by constant tweak
    cannot silently break the calibration.
    """
    gpu_model = gpu_model or GpuCostModel()
    cpu_model = cpu_model or CpuCostModel()
    errors: dict[str, float] = {}

    a = PAPER_ANCHORS["gpu_temporal_merger_d0.001"]
    denom = (gpu_model.spec.concurrent_warps * gpu_model.spec.warp_size
             * gpu_model.spec.clock_hz)
    t = a.comparisons * gpu_model.cycles_per_comparison / denom
    errors[a.name] = (t - a.seconds) / a.seconds

    a = PAPER_ANCHORS["gpu_st_v1_merger_equiv"]
    t = (a.comparisons * gpu_model.cycles_per_comparison
         + a.gathers * gpu_model.cycles_per_gather) / denom
    errors[a.name] = (t - a.seconds) / a.seconds

    a = PAPER_ANCHORS["cpu_rtree_merger_d0.001"]
    spec = cpu_model.spec
    thr = spec.cores * spec.parallel_efficiency * spec.clock_hz
    t = (a.comparisons * cpu_model.cycles_per_comparison
         + a.node_visits * cpu_model.cycles_per_node_visit
         + a.queries * cpu_model.cycles_per_query_overhead) / thr
    errors[a.name] = (t - a.seconds) / a.seconds

    bad = {k: v for k, v in errors.items() if abs(v) > tolerance}
    if bad:
        raise AssertionError(f"calibration drift beyond "
                             f"{tolerance:.0%}: {bad}")
    return errors
