"""Cost-model sensitivity analysis: are the conclusions calibration-proof?

The reproduction prices measured operation counts with calibrated cycle
constants (DESIGN.md §2).  A fair question is whether the paper-matching
conclusions — "GPUSpatioTemporal overtakes the CPU on Merger", "the GPU
wins on dense data at large d" — are artifacts of those constants.  This
module answers it by *re-pricing the same measured profiles* under
perturbed models (each constant scaled by, e.g., 0.5x and 2x) and
recording whether each qualitative conclusion survives.

Because profiles are pure operation counts, re-pricing is free: the
searches run once, the perturbation grid costs microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


from ..gpu.costmodel import (CPU_MODEL, GPU_MODEL, CpuCostModel,
                             GpuCostModel, price)
from ..gpu.profiler import CpuSearchProfile, SearchProfile
from .harness import ExperimentRunner

__all__ = ["ProfileSet", "SensitivityRow", "collect_profiles",
           "crossover_distance", "sensitivity_analysis",
           "GPU_PARAMETERS", "CPU_PARAMETERS"]

#: perturbable GpuCostModel fields.
GPU_PARAMETERS = ("cycles_per_comparison", "cycles_per_gather",
                  "cycles_per_atomic")
#: perturbable CpuCostModel fields.
CPU_PARAMETERS = ("cycles_per_comparison", "cycles_per_node_visit",
                  "cycles_per_query_overhead")


@dataclass(frozen=True)
class ProfileSet:
    """Measured profiles for one scenario sweep, ready for re-pricing.

    ``profiles[engine][i]`` is the profile for ``d_values[i]``.
    """

    scenario: str
    d_values: tuple[float, ...]
    profiles: dict[str, list[SearchProfile | CpuSearchProfile]]

    def price(self, gpu_model: GpuCostModel, cpu_model: CpuCostModel
              ) -> dict[str, list[float]]:
        return {engine: [price(p, gpu_model=gpu_model,
                               cpu_model=cpu_model).total
                         for p in profs]
                for engine, profs in self.profiles.items()}


def collect_profiles(runner: ExperimentRunner,
                     engines: list[str],
                     d_values: tuple[float, ...] | None = None
                     ) -> ProfileSet:
    """Run each engine across the sweep once, keeping raw profiles."""
    d_values = d_values or runner.scenario.d_values
    profiles: dict[str, list] = {e: [] for e in engines}
    for engine_name in engines:
        engine = runner.engine(engine_name)
        for d in d_values:
            _, prof = engine.search(runner.queries, d)
            profiles[engine_name].append(prof)
    return ProfileSet(scenario=runner.scenario.name,
                      d_values=tuple(d_values), profiles=profiles)


def crossover_distance(d_values: tuple[float, ...],
                       challenger: list[float],
                       incumbent: list[float]) -> float | None:
    """Smallest d at which ``challenger`` is at least as fast, or None."""
    for d, a, b in zip(d_values, challenger, incumbent):
        if a <= b:
            return d
    return None


@dataclass(frozen=True)
class SensitivityRow:
    """Outcome of one perturbation."""

    side: str            # "gpu" | "cpu" | "baseline"
    parameter: str
    factor: float
    crossover_d: float | None   # challenger-overtakes-incumbent point
    challenger_wins_at_dmax: bool

    def describe(self) -> str:
        cross = ("never" if self.crossover_d is None
                 else f"d={self.crossover_d:g}")
        return (f"{self.side:8s} {self.parameter:26s} x{self.factor:<4g} "
                f"crossover {cross:10s} "
                f"wins@dmax={'yes' if self.challenger_wins_at_dmax else 'no'}")


def sensitivity_analysis(
    profile_set: ProfileSet,
    *,
    challenger: str = "gpu_spatiotemporal",
    incumbent: str = "cpu_rtree",
    factors: tuple[float, ...] = (0.5, 2.0),
) -> list[SensitivityRow]:
    """Re-price the sweep under each single-parameter perturbation of
    the paper's machine.

    Returns one row per (side, parameter, factor) plus the baseline row,
    each recording where the challenger overtakes the incumbent.
    """

    def evaluate(gm: GpuCostModel, cm: CpuCostModel,
                 side: str, parameter: str,
                 factor: float) -> SensitivityRow:
        series = profile_set.price(gm, cm)
        cross = crossover_distance(profile_set.d_values,
                                   series[challenger],
                                   series[incumbent])
        wins = series[challenger][-1] <= series[incumbent][-1]
        return SensitivityRow(side=side, parameter=parameter,
                              factor=factor, crossover_d=cross,
                              challenger_wins_at_dmax=wins)

    rows = [evaluate(GPU_MODEL, CPU_MODEL, "baseline", "-", 1.0)]
    for param in GPU_PARAMETERS:
        for f in factors:
            gm = replace(GPU_MODEL,
                         **{param: getattr(GPU_MODEL, param) * f})
            rows.append(evaluate(gm, CPU_MODEL, "gpu", param, f))
    for param in CPU_PARAMETERS:
        for f in factors:
            cm = replace(CPU_MODEL,
                         **{param: getattr(CPU_MODEL, param) * f})
            rows.append(evaluate(GPU_MODEL, cm, "cpu", param, f))
    return rows
