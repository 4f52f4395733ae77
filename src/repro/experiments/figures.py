"""Regeneration of the figures of §V.

Each ``figN_*`` function returns the data behind the corresponding paper
figure, deterministically given the scenario scale.  The in-text
parameter studies (T-FSG, T-BINS, T-SUBB, T-IND, T-BUF, T-RTREE) are
``benchmarks/test_ablation_*.py`` (DESIGN.md §4 is the experiment
index).
"""

from __future__ import annotations

from .harness import ExperimentRunner, RunRecord
from .scenarios import (scenario_s1_random, scenario_s2_merger,
                        scenario_s3_random_dense)

__all__ = [
    "fig4_random", "fig5_merger", "fig6_random_dense", "fig7_ratios",
]


# --------------------------------------------------------------------------
# Figures 4-6: response time vs query distance per engine
# --------------------------------------------------------------------------

def fig4_random(scale: float | None = None,
                runner: ExperimentRunner | None = None) -> list[RunRecord]:
    """Fig. 4 — S1 (Random): all four implementations plus GPUSpatial's
    "optimistic" curve (in each record's ``optimistic_seconds``)."""
    runner = runner or ExperimentRunner(scenario_s1_random(scale))
    return runner.sweep(["cpu_rtree", "gpu_spatial", "gpu_temporal",
                         "gpu_spatiotemporal"])


def fig5_merger(scale: float | None = None,
                runner: ExperimentRunner | None = None) -> list[RunRecord]:
    """Fig. 5 — S2 (Merger): CPU-RTree vs GPUTemporal vs
    GPUSpatioTemporal (GPUSpatial omitted, as in the paper)."""
    runner = runner or ExperimentRunner(scenario_s2_merger(scale))
    return runner.sweep(["cpu_rtree", "gpu_temporal",
                         "gpu_spatiotemporal"])


def fig6_random_dense(scale: float | None = None,
                      runner: ExperimentRunner | None = None
                      ) -> list[RunRecord]:
    """Fig. 6 — S3 (Random-dense): same three engines, enlarged result
    buffer (the scenario bakes the 9.2e7-item setting in)."""
    runner = runner or ExperimentRunner(scenario_s3_random_dense(scale))
    return runner.sweep(["cpu_rtree", "gpu_temporal",
                         "gpu_spatiotemporal"])


def fig7_ratios(scale: float | None = None
                ) -> dict[str, list[tuple[float, str, float]]]:
    """Fig. 7 — GPU/CPU response-time ratios for selected d per dataset.

    Returns ``{scenario: [(d, engine, ratio)]}`` with ratio < 1 meaning
    the GPU engine beats CPU-RTree.
    """
    out: dict[str, list[tuple[float, str, float]]] = {}
    for scenario, engines in [
        (scenario_s1_random(scale), ["gpu_spatial", "gpu_temporal",
                                     "gpu_spatiotemporal"]),
        (scenario_s2_merger(scale), ["gpu_temporal",
                                     "gpu_spatiotemporal"]),
        (scenario_s3_random_dense(scale), ["gpu_temporal",
                                           "gpu_spatiotemporal"]),
    ]:
        runner = ExperimentRunner(scenario)
        selected = scenario.application_d or scenario.d_values[:2]
        rows: list[tuple[float, str, float]] = []
        for d in selected:
            cpu_rec, _ = runner.run_one("cpu_rtree", d)
            for eng in engines:
                rec, _ = runner.run_one(eng, d)
                rows.append((d, eng,
                             rec.modeled_seconds / cpu_rec.modeled_seconds))
        out[scenario.name] = rows
    return out
