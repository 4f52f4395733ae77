"""The paper's three experimental scenarios, S1-S3 (§V-B), scale-aware.

Every scenario bundles a dataset generator, a query-set recipe, the query
distances the paper sweeps, and the per-engine configuration the paper
selected for that dataset.  A global ``scale`` knob shrinks the instance
sizes so the full figure suite runs on a laptop in minutes; scale = 1
reproduces the paper's sizes (25M-segment Merger included — bring RAM and
patience).  Scaling reduces counts, not structure: bin counts, subbin
counts, grid resolutions and the d sweeps are the paper's own values, and
buffer capacities shrink proportionally so the buffer-pressure phenomena
(§V-D/V-E) still occur at the same relative points.

The default scale is read from the ``REPRO_SCALE`` environment variable
(falling back to :data:`DEFAULT_SCALE`), so CI and benchmarks can dial the
whole suite without code changes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.types import SegmentArray
from ..data.merger import MergerConfig, merger_dataset
from ..data.queries import queries_from_database
from ..data.random_walk import random_dataset, random_dense_dataset
from ..engines.config import ConfigError

__all__ = ["Scenario", "DEFAULT_SCALE", "default_scale",
           "scenario_s1_random", "scenario_s2_merger",
           "scenario_s3_random_dense"]

#: Default instance scale; ~1-2 % of the paper's sizes keeps every
#: benchmark under a minute while preserving all qualitative behaviour.
DEFAULT_SCALE = 0.02


def default_scale() -> float:
    """The suite-wide scale: ``REPRO_SCALE`` env var or DEFAULT_SCALE."""
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return DEFAULT_SCALE
    try:
        value = float(raw)
    except ValueError:
        value = float("nan")
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"REPRO_SCALE must be in (0, 1], got {raw!r}")
    return value


@dataclass(frozen=True)
class Scenario:
    """One evaluation scenario: dataset + queries + sweep + engine configs."""

    name: str
    description: str
    make_database: Callable[[], SegmentArray]
    num_query_trajectories: int
    d_values: tuple[float, ...]
    #: engine name -> fields of its config (``repro.engines.config``),
    #: the paper's per-dataset choices.
    engine_configs: dict[str, dict] = field(default_factory=dict)
    #: device result-buffer capacity (items) for the GPU engines.
    result_buffer_items: int = 2_000_000
    #: d values the paper marks as application-relevant (vertical lines).
    application_d: tuple[float, ...] = ()
    #: optional override producing the query set; defaults to drawing
    #: whole trajectories from the database (the astrophysics use case).
    queries_fn: Callable[[SegmentArray], SegmentArray] | None = None

    def make_queries(self, database: SegmentArray) -> SegmentArray:
        """The scenario's query set."""
        if self.queries_fn is not None:
            return self.queries_fn(database)
        return queries_from_database(
            database, self.num_query_trajectories,
            rng=np.random.default_rng(1234))


def scenario_s1_random(scale: float | None = None) -> Scenario:
    """S1: the Random dataset, query set of 100 trajectories x 400 steps,
    d swept from 5 to 50 (Fig. 4)."""
    s = default_scale() if scale is None else scale
    nq = max(2, int(round(100 * s)))
    n_db = max(2, int(round(2500 * s)))
    side = 1000.0 * (n_db / 2500.0) ** (1.0 / 3.0)

    def fresh_queries(_db: SegmentArray) -> SegmentArray:
        # The paper's S1 query set is "a query with 100 trajectories each
        # with 400 timesteps" — fresh walks from the same process, not a
        # database subset.
        from ..core.types import SegmentArray as SA
        from ..data.random_walk import make_random_walks
        return SA.from_trajectories(make_random_walks(
            num_trajectories=nq, num_timesteps=400, box_side=side,
            step_sigma=1.0, start_time_range=(0.0, 100.0),
            rng=np.random.default_rng(77), first_traj_id=1_000_000))

    return Scenario(
        name="S1-random",
        description=("Random: 2,500 random walks x 400 steps (sparse); "
                     "Q = 100 trajectories; d in [5, 50]"),
        make_database=lambda: random_dataset(scale=s),
        num_query_trajectories=nq,
        queries_fn=fresh_queries,
        d_values=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0,
                  50.0),
        engine_configs={
            # §V-C: 50 cells/dim, 10,000 bins, v = 4 are the paper's picks.
            # Candidate buffer sized so per-thread slices |U_k| overflow
            # for the biggest-d queries, exercising the redo loop (§IV-A).
            "gpu_spatial": {"cells_per_dim": 50,
                            "candidate_buffer_items":
                                max(150_000, int(5.0e7 * s))},
            "gpu_temporal": {"num_bins": 10_000},
            "gpu_spatiotemporal": {"num_bins": 10_000, "num_subbins": 4},
            "cpu_rtree": {"segments_per_mbb": 4},
        },
        # Result volume scales with |D| x |Q| ~ scale^2; sizing the buffer
        # the same way keeps the paper's relative buffer pressure.
        result_buffer_items=max(50_000, int(5.0e7 * s * s)),
        application_d=(10.0,),
    )


def scenario_s2_merger(scale: float | None = None) -> Scenario:
    """S2: the Merger dataset, 265 query trajectories x 193 steps, d from
    0.001 to 5 (Fig. 5)."""
    s = default_scale() if scale is None else scale
    n_disk = max(64, int(round(65_536 * s)))
    nq = max(2, int(round(265 * s)))
    return Scenario(
        name="S2-merger",
        description=("Merger: 131,072-particle galaxy merger x 193 "
                     "snapshots; Q = 265 trajectories; d in [0.001, 5]"),
        make_database=lambda: merger_dataset(
            cfg=MergerConfig(particles_per_disk=n_disk)),
        num_query_trajectories=nq,
        d_values=(0.001, 0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0),
        engine_configs={
            # §V-D: 1,000 bins; v = 16 subbins best for most d.
            "gpu_temporal": {"num_bins": 1_000},
            "gpu_spatiotemporal": {"num_bins": 1_000, "num_subbins": 16},
            "cpu_rtree": {"segments_per_mbb": 4},
        },
        # Sized so the large-d searches need a handful of kernel
        # invocations, as the paper's 5.0e7-item buffer does at full scale
        # (result volume scales with scale^2, see S1).
        result_buffer_items=max(5_000, int(1.0e9 * s * s)),
        application_d=(1.0, 5.0),
    )


def scenario_s3_random_dense(scale: float | None = None) -> Scenario:
    """S3: the Random-dense dataset, 265 query trajectories, d from 0.01
    to 0.09, with the enlarged result buffer (Fig. 6)."""
    s = default_scale() if scale is None else scale
    nq = max(2, int(round(265 * s)))
    return Scenario(
        name="S3-random-dense",
        description=("Random-dense: 65,536 walkers at solar-neighbourhood "
                     "density x 193 steps; Q = 265 trajectories; "
                     "d in [0.01, 0.09]"),
        make_database=lambda: random_dense_dataset(scale=s),
        num_query_trajectories=nq,
        d_values=(0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09),
        engine_configs={
            # §V-E: 1,000 bins; v = 4 subbins; buffer grown 5e7 -> 9.2e7.
            "gpu_temporal": {"num_bins": 1_000},
            "gpu_spatiotemporal": {"num_bins": 1_000, "num_subbins": 4},
            # The paper's CPU-RTree measurably lacks joint spatiotemporal
            # selectivity on this uniform co-extensive dataset (it loses
            # to the GPU at d > 0.02, which a well-packed 4-D tree never
            # would); the 3-D spatial variant reproduces that measured
            # behaviour.  See EXPERIMENTS.md and the T-RTREE ablation,
            # which reports both variants.
            "cpu_rtree": {"segments_per_mbb": 4, "temporal_axis": False},
        },
        # The 9.2e7-item enlarged buffer of §V-E, scale^2-scaled so
        # d = 0.09 still needs the paper's several invocations.
        result_buffer_items=max(2_000, int(1.0e7 * s * s)),
        application_d=(0.02, 0.05),
    )
