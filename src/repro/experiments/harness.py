"""Experiment runner: sweep engines over query distances and record rows.

One :class:`ExperimentRunner` per scenario: the database and query set are
generated once, each engine is built once (index construction is the
offline phase), and response time is the cost model applied to each
search's measured operation counts (:func:`repro.gpu.costmodel.price`,
the paper's machine).  Every figure/table benchmark in
``benchmarks/`` is a thin wrapper over this module, so the rows printed
there are exactly the rows recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.result import ResultSet
from ..engines.base import SearchEngine
from ..engines.config import EngineConfig
from ..engines.registry import get_engine
from ..gpu.costmodel import price
from ..gpu.profiler import CpuSearchProfile, SearchProfile
from .scenarios import Scenario

__all__ = ["ExperimentRunner", "RunRecord"]


@dataclass(frozen=True)
class RunRecord:
    """One (engine, d) measurement."""

    scenario: str
    engine: str
    d: float
    modeled_seconds: float
    #: modeled seconds with kernel re-invocation overhead discounted —
    #: Fig. 4's "optimistic" curve (GPU engines only; equals
    #: modeled_seconds when a single invocation sufficed).
    optimistic_seconds: float
    result_items: int
    comparisons: int
    kernel_invocations: int
    redo_queries: int
    defaulted_queries: int
    transfers_bytes: int
    divergence: float
    wall_seconds: float


class ExperimentRunner:
    """Runs a scenario's sweep; caches the database and built engines."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.database = scenario.make_database()
        self.queries = scenario.make_queries(self.database)
        self._engines: dict[EngineConfig, SearchEngine] = {}

    # -- engine management -------------------------------------------------------

    def engine(self, name: str, **overrides: Any) -> SearchEngine:
        """Build (or fetch) an engine with the scenario's configuration.

        ``overrides`` adjust the config (used by the ablation sweeps);
        engines are cached by their validated config, so repeated calls
        don't rebuild the index.
        """
        cls = get_engine(name)
        params = {**self.scenario.engine_configs.get(name, {}), **overrides}
        if "result_buffer_items" in cls.config_type.valid_keys():
            params.setdefault("result_buffer_items",
                              self.scenario.result_buffer_items)
        config = cls.config_type.from_params(**params)
        if config not in self._engines:
            self._engines[config] = cls.from_config(self.database, config)
        return self._engines[config]

    # -- measurement ---------------------------------------------------------------

    def run_one(self, engine_name: str, d: float, **overrides: Any
                ) -> tuple[RunRecord, ResultSet]:
        engine = self.engine(engine_name, **overrides)
        results, profile = engine.search(self.queries, d)
        return self._record(engine_name, d, profile, results), results

    def _record(self, engine_name: str, d: float,
                profile: SearchProfile | CpuSearchProfile,
                results: ResultSet) -> RunRecord:
        modeled = price(profile).total
        if isinstance(profile, CpuSearchProfile):
            return RunRecord(
                scenario=self.scenario.name, engine=engine_name, d=d,
                modeled_seconds=modeled, optimistic_seconds=modeled,
                result_items=len(results),
                comparisons=profile.comparisons,
                kernel_invocations=0, redo_queries=0, defaulted_queries=0,
                transfers_bytes=0, divergence=1.0,
                wall_seconds=profile.wall_seconds)
        optimistic = price(profile, discount_reinvocations=True).total
        return RunRecord(
            scenario=self.scenario.name, engine=engine_name, d=d,
            modeled_seconds=modeled, optimistic_seconds=optimistic,
            result_items=len(results),
            comparisons=profile.total_comparisons,
            kernel_invocations=profile.num_kernel_invocations,
            redo_queries=profile.redo_queries,
            defaulted_queries=profile.defaulted_queries,
            transfers_bytes=profile.h2d_bytes + profile.d2h_bytes,
            divergence=profile.divergence_factor(),
            wall_seconds=profile.wall_seconds)

    def sweep(self, engine_names: list[str],
              d_values: tuple[float, ...] | None = None,
              **overrides: Any) -> list[RunRecord]:
        """The standard response-time-vs-d sweep for several engines."""
        d_values = d_values or self.scenario.d_values
        records: list[RunRecord] = []
        for name in engine_names:
            for d in d_values:
                rec, _ = self.run_one(name, d, **overrides)
                records.append(rec)
        return records
