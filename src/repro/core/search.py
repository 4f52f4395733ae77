"""Public façade: one entry point over all engines.

Typical use::

    from repro import DistanceThresholdSearch, random_dataset

    db = random_dataset(scale=0.05)
    search = DistanceThresholdSearch(db, method="gpu_spatiotemporal",
                                     num_bins=1000, num_subbins=4)
    outcome = search.run(queries, d=5.0)
    outcome.results          # the ResultSet
    outcome.modeled_seconds  # response time under the machine model
    outcome.profile          # raw operation counts

Engine parameters are validated against the typed per-engine configs in
:mod:`repro.engines.config`; a misspelled knob raises
:class:`~repro.engines.config.ConfigError` naming the engine and the
nearest valid key, instead of dying somewhere inside the constructor.
Alternatively pass a config object directly::

    from repro.engines.config import GpuSpatioTemporalConfig
    search = DistanceThresholdSearch(
        db, method="gpu_spatiotemporal",
        config=GpuSpatioTemporalConfig(num_bins=1000, num_subbins=4))

Engines are constructed lazily but cached: the index build is the offline
phase (excluded from response time, §V-B) and is reused across ``run``
calls, exactly like a database that is indexed once and queried many
times.

Third-party engines register through the :func:`register_engine`
decorator::

    @register_engine("my_engine")
    class MyEngine(SearchEngine):
        ...

Enumerate engines with :func:`repro.engines.available` and resolve a
name with :func:`repro.engines.get_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engines.base import SearchEngine
from ..engines.config import EngineConfig
from ..engines.registry import available, get_engine, register_engine
from ..gpu.costmodel import CostBreakdown, price
from ..gpu.profiler import CpuSearchProfile, SearchProfile
from .result import ResultSet
from .types import SegmentArray

__all__ = ["DistanceThresholdSearch", "SearchOutcome",
           "register_engine"]


@dataclass(frozen=True)
class SearchOutcome:
    """Everything one search produced."""

    results: ResultSet
    profile: SearchProfile | CpuSearchProfile
    modeled: CostBreakdown

    @property
    def modeled_seconds(self) -> float:
        return self.modeled.total

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly representation (service responses and
        ``results/`` artifacts share this serialization)."""
        return {
            "results": self.results.to_dict(),
            "profile": self.profile.to_dict(),
            "modeled": self.modeled.to_dict(),
        }


class DistanceThresholdSearch:
    """Distance-threshold similarity search over a trajectory database.

    Parameters
    ----------
    database:
        The entry-segment database ``D``.
    method:
        One of :func:`repro.engines.available`: ``"gpu_spatial"``,
        ``"gpu_temporal"``,
        ``"gpu_spatiotemporal"`` (default — the paper's best overall),
        ``"cpu_rtree"`` or ``"cpu_scan"``.
    config:
        A typed engine config (see :mod:`repro.engines.config`); mutually
        exclusive with ``**engine_params``.
    **engine_params:
        Engine tuning knobs (e.g. ``num_bins``, ``num_subbins``,
        ``cells_per_dim``, ``segments_per_mbb``,
        ``result_buffer_items``), validated against the engine's typed
        config; unknown keys raise
        :class:`~repro.engines.config.ConfigError`.

    Modeled seconds describe the paper's machine, a Tesla C2075 next to
    a Xeon W3690 (:func:`repro.gpu.costmodel.price`).
    """

    def __init__(self, database: SegmentArray, *,
                 method: str = "gpu_spatiotemporal",
                 config: EngineConfig | None = None,
                 **engine_params) -> None:
        if method not in available():
            raise ValueError(
                f"unknown method {method!r}; available: "
                f"{sorted(available())}")
        self.method = method
        self.database = database
        self.engine: SearchEngine = get_engine(method).from_config(
            database, config, **engine_params)

    def run(self, queries: SegmentArray, d: float, *,
            exclude_same_trajectory: bool = False) -> SearchOutcome:
        """Execute the search and price it under the machine model."""
        results, profile = self.engine.search(
            queries, d, exclude_same_trajectory=exclude_same_trajectory)
        return SearchOutcome(results=results, profile=profile,
                             modeled=price(profile))
