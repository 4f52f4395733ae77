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
from ..gpu.costmodel import CostBreakdown, CpuCostModel, GpuCostModel
from ..gpu.device import VirtualGPU
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

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchOutcome":
        """Inverse of :meth:`to_dict`."""
        prof = payload["profile"]
        profile_cls = (CpuSearchProfile if prof.get("kind") == "cpu"
                       else SearchProfile)
        return cls(
            results=ResultSet.from_dict(payload["results"]),
            profile=profile_cls.from_dict(prof),
            modeled=CostBreakdown.from_dict(payload["modeled"]),
        )


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
    gpu:
        Place a GPU engine on a specific :class:`VirtualGPU` (the query
        service uses this to pin engines to pool devices).
    gpu_model, cpu_model:
        Cost models used to convert profiles to modeled seconds; defaults
        model the paper's Tesla C2075 and Xeon W3690.
    **engine_params:
        Engine tuning knobs (e.g. ``num_bins``, ``num_subbins``,
        ``cells_per_dim``, ``segments_per_mbb``,
        ``result_buffer_items``), validated against the engine's typed
        config; unknown keys raise
        :class:`~repro.engines.config.ConfigError`.
    """

    def __init__(self, database: SegmentArray, *,
                 method: str = "gpu_spatiotemporal",
                 config: EngineConfig | None = None,
                 gpu: VirtualGPU | None = None,
                 gpu_model: GpuCostModel | None = None,
                 cpu_model: CpuCostModel | None = None,
                 **engine_params) -> None:
        if method not in available():
            raise ValueError(
                f"unknown method {method!r}; available: "
                f"{sorted(available())}")
        self.method = method
        self.database = database
        self.gpu_model = gpu_model or GpuCostModel()
        self.cpu_model = cpu_model or CpuCostModel()
        self.engine: SearchEngine = get_engine(method).from_config(
            database, config, gpu=gpu, **engine_params)

    def run(self, queries: SegmentArray, d: float, *,
            exclude_same_trajectory: bool = False) -> SearchOutcome:
        """Execute the search and price it under the machine model."""
        results, profile = self.engine.search(
            queries, d, exclude_same_trajectory=exclude_same_trajectory)
        if isinstance(profile, CpuSearchProfile):
            modeled = profile.modeled_time(self.cpu_model)
        else:
            modeled = profile.modeled_time(self.gpu_model)
        return SearchOutcome(results=results, profile=profile,
                             modeled=modeled)
