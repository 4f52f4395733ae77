"""Search profiles: the measured-counts record of one engine run.

Every engine returns, next to its :class:`~repro.core.result.ResultSet`, a
:class:`SearchProfile` holding exactly what happened: kernel invocations
with per-thread work, PCIe traffic, atomic counts, buffer events, and
host-side schedule size.  The profile is the single source the cost model
reads, and it is also what the experiment harness prints so that every
reproduced figure is traceable to raw counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from .costmodel import CostBreakdown, CpuCostModel, GpuCostModel
from .device import VirtualGPU
from .kernel import KernelStats

__all__ = ["SearchProfile", "CpuSearchProfile", "RequestMetrics"]


@dataclass
class SearchProfile:
    """Execution record of one GPU-engine search."""

    engine: str
    num_queries: int
    kernel_stats: list[KernelStats] = field(default_factory=list)
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    num_transfers: int = 0
    schedule_items: int = 0
    #: queries that had to be re-processed (buffer overflow / result-buffer
    #: pressure), summed over all re-invocations.
    redo_queries: int = 0
    #: GPUSpatioTemporal only: queries that fell back to the temporal scheme.
    defaulted_queries: int = 0
    #: result items before host-side deduplication.
    raw_result_items: int = 0
    #: result items after deduplication.
    result_items: int = 0
    #: device bytes held by the index (offline, for reporting).
    index_bytes: int = 0
    #: wall-clock seconds spent simulating (not modeled time).
    wall_seconds: float = 0.0
    #: search attempts under the retry policy (1 = first try succeeded).
    attempts: int = 1
    #: modeled backoff the retry policy charged between attempts.
    backoff_s: float = 0.0

    @classmethod
    def capture(cls, engine: str, gpu: VirtualGPU, num_queries: int,
                **kw) -> "SearchProfile":
        return cls(
            engine=engine,
            num_queries=num_queries,
            kernel_stats=list(gpu.kernel_stats),
            h2d_bytes=gpu.transfers.h2d_bytes,
            d2h_bytes=gpu.transfers.d2h_bytes,
            num_transfers=gpu.transfers.num_transfers,
            **kw,
        )

    # -- aggregates -------------------------------------------------------------

    @property
    def num_kernel_invocations(self) -> int:
        return len(self.kernel_stats)

    @property
    def total_comparisons(self) -> int:
        return sum(s.total_comparisons for s in self.kernel_stats)

    @property
    def total_gathers(self) -> int:
        return sum(s.total_gathers for s in self.kernel_stats)

    def divergence_factor(self, warp_size: int = 32) -> float:
        """Grid-wide SIMT divergence (1.0 = converged)."""
        num = 0.0
        den = 0.0
        for s in self.kernel_stats:
            from .kernel import warp_work
            num += warp_work(s.thread_work, warp_size) * warp_size
            den += s.thread_work.sum()
        return float(num / den) if den else 1.0

    # -- modeled time -------------------------------------------------------------

    def modeled_time(self, model: GpuCostModel,
                     *, discount_reinvocations: bool = False
                     ) -> CostBreakdown:
        """Convert this profile's counts to modeled seconds."""
        total = CostBreakdown()
        for i, stats in enumerate(self.kernel_stats):
            include_launch = not (discount_reinvocations and i > 0)
            total = total + model.kernel_time(
                stats, include_launch=include_launch)
        xfer_payload = ((self.h2d_bytes + self.d2h_bytes)
                        / model.spec.pcie_bandwidth)
        n_lat = 2 if (discount_reinvocations
                      and self.num_kernel_invocations > 1) \
            else self.num_transfers
        total = total + CostBreakdown(
            transfers=xfer_payload + n_lat * model.spec.pcie_latency_s)
        total = total + model.host_time(self.schedule_items)
        return total

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly representation; ``kind`` tells a GPU profile
        from a CPU one."""
        return {
            "kind": "gpu",
            "engine": self.engine,
            "num_queries": int(self.num_queries),
            "kernel_stats": [s.to_dict() for s in self.kernel_stats],
            "h2d_bytes": int(self.h2d_bytes),
            "d2h_bytes": int(self.d2h_bytes),
            "num_transfers": int(self.num_transfers),
            "schedule_items": int(self.schedule_items),
            "redo_queries": int(self.redo_queries),
            "defaulted_queries": int(self.defaulted_queries),
            "raw_result_items": int(self.raw_result_items),
            "result_items": int(self.result_items),
            "index_bytes": int(self.index_bytes),
            "wall_seconds": float(self.wall_seconds),
            "attempts": int(self.attempts),
            "backoff_s": float(self.backoff_s),
        }


@dataclass
class CpuSearchProfile:
    """Execution record of one CPU-RTree search."""

    engine: str
    num_queries: int
    node_visits: int = 0
    comparisons: int = 0
    result_items: int = 0
    index_bytes: int = 0
    wall_seconds: float = 0.0

    def modeled_time(self, model: CpuCostModel) -> CostBreakdown:
        return model.search_time(
            node_visits=self.node_visits,
            comparisons=self.comparisons,
            num_queries=self.num_queries,
            result_items=self.result_items,
        )

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly representation (``kind`` discriminator: cpu)."""
        return {
            "kind": "cpu",
            "engine": self.engine,
            "num_queries": int(self.num_queries),
            "node_visits": int(self.node_visits),
            "comparisons": int(self.comparisons),
            "result_items": int(self.result_items),
            "index_bytes": int(self.index_bytes),
            "wall_seconds": float(self.wall_seconds),
        }


@dataclass
class RequestMetrics:
    """Service-side telemetry for one batch request.

    Produced by :class:`repro.service.QueryService` next to each
    :class:`~repro.core.search.SearchOutcome`: where the time went
    (queue wait vs execution), whether the engine cache hit, and whether
    the request was degraded to a fallback engine.
    """

    #: engine actually used (after auto selection / degradation).
    engine: str = ""
    #: modeled seconds the batch waited for a free device lane.
    queue_wait_s: float = 0.0
    #: True when a cached engine (index already built) served the batch.
    cache_hit: bool = False
    #: wall seconds spent building the engine/index (0.0 on cache hits).
    engine_build_s: float = 0.0
    #: kernel invocations the batch needed (0 for CPU engines).
    invocations: int = 0
    #: modeled response time of the search itself.
    modeled_seconds: float = 0.0
    #: wall seconds spent simulating the search.
    wall_seconds: float = 0.0
    #: True when the requested/planned engine failed and the service
    #: fell back to another engine.
    degraded: bool = False
    #: why the degradation happened (empty when not degraded).
    degradation_reason: str = ""
    #: search attempts the serving engine needed (retry policy).
    attempts: int = 1
    #: modeled backoff charged between retry attempts.
    backoff_s: float = 0.0
    #: failover hops the service walked before this engine answered
    #: (0 = the requested/planned engine served it).
    failovers: int = 0
    #: modeled service-clock instant the request arrived.
    arrival_s: float = 0.0
    #: modeled lane occupancy, one entry per shard:
    #: ``{"lane": int, "start_s": float, "dur_s": float, "shard": int}``
    #: (lane -1 = host).  Feeds the multi-lane Chrome trace exporter.
    lane_spans: list = field(default_factory=list)
    #: database epoch of the snapshot the request was pinned to.
    snapshot_epoch: int = 0
    #: live delta rows overlaid on the base results (0 = clean base).
    delta_segments: int = 0
    #: modeled seconds of the brute-force delta-overlay scan.
    delta_scan_s: float = 0.0

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "engine": self.engine,
            "queue_wait_s": float(self.queue_wait_s),
            "cache_hit": bool(self.cache_hit),
            "engine_build_s": float(self.engine_build_s),
            "invocations": int(self.invocations),
            "modeled_seconds": float(self.modeled_seconds),
            "wall_seconds": float(self.wall_seconds),
            "degraded": bool(self.degraded),
            "degradation_reason": self.degradation_reason,
            "attempts": int(self.attempts),
            "backoff_s": float(self.backoff_s),
            "failovers": int(self.failovers),
            "arrival_s": float(self.arrival_s),
            "lane_spans": [dict(s) for s in self.lane_spans],
            "snapshot_epoch": int(self.snapshot_epoch),
            "delta_segments": int(self.delta_segments),
            "delta_scan_s": float(self.delta_scan_s),
        }
