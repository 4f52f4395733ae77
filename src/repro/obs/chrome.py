"""Chrome-trace export of a whole service batch across device lanes.

Where :func:`repro.gpu.trace.profile_to_trace` renders one engine
profile on a synthetic gpu/pcie/host track triple, this module renders
what the *service* did with a batch: one track per device lane of the
pool (plus the shared PCIe track and the host track), a summary slice
per request shard showing its modeled occupancy on its lane, and — for
unsharded GPU requests — the per-invocation kernel/transfer breakdown
nested inside that occupancy window.

The input is the list of :class:`~repro.service.SearchResponse`
objects a ``submit_batch`` call returned; everything needed (lane
placements, modeled start/duration, the profile) travels on the
response objects themselves.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..gpu.costmodel import GpuCostModel
from ..gpu.profiler import SearchProfile
from ..gpu.trace import profile_events

__all__ = ["service_batch_trace", "write_service_trace"]

_US = 1e6

#: fixed thread ids for the shared tracks; lane i maps to 10 + i.
HOST_TID = 0
PCIE_TID = 1
_LANE_BASE = 10


def _lane_tid(lane: int) -> int:
    return HOST_TID if lane < 0 else _LANE_BASE + lane


def service_batch_trace(responses, *,
                        model: GpuCostModel | None = None) -> list[dict]:
    """Trace events for a batch of service responses.

    One ``process_name`` metadata event per used track, one summary
    ``X`` slice per (request, shard) lane occupancy, and the detailed
    modeled breakdown for unsharded GPU requests.
    """
    model = model or GpuCostModel()
    lanes = sorted({span["lane"] for resp in responses
                    for span in resp.metrics.lane_spans
                    if span["lane"] >= 0})
    track_names = {HOST_TID: "host (modeled)",
                   PCIE_TID: "pcie (modeled)"}
    for lane in lanes:
        track_names[_lane_tid(lane)] = f"gpu lane {lane} (modeled)"
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": tid,
         "args": {"name": name}}
        for tid, name in sorted(track_names.items())
    ]

    for resp in responses:
        m = resp.metrics
        label = resp.request_id or "request"
        for span in m.lane_spans:
            events.append({
                "name": f"{label} [{m.engine}]"
                        + (f" shard {span['shard']}"
                           if len(m.lane_spans) > 1 else ""),
                "ph": "X", "pid": 0, "tid": _lane_tid(span["lane"]),
                "ts": round(span["start_s"] * _US, 3),
                "dur": round(span["dur_s"] * _US, 3),
                "args": {
                    "engine": m.engine,
                    "cache_hit": bool(m.cache_hit),
                    "degraded": bool(m.degraded),
                    "queue_wait_s": float(m.queue_wait_s),
                    "modeled_seconds": float(m.modeled_seconds),
                },
            })
        profile = resp.outcome.profile
        if len(m.lane_spans) == 1 and isinstance(profile, SearchProfile):
            span = m.lane_spans[0]
            events.extend(profile_events(
                profile, model, t0=span["start_s"],
                tids={"gpu": _lane_tid(span["lane"]),
                      "pcie": PCIE_TID, "host": HOST_TID},
                label=label))
    return events


def write_service_trace(responses, path: str | Path, *,
                        model: GpuCostModel | None = None) -> Path:
    """Write a ``chrome://tracing``-loadable JSON for a served batch."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"traceEvents": service_batch_trace(responses,
                                                  model=model),
               "displayTimeUnit": "ms"}
    path.write_text(json.dumps(payload))
    return path
