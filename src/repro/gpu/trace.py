"""Execution-trace export: profiles -> Chrome trace-event JSON.

Converts a :class:`~repro.gpu.profiler.SearchProfile` into the Trace
Event Format consumed by ``chrome://tracing`` / Perfetto, laying out the
modeled timeline: kernel invocations on a GPU track, host<->device
transfers on a PCIe track, host scheduling on a CPU track.  Durations are
the cost model's — the tool visualizes where modeled time goes, which is
how the response-time breakdowns in EXPERIMENTS.md were sanity-checked.

Redo round-trips are rendered explicitly: every re-invocation gets its
own redo-upload + kernel + drain event triple, sized from that
invocation's :class:`~repro.gpu.kernel.KernelStats` (thread count for
the redo id upload, atomic appends for the result drain), instead of an
even split of the total transfer time.  ``defaulted_queries`` appears
as a counter event on the GPU track.

:mod:`repro.obs.chrome` builds on :func:`profile_events` to render a
whole service batch across device lanes.
"""

from __future__ import annotations

import json
from pathlib import Path

from .costmodel import GPU_MODEL
from .profiler import SearchProfile

__all__ = ["profile_to_trace", "profile_events", "write_trace"]

_US = 1e6  # trace event timestamps are microseconds

_TRACKS = {"gpu": 1, "pcie": 2, "host": 3}


def profile_events(profile: SearchProfile, *,
                   t0: float = 0.0,
                   tids: dict[str, int] | None = None,
                   label: str = "") -> list[dict]:
    """Trace events (no track metadata) for one search profile.

    ``t0`` offsets the timeline (seconds) and ``tids`` remaps the three
    logical tracks (``gpu``/``pcie``/``host``) onto thread ids, which is
    how the service exporter lays several requests onto shared lanes.
    The sum of the emitted ``X`` durations equals the profile's modeled
    total exactly.
    """
    model = GPU_MODEL
    tids = tids or _TRACKS
    prefix = f"{label} " if label else ""
    events: list[dict] = []
    t = t0

    def emit(name: str, track: str, dur_s: float, **args) -> None:
        nonlocal t
        events.append({
            "name": prefix + name, "ph": "X", "pid": 0,
            "tid": tids[track],
            "ts": round(t * _US, 3), "dur": round(dur_s * _US, 3),
            "args": args,
        })
        t += dur_s

    host = model.host_time(profile.schedule_items).host
    if host > 0:
        emit("compute schedule", "host", host,
             items=profile.schedule_items)

    n_inv = max(profile.num_kernel_invocations, 1)
    bw = model.spec.pcie_bandwidth

    # Per-invocation transfer payloads, reconstructed from the per-
    # invocation KernelStats: a re-invocation uploads one 8-byte id per
    # live (redo) thread, and an invocation's share of the result drain
    # is proportional to its atomic appends.
    stats = profile.kernel_stats
    redo_bytes = [8 * s.num_threads for s in stats[1:]]
    redo_total = min(sum(redo_bytes), profile.h2d_bytes)
    if sum(redo_bytes) > 0 and redo_total < sum(redo_bytes):
        scale = redo_total / sum(redo_bytes)
        redo_bytes = [b * scale for b in redo_bytes]
    initial_h2d = profile.h2d_bytes - redo_total

    total_atomics = sum(s.atomic_ops for s in stats)
    if total_atomics > 0:
        d2h_bytes = [profile.d2h_bytes * s.atomic_ops / total_atomics
                     for s in stats]
    else:
        d2h_bytes = [profile.d2h_bytes / n_inv] * max(len(stats), 1)

    # One upload + one drain per invocation, plus a redo upload before
    # each re-invocation; spread the PCIe latency budget evenly across
    # the emitted transfer events so track totals match the model.
    n_xfer_events = 1 + len(redo_bytes) + max(len(stats), 1)
    lat_share = (profile.num_transfers * model.spec.pcie_latency_s
                 / n_xfer_events)

    emit("upload Q + schedule", "pcie", initial_h2d / bw + lat_share,
         h2d_bytes=int(initial_h2d))
    if not stats:
        emit("drain results", "pcie",
             d2h_bytes[0] / bw + lat_share,
             d2h_bytes=int(d2h_bytes[0]))
    for i, s in enumerate(stats):
        if i > 0:
            emit(f"redo upload #{i}", "pcie",
                 redo_bytes[i - 1] / bw + lat_share,
                 h2d_bytes=int(redo_bytes[i - 1]),
                 redo_queries=s.num_threads)
        cost = model.kernel_time(s)
        emit(f"kernel #{i} launch", "host", cost.launches)
        emit(f"{s.name} #{i}", "gpu", cost.compute + cost.atomics,
             threads=s.num_threads,
             comparisons=s.total_comparisons,
             atomics=s.atomic_ops,
             divergence=round(s.divergence_factor(
                 model.spec.warp_size), 3))
        emit(f"drain results #{i}", "pcie",
             d2h_bytes[i] / bw + lat_share,
             d2h_bytes=int(d2h_bytes[i]))

    # Counter event: queries the spatiotemporal scheme handed back to
    # the temporal one (always emitted so the track shows the zero).
    events.append({
        "name": prefix + "defaulted_queries", "ph": "C", "pid": 0,
        "tid": tids["gpu"], "ts": round(t * _US, 3),
        "args": {"queries": int(profile.defaulted_queries)},
    })
    return events


def profile_to_trace(profile: SearchProfile) -> list[dict]:
    """Build the full trace event list (with track names) for one
    search profile."""
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": tid,
         "args": {"name": f"{track} (modeled)"}}
        for track, tid in _TRACKS.items()
    ]
    events.extend(profile_events(profile))
    return events


def write_trace(profile: SearchProfile, path: str | Path) -> Path:
    """Write a ``chrome://tracing``-loadable JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"traceEvents": profile_to_trace(profile),
               "displayTimeUnit": "ms"}
    path.write_text(json.dumps(payload))
    return path
