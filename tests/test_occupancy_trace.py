"""Tests for the Chrome-trace exporter of a search profile."""

import json

import pytest

from repro.gpu.costmodel import price
from repro.gpu.trace import profile_to_trace, write_trace


class TestTrace:
    @pytest.fixture()
    def profile(self, small_db, small_queries):
        from repro.engines import GpuTemporalEngine
        engine = GpuTemporalEngine(small_db, num_bins=20,
                                   result_buffer_items=40)
        _, prof = engine.search(small_queries, 2.5)
        return prof

    def test_events_structure(self, profile):
        events = profile_to_trace(profile)
        names = [e["name"] for e in events if e["ph"] == "X"]
        assert any("gpu_temporal" in n for n in names)
        assert any("upload" in n for n in names)
        assert any("drain" in n for n in names)
        # One kernel slice per invocation.
        kernels = [n for n in names if n.startswith("gpu_temporal #")]
        assert len(kernels) == profile.num_kernel_invocations

    def test_timeline_is_ordered_and_positive(self, profile):
        events = [e for e in profile_to_trace(profile) if e["ph"] == "X"]
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        assert all(e["dur"] >= 0 for e in events)

    def test_durations_sum_to_modeled_total(self, profile):
        events = [e for e in profile_to_trace(profile)
                  if e["ph"] == "X"]
        total_us = sum(e["dur"] for e in events)
        modeled = price(profile).total
        assert total_us / 1e6 == pytest.approx(modeled, rel=0.01)

    def test_redo_roundtrips_are_explicit(self, profile):
        """Every re-invocation gets its own redo-upload/kernel/drain
        triple, sized from that invocation's KernelStats."""
        assert profile.num_kernel_invocations == 2  # buffer overflowed
        events = [e for e in profile_to_trace(profile)
                  if e["ph"] == "X"]
        redos = [e for e in events
                 if e["name"].startswith("redo upload #")]
        assert len(redos) == profile.num_kernel_invocations - 1
        # The redo upload carries one 8-byte id per redo thread.
        redo_threads = profile.kernel_stats[1].num_threads
        assert redos[0]["args"]["redo_queries"] == redo_threads
        assert redos[0]["args"]["h2d_bytes"] == 8 * redo_threads
        drains = [e for e in events
                  if e["name"].startswith("drain results #")]
        assert len(drains) == profile.num_kernel_invocations
        # Drain bytes split in proportion to each invocation's atomic
        # appends, conserving the profile total.
        assert sum(e["args"]["d2h_bytes"] for e in drains) \
            == pytest.approx(profile.d2h_bytes, abs=len(drains))

    def test_defaulted_queries_counter_event(self, profile):
        counters = [e for e in profile_to_trace(profile)
                    if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["name"] == "defaulted_queries"
        assert counters[0]["args"]["queries"] \
            == profile.defaulted_queries

    def test_write_trace_file(self, profile, tmp_path):
        path = write_trace(profile, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload
        assert len(payload["traceEvents"]) > 3
