"""The fault-injection framework: specs, the injector, the gpu-layer
hooks, and the seeded chaos campaign."""

from __future__ import annotations

import pytest

from repro.campaigns.chaos import ChaosConfig, run as run_campaign
from repro.faults import (FAULT_KINDS, FaultInjector, FaultSpec,
                          KernelAbortError, LaneBlackoutError,
                          TransferFault)
from repro.gpu.device import VirtualGPU
from repro.gpu.kernel import KernelLauncher, LaunchSpec
from repro.gpu.memory import DeviceOutOfMemoryError


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="gamma_ray")

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_rate_bounds(self, bad):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(kind="oom", rate=bad)

    def test_after_and_count_validation(self):
        with pytest.raises(ValueError, match="after"):
            FaultSpec(kind="h2d", after=-1)
        with pytest.raises(ValueError, match="count"):
            FaultSpec(kind="h2d", count=0)

    def test_stall_factor_must_slow_down(self):
        with pytest.raises(ValueError, match="stall_factor"):
            FaultSpec(kind="kernel_stall", stall_factor=1.0)

    def test_matches_site_and_lane(self):
        oom = FaultSpec(kind="oom")
        assert oom.matches("alloc", lane=0)
        assert not oom.matches("h2d", lane=0)
        pinned = FaultSpec(kind="d2h", lanes=(1, 2))
        assert pinned.matches("d2h", lane=2)
        assert not pinned.matches("d2h", lane=0)
        # An un-homed device never matches a lane-restricted spec.
        assert not pinned.matches("d2h", lane=None)
        # Blackouts are eligible at every site.
        blk = FaultSpec(kind="lane_blackout")
        for site in ("alloc", "h2d", "d2h", "kernel"):
            assert blk.matches(site, lane=None)


def _constant_work(units: int):
    """A kernel in which every thread does ``units`` comparisons."""
    def kernel(k):
        k.thread_work[:] = units
    return kernel


def _fired_ordinals(seed: int, rate: float, ops: int = 300) -> list[int]:
    inj = FaultInjector([FaultSpec(kind="h2d", rate=rate)], seed=seed)
    fired = []
    for i in range(ops):
        try:
            inj.check("h2d", lane=0, label=f"op{i}")
        except TransferFault:
            fired.append(i)
    return fired


class TestInjectorDeterminism:
    def test_same_seed_same_activations(self):
        assert _fired_ordinals(7, 0.2) == _fired_ordinals(7, 0.2)

    def test_different_seed_different_activations(self):
        assert _fired_ordinals(1, 0.2) != _fired_ordinals(2, 0.2)

    def test_rate_is_approximately_honored(self):
        fired = _fired_ordinals(0, 0.2, ops=1000)
        assert 120 <= len(fired) <= 280

    def test_rate_one_fires_every_eligible_op(self):
        assert _fired_ordinals(0, 1.0, ops=20) == list(range(20))

    def test_after_and_count_gate_activations(self):
        inj = FaultInjector(
            [FaultSpec(kind="h2d", rate=1.0, after=2, count=2)], seed=0)
        outcomes = []
        for i in range(6):
            try:
                inj.check("h2d", lane=0, label=f"op{i}")
                outcomes.append("ok")
            except TransferFault:
                outcomes.append("fault")
        assert outcomes == ["ok", "ok", "fault", "fault", "ok", "ok"]

    def test_disabled_injector_is_inert(self):
        inj = FaultInjector([FaultSpec(kind="h2d", rate=1.0)], seed=0)
        inj.enabled = False
        inj.check("h2d", lane=0, label="quiet")
        assert inj.total_ops == 0 and inj.total_fired == 0


class TestFaultKindsOnDevice:
    """Each fault kind, raised through the real gpu-layer hooks."""

    def test_oom_names_lane_and_resident_allocations(self):
        inj = FaultInjector([FaultSpec(kind="oom", after=1)], seed=0)
        gpu = VirtualGPU(faults=inj, lane=3)
        gpu.memory.alloc("db.coords", (8, 4))
        with pytest.raises(DeviceOutOfMemoryError) as ei:
            gpu.memory.alloc("result_buffer", (16, 4))
        assert "lane 3" in str(ei.value)
        assert "db.coords" in str(ei.value)
        assert ei.value.lane == 3
        assert ei.value.allocations == {"db.coords": 8 * 4 * 8}
        # The failed allocation was never registered.
        assert "result_buffer" not in gpu.memory

    @pytest.mark.parametrize("direction", ["h2d", "d2h"])
    def test_transfer_faults_keep_the_ledger_clean(self, direction):
        inj = FaultInjector([FaultSpec(kind=direction)], seed=0)
        gpu = VirtualGPU(faults=inj, lane=1)
        op = getattr(gpu.transfers, direction)
        with pytest.raises(TransferFault) as ei:
            op("payload", 4096)
        assert ei.value.direction == direction
        assert ei.value.lane == 1
        assert gpu.transfers.num_transfers == 0

    def test_kernel_abort_records_nothing(self):
        inj = FaultInjector([FaultSpec(kind="kernel_abort")], seed=0)
        gpu = VirtualGPU(faults=inj, lane=0)
        launcher = KernelLauncher(gpu)
        with pytest.raises(KernelAbortError):
            launcher.run(LaunchSpec("gpu_temporal", num_threads=4),
                         _constant_work(5))
        assert gpu.kernel_stats == []

    def test_kernel_stall_inflates_thread_work(self):
        inj = FaultInjector(
            [FaultSpec(kind="kernel_stall", stall_factor=4.0)], seed=0)
        gpu = VirtualGPU(faults=inj, lane=0)
        KernelLauncher(gpu).run(
            LaunchSpec("gpu_temporal", num_threads=4),
            _constant_work(10))
        [stats] = gpu.kernel_stats
        assert stats.thread_work.tolist() == [40, 40, 40, 40]

    def test_lane_blackout_kills_lane_until_revived(self):
        inj = FaultInjector(
            [FaultSpec(kind="lane_blackout", count=1)], seed=0)
        gpu = VirtualGPU(faults=inj, lane=2)
        with pytest.raises(LaneBlackoutError):
            gpu.transfers.h2d("queries", 100)
        assert inj.dead_lanes == {2}
        # Every subsequent operation on the dead lane fails, at any
        # site, regardless of the spec's count being spent.
        with pytest.raises(LaneBlackoutError):
            gpu.memory.alloc("buf", (4,))
        inj.revive(2)
        gpu.transfers.h2d("queries", 100)
        assert gpu.transfers.num_transfers == 1
        assert inj.fired_by_kind == {"lane_blackout": 1}

    def test_lane_restriction_spares_other_lanes(self):
        inj = FaultInjector(
            [FaultSpec(kind="h2d", lanes=(1,))], seed=0)
        healthy = VirtualGPU(faults=inj, lane=0)
        healthy.transfers.h2d("queries", 64)
        doomed = VirtualGPU(faults=inj, lane=1)
        with pytest.raises(TransferFault):
            doomed.transfers.h2d("queries", 64)

    def test_report_shape(self):
        inj = FaultInjector([FaultSpec(kind="h2d", rate=1.0)], seed=5)
        with pytest.raises(TransferFault):
            inj.check("h2d", lane=0, label="x")
        rep = inj.report()
        assert rep["seed"] == 5
        assert rep["ops_by_site"] == {"h2d": 1}
        assert rep["fired_by_kind"] == {"h2d": 1}
        assert rep["total_ops"] == rep["total_fired"] == 1
        assert rep["specs"][0]["kind"] == "h2d"


class TestCampaign:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="num_requests"):
            ChaosConfig(num_requests=0)
        with pytest.raises(ValueError, match="injection_rate"):
            ChaosConfig(injection_rate=1.5)

    def test_campaign_survives_with_every_fault_kind(self):
        report = run_campaign(ChaosConfig(seed=0))
        assert report.ok, report.render()
        assert report.total == 200
        # Everything answered was verified exact against cpu_scan
        # ground truth; nothing was lost or duplicated.
        assert report.verified == report.answered
        assert not report.mismatches
        # The storm actually exercised the whole taxonomy.
        assert set(report.injector["fired_by_kind"]) == set(FAULT_KINDS)
        assert report.injector["total_fired"] > 0
        # Non-answers are typed rejections, never silent drops.
        assert set(report.outcomes) <= {"ok", "degraded", "overloaded",
                                        "deadline_exceeded"}
        assert report.outcomes["degraded"] > 0

    def test_campaign_is_deterministic(self):
        cfg = ChaosConfig(seed=11, num_requests=60)
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert a.outcomes == b.outcomes
        assert a.injector == b.injector
        assert a.verified == b.verified
        assert a.failover_hops == b.failover_hops

    def test_seed_changes_the_campaign(self):
        a = run_campaign(ChaosConfig(seed=0, num_requests=60))
        b = run_campaign(ChaosConfig(seed=1, num_requests=60))
        assert (a.injector["fired_by_kind"]
                != b.injector["fired_by_kind"])

    def test_report_roundtrips_to_dict(self):
        import json
        report = run_campaign(ChaosConfig(seed=3, num_requests=24))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] == report.ok
        assert payload["outcomes"] == report.outcomes
        assert "chaos campaign report" in report.render()
