"""The crash campaign: kill-points fire, recovery is byte-identical."""

from __future__ import annotations

import pytest

from repro.durability import KILL_POINTS
from repro.campaigns.crash import CrashConfig, run as run_crash_campaign


def _small(**overrides) -> CrashConfig:
    """A campaign sized for the test suite (two CPU engines, tiny
    walks) — the full five-engine sweep runs in CI's crash job."""
    kw = dict(seed=0, num_ops=6, num_trajectories=8, steps=6,
              queries=2, checkpoint_every=2, sync="flush",
              methods=("cpu_scan", "cpu_rtree"))
    kw.update(overrides)
    return CrashConfig(**kw)


class TestConfigValidation:
    def test_too_few_ops_rejected(self):
        with pytest.raises(ValueError, match="num_ops"):
            CrashConfig(num_ops=3)

    def test_unknown_kill_point_rejected(self):
        with pytest.raises(ValueError, match="kill points"):
            CrashConfig(kill_points=("wal_mid_append", "oops"))

    def test_crash_on_op_bounds(self):
        with pytest.raises(ValueError, match="crash_on_op"):
            CrashConfig(num_ops=6, crash_on_op=7)


class TestCampaign:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        return run_crash_campaign(
            _small(), directory=tmp_path_factory.mktemp("campaign"))

    def test_campaign_passes(self, report):
        assert report.ok, report.render()

    def test_every_kill_point_class_fired(self, report):
        assert [r.point for r in report.runs] == list(KILL_POINTS)
        assert all(r.fired for r in report.runs)

    def test_torn_tail_exercised_by_mid_append(self, report):
        by_point = {r.point: r for r in report.runs}
        assert by_point["wal_mid_append"].torn_dropped == 1
        # The torn mutation never landed: recovery resumes it.
        mid = by_point["wal_mid_append"]
        assert mid.recovered_epoch + mid.resumed_ops \
            == report.reference_epoch

    def test_post_append_replays_the_durable_record(self, report):
        post = {r.point: r for r in report.runs}["wal_post_append"]
        assert post.torn_dropped == 0
        assert post.replayed >= 1
        assert post.recovered_epoch + post.resumed_ops \
            == report.reference_epoch

    def test_every_engine_byte_identical(self, report):
        for run in report.runs:
            assert set(run.identical) == {"cpu_scan", "cpu_rtree"}
            assert all(run.identical.values()), run

    def test_report_round_trips_to_dict(self, report):
        payload = report.to_dict()
        assert payload["ok"] is True
        assert len(payload["runs"]) == len(KILL_POINTS)
        assert "torn_dropped" in payload["runs"][0]

    def test_render_mentions_every_point(self, report):
        text = report.render()
        for point in KILL_POINTS:
            assert point in text


def test_deterministic_across_repeats(tmp_path):
    cfg = _small(kill_points=("wal_post_append",))
    a = run_crash_campaign(cfg, directory=tmp_path / "a")
    b = run_crash_campaign(cfg, directory=tmp_path / "b")
    assert a.to_dict() == b.to_dict()
    assert a.reference_epoch == b.reference_epoch
