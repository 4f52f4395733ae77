"""Tests for the extended CLI commands (plan/stats/report/verify/trace
plus the telemetry exports: metrics, trace)."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli2") / "db.npz"
    assert main(["generate", "random-dense", "--scale", "0.002",
                 "--out", str(path)]) == 0
    return str(path)


class TestPlan:
    def test_plan_ranks_engines(self, db_path, capsys):
        assert main(["plan", db_path, "--d", "0.05",
                     "--num-bins", "100",
                     "--query-trajectories", "3"]) == 0
        out = capsys.readouterr().out
        assert "engine ranking" in out
        for eng in ("gpu_temporal", "gpu_spatiotemporal", "cpu_rtree",
                    "gpu_spatial"):
            assert eng in out


    @pytest.mark.parametrize("d", ["inf", "1e400"])
    def test_threshold_the_planner_refuses_is_exit_2(self, db_path, d,
                                                     capsys):
        assert main(["plan", db_path, "--d", d]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro plan: error: planner: d must be "
                              "finite")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [
        ("--num-bins", "-3"), ("--num-subbins", "0"),
        ("--cells-per-dim", "0"), ("--segments-per-mbb", "-1")])
    def test_bad_hint_is_a_usage_error(self, db_path, flag, value,
                                       capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", db_path, "--d", "0.05", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: " in err
        assert "Traceback" not in err


class TestStats:
    def test_stats_reports_all_indexes(self, db_path, capsys):
        assert main(["stats", db_path, "--num-bins", "50",
                     "--num-subbins", "2", "--cells-per-dim", "8"]) == 0
        out = capsys.readouterr().out
        for token in ("FsgStats", "TemporalStats",
                      "SpatioTemporalStats", "RTreeStats"):
            assert token in out


class TestVerifyAndTrace:
    def test_search_with_verify(self, db_path, capsys):
        assert main(["search", db_path, "--d", "0.05",
                     "--method", "gpu_temporal", "--num-bins", "50",
                     "--query-trajectories", "2", "--verify"]) == 0
        assert "verification: PASS" in capsys.readouterr().out

    def test_search_with_trace(self, db_path, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["search", db_path, "--d", "0.05",
                     "--method", "gpu_temporal", "--num-bins", "50",
                     "--query-trajectories", "2",
                     "--trace", str(trace)]) == 0
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]

    def test_trace_skipped_for_cpu_engine(self, db_path, tmp_path,
                                          capsys):
        trace = tmp_path / "trace.json"
        assert main(["search", db_path, "--d", "0.05",
                     "--method", "cpu_rtree",
                     "--query-trajectories", "2",
                     "--trace", str(trace)]) == 0
        assert "skipped" in capsys.readouterr().out
        assert not trace.exists()


class TestTelemetryCommands:
    def test_metrics_prometheus(self, db_path, capsys):
        assert main(["metrics", db_path, "--d", "0.05",
                     "--batches", "2", "--method", "gpu_temporal",
                     "--num-bins", "50"]) == 0
        out = capsys.readouterr().out
        assert "repro_request_latency_seconds_bucket" in out
        assert "repro_cache_hits_total" in out
        assert "repro_cache_misses_total" in out

    def test_metrics_json_to_file(self, db_path, tmp_path, capsys):
        out_path = tmp_path / "metrics.json"
        assert main(["metrics", db_path, "--d", "0.05",
                     "--batches", "1", "--format", "json",
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["repro_requests_total"]["type"] == "counter"

    def test_metrics_requires_d(self, db_path, capsys):
        assert main(["metrics", db_path]) == 2
        assert "--d is required" in capsys.readouterr().err

    def test_trace_writes_all_artifacts(self, db_path, tmp_path,
                                        capsys):
        trace = tmp_path / "trace.json"
        spans = tmp_path / "spans.json"
        events = tmp_path / "events.jsonl"
        assert main(["trace", db_path, "--d", "0.05",
                     "--batches", "2", "--num-devices", "2",
                     "--method", "gpu_temporal", "--num-bins", "50",
                     "--out", str(trace), "--spans", str(spans),
                     "--events", str(events),
                     "--slow-ms", "0.0001"]) == 0
        payload = json.loads(trace.read_text())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])
        roots = json.loads(spans.read_text())
        assert roots[0]["name"] == "service.batch"
        assert any(json.loads(line)["kind"] == "request"
                   for line in events.read_text().splitlines())
        out = capsys.readouterr().out
        assert f"({len(roots)} trees, 0 dropped by the ring)" in out
        assert "slow queries" in out


class TestReport:
    def test_report_command(self, tmp_path, capsys):
        (tmp_path / "fig4_random.txt").write_text("table")
        assert main(["report", "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "REPORT.md" in out
        assert (tmp_path / "REPORT.md").exists()
