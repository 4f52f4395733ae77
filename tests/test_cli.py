"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.io import load_segments, save_segments


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    """A tiny generated dataset on disk."""
    path = tmp_path_factory.mktemp("cli") / "db.npz"
    assert main(["generate", "random", "--scale", "0.004",
                 "--out", str(path)]) == 0
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transmogrify"])

    def test_search_requires_d(self, db_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", db_path])


class TestGenerate:
    def test_generates_loadable_npz(self, db_path):
        db = load_segments(db_path)
        assert len(db) > 0
        assert db.num_trajectories == 10  # 2500 * 0.004

    @pytest.mark.parametrize("dataset", ["random-dense", "merger"])
    def test_other_datasets(self, dataset, tmp_path, capsys):
        out = tmp_path / "d.npz"
        assert main(["generate", dataset, "--scale", "0.002",
                     "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert len(load_segments(out)) > 0


class TestInfo:
    def test_info_output(self, db_path, capsys):
        assert main(["info", db_path]) == 0
        out = capsys.readouterr().out
        assert "segments:" in out
        assert "temporal extent:" in out


class TestSearch:
    @pytest.mark.parametrize("method",
                             ["gpu_temporal", "cpu_rtree", "cpu_scan"])
    def test_search_runs(self, db_path, method, capsys):
        assert main(["search", db_path, "--d", "5.0",
                     "--method", method, "--num-bins", "50",
                     "--query-trajectories", "2"]) == 0
        out = capsys.readouterr().out
        assert "results for" in out
        assert "modeled response time" in out

    def test_search_with_query_file(self, db_path, tmp_path, capsys):
        db = load_segments(db_path)
        qpath = tmp_path / "q.npz"
        save_segments(qpath, db.take(np.arange(50)))
        assert main(["search", db_path, "--d", "3.0",
                     "--method", "gpu_temporal", "--num-bins", "50",
                     "--queries", str(qpath)]) == 0
        assert "50 query segments" in capsys.readouterr().out

    def test_exclude_same_trajectory_flag(self, db_path, capsys):
        args = ["search", db_path, "--d", "1.0", "--method",
                "cpu_rtree", "--query-trajectories", "2"]
        main(args)
        with_self = capsys.readouterr().out
        main(args + ["--exclude-same-trajectory"])
        without = capsys.readouterr().out
        n_with = int(with_self.split(" results")[0].split()[-1])
        n_without = int(without.split(" results")[0].split()[-1])
        assert n_without < n_with


class TestKnn:
    def test_knn_runs(self, db_path, capsys):
        assert main(["knn", db_path, "--k", "2",
                     "--method", "gpu_temporal", "--num-bins", "50",
                     "--query-trajectories", "2"]) == 0
        out = capsys.readouterr().out
        assert "kNN (k=2)" in out
        assert "neighbours" in out

    def test_knn_cpu_scan(self, db_path, capsys):
        """cpu_scan takes no index parameters."""
        assert main(["knn", db_path, "--k", "2", "--method", "cpu_scan",
                     "--query-trajectories", "2"]) == 0
        assert "kNN (k=2)" in capsys.readouterr().out


class TestUsageErrors:
    """A bad value is a one-line refusal on stderr and exit 2, never a
    traceback."""

    @pytest.mark.parametrize("argv", [
        ["search", "--d", "1.0", "--method", "gpu_temporal",
         "--num-bins", "0"],
        ["search", "--d", "1.0", "--query-trajectories", "11"],
        ["knn", "--k", "2", "--query-trajectories", "11"],
        ["plan", "--d", "1.0", "--query-trajectories", "11"],
        ["batch", "--d", "1.0", "--query-trajectories", "11"],
    ], ids=["search-num-bins", "search-queries", "knn-queries",
            "plan-queries", "batch-queries"])
    def test_refused_with_exit_2(self, db_path, argv, capsys):
        command, *flags = argv
        assert main([command, db_path, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: error: ")
        assert "Traceback" not in err


class TestCalibrate:
    def test_calibrate_runs(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "fitted GPU cycle costs" in out
        assert "residuals" in out


class TestFigures:
    def test_fig4_tiny(self, capsys):
        assert main(["figures", "fig4", "--scale", "0.004"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "cpu_rtree" in out


class TestShardCommand:
    def test_shard_serves_batches(self, db_path, capsys):
        assert main(["shard", db_path, "--d", "2.0", "--shards", "3",
                     "--batches", "2", "--method", "cpu_scan"]) == 0
        out = capsys.readouterr().out
        assert "sharded service: 3 shards" in out
        assert "exact full answers  2" in out

    def test_shard_kill_and_recover(self, db_path, tmp_path, capsys):
        assert main(["shard", db_path, "--d", "2.0", "--shards", "3",
                     "--batches", "4", "--method", "cpu_scan",
                     "--kill-shard", "1", "--recover",
                     "--durable-dir", str(tmp_path / "dur")]) == 0
        out = capsys.readouterr().out
        assert "shard 1 blacked out" in out
        assert "post-recovery answer exact" in out

    def test_shard_json_summary(self, db_path, capsys):
        import json
        assert main(["shard", db_path, "--d", "2.0", "--batches", "2",
                     "--method", "cpu_scan", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] == 2
        assert payload["layout"]["num_shards"] == 3
        assert payload["stats"]["requests"] == 2

    def test_chaos_shard_mode(self, capsys):
        import json
        assert main(["campaign", "shards", "--seed", "3",
                     "--num-requests", "30", "--num-shards", "3",
                     "--kill-every", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["fired_by_kind"].get("shard_kill", 0) > 0
        assert payload["fired_by_kind"].get("shard_blackout", 0) > 0
        assert payload["recoveries"] >= 1
        assert payload["mismatches"] == []

    def test_chaos_shard_mode_renders(self, capsys):
        assert main(["campaign", "shards", "--seed", "5",
                     "--num-requests", "24", "--num-shards", "3",
                     "--kill-every", "5"]) == 0
        out = capsys.readouterr().out
        assert "shards campaign report" in out
        assert ["ok", "True"] in [line.split()
                                  for line in out.splitlines()]
