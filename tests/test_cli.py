"""Tests for the command-line interface."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.io import load_segments, save_segments
from repro.durability import WalRecord, read_wal
from repro.durability.wal import encode_record


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


class TestPlan:
    def test_prints_the_estimates_auto_serves_with(self, db_path, capsys):
        """``repro plan`` ranks with the planner sample the service's
        ``method="auto"`` uses, so the two never disagree."""
        from repro.core.planner import plan_search
        from repro.data.queries import queries_from_database
        from repro.service import QueryService
        db = load_segments(db_path)
        queries = queries_from_database(db, 4,
                                        rng=np.random.default_rng(0))
        plans = plan_search(db, queries, 2.0,
                            sample=QueryService.PLANNER_SAMPLE)
        assert main(["plan", db_path, "--d", "2.0"]) == 0
        printed = capsys.readouterr().out.splitlines()[1:]
        assert printed == [
            f"  {rank}. {p.engine:20s} ~{p.est_seconds:.6f} s "
            f"(~{p.est_candidates_per_query:.0f} candidates/query)"
            for rank, p in enumerate(plans, 1)]


class TestUsageErrors:
    """A bad value is a one-line refusal on stderr and exit 2, never a
    traceback."""

    @pytest.mark.parametrize("argv", [
        ["search", "--d", "1.0", "--query-trajectories", "11"],
        ["plan", "--d", "1.0", "--query-trajectories", "11"],
        ["batch", "--d", "1.0", "--query-trajectories", "11"],
    ], ids=["search-queries", "plan-queries", "batch-queries"])
    def test_refused_with_exit_2(self, db_path, argv, capsys):
        command, *flags = argv
        assert main([command, db_path, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: error: ")
        assert "Traceback" not in err


    @pytest.mark.parametrize("argv", [
        ["shard", "--d", "1.0", "--shards", "0"],
        ["shard", "--d", "1.0", "--replicas", "0"],
        ["batch", "--d", "1.0", "--num-devices", "0"],
        ["ingest", "--d", "1.0", "--num-devices", "0"],
        ["ingest", "--d", "1.0", "--max-delta", "0"],
        ["ingest", "--d", "1.0", "--rate", "2"],
        ["ingest", "--d", "1.0", "--initial-fraction", "1.5"],
        ["batch", "--d", "-1"],
        ["search", "--d", "-1"],
        ["batch", "--d", "1.0", "--query-trajectories", "0"],
        ["search", "--d", "1.0", "--method", "gpu_temporal",
         "--num-bins", "0"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
    def test_bad_numeric_flag_is_a_usage_error(self, db_path, argv,
                                               capsys):
        """Checked at parse time, like a bad campaign flag: the usage
        line and exit 2, before any work is done."""
        command, *flags = argv
        with pytest.raises(SystemExit) as exc:
            main([command, db_path, *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {command}: error: argument {argv[-2]}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["stats", "DB", "--num-bins", "0"],
        ["stats", "DB", "--num-subbins", "0"],
        ["stats", "DB", "--cells-per-dim", "0"],
        ["stats", "DB", "--segments-per-mbb", "-3"],
        ["figures", "fig4", "--scale", "-0.5"],
        ["figures", "fig4", "--scale", "2"],
        ["generate", "random", "--out", "OUT", "--scale", "-1"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
    def test_flag_outside_its_range_is_a_usage_error(self, db_path, argv,
                                                     tmp_path, capsys):
        out = tmp_path / "out.npz"
        with pytest.raises(SystemExit) as exc:
            main([{"DB": db_path, "OUT": str(out)}.get(a, a)
                  for a in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error: argument {argv[-2]}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, requirement", [
        (["ingest", "--d", "1.0", "--arrivals-per-round", "-1"], ">= 1"),
        (["ingest", "--d", "1.0", "--delete-every", "-1"], ">= 0"),
        (["ingest", "--d", "1.0", "--rounds", "-2"], ">= 1"),
        (["batch", "--d", "1.0", "--batches", "0"], ">= 1"),
        (["metrics", "--d", "1.0", "--batches", "-1"], ">= 1"),
        (["trace", "--d", "1.0", "--batches", "0"], ">= 1"),
        (["shard", "--d", "1.0", "--kill-shard", "0", "--recover",
          "--batches", "0"], ">= 1"),
        (["batch", "--d", "1.0", "--num-bins", "0"], ">= 1"),
        (["metrics", "--d", "1.0", "--num-subbins", "0"], ">= 1"),
        (["trace", "--d", "1.0", "--cells-per-dim", "-1"], ">= 1"),
        (["batch", "--d", "1.0", "--segments-per-mbb", "0"], ">= 1"),
    ], ids=lambda v: v if isinstance(v, str) else f"{v[0]}{v[-2]}={v[-1]}")
    def test_count_flag_outside_its_range_is_refused(self, db_path, argv,
                                                     requirement, capsys):
        """A count that would serve nothing, or the wrong slice, is a
        usage error naming what the flag needs — not a run that exits
        0."""
        command, *flags = argv
        with pytest.raises(SystemExit) as exc:
            main([command, db_path, *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (f"repro {command}: error: argument {argv[-2]}: "
                f"{argv[-1]!r} is not {requirement}") in err

    @pytest.mark.parametrize("value", ["-0.5", "2", "abc"])
    def test_bad_repro_scale_is_refused(self, monkeypatch, value, capsys):
        monkeypatch.setenv("REPRO_SCALE", value)
        assert main(["figures", "fig4"]) == 2
        assert capsys.readouterr().err.startswith(
            "repro figures: error: REPRO_SCALE must be in (0, 1]")

    @pytest.mark.parametrize("command, name, content", [
        ("info", "missing.npz", None),
        ("info", "x.npz", "not an archive\n"),
        ("info", "xs.npz", "xs-only"),
        ("search", "xs.npz", "xs-only"),
        ("batch", "missing.json", None),
        ("batch", "r.json", '[{"d": '),
        ("batch", "r.json", '[{"d": 1.0}]'),
        ("batch", "r.json", "refused"),
    ], ids=["info-missing", "info-text", "info-xs-only", "search-queries",
            "requests-missing", "requests-malformed", "requests-no-queries",
            "requests-refused"])
    def test_unreadable_input_file(self, db_path, tmp_path, command, name,
                                   content, capsys):
        """A file that is not there, or not what the flag reads, is one
        line naming it and exit 2 — never a traceback."""
        import json
        bad = tmp_path / name
        if content == "xs-only":
            np.savez(bad, xs=np.zeros(3))
        elif content == "refused":              # a negative threshold
            queries = load_segments(db_path).take(np.arange(3))
            bad.write_text(json.dumps([{"queries": queries.to_dict(),
                                        "d": -1.0}]))
        elif content is not None:
            bad.write_text(content)
        argv = {"info": ["info", str(bad)],
                "search": ["search", db_path, "--d", "1.0",
                           "--queries", str(bad)],
                "batch": ["batch", db_path, "--requests", str(bad)]}
        assert main(argv[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: error: cannot read {bad}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("shard", ["3", "99", "-1"])
    def test_kill_shard_outside_the_layout(self, db_path, shard, capsys):
        assert main(["shard", db_path, "--d", "2.0", "--shards", "3",
                     "--method", "cpu_scan", "--kill-shard", shard]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro shard: error: ")
        assert f"--kill-shard {shard} is outside [0, 3)" in err


class TestDamagedDurableDirectory:
    """A durability directory that cannot be recovered is refused the
    same way: one line naming the damage, exit 2, no traceback."""

    @pytest.fixture(params=["hole", "inapplicable"])
    def damaged(self, request, tmp_path):
        """A copy of the d7f7855 fixture whose WAL has a hole before
        its last records, or ends in a CRC-valid delete of a
        trajectory that does not exist."""
        directory = tmp_path / "d"
        shutil.copytree(Path(__file__).parent / "data" / "durable_d7f7855",
                        directory)
        wal = directory / "wal.jsonl"
        if request.param == "hole":
            first, *rest = wal.read_bytes().splitlines(keepends=True)
            wal.write_bytes(first + b'{"garbage": true}\n' + b"".join(rest))
        else:
            last = read_wal(wal).records[-1]
            with open(wal, "ab") as fh:
                fh.write(encode_record(WalRecord(
                    lsn=last.lsn + 1, op="delete", epoch=last.epoch + 1,
                    payload={"traj_id": 99_999})))
        return directory

    @pytest.mark.parametrize("command", ["recover", "checkpoint"])
    def test_refused_with_exit_2(self, damaged, command, capsys):
        assert main([command, str(damaged)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: error: ")
        assert "wal.jsonl" in err
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
