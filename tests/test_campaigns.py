"""Behaviour every campaign scenario shares: reproducible reports, the
``ok`` / ``regimes_missing`` verdicts CI gates on, clean CLI refusals,
and the dependency direction (serving never imports its own storm)."""

import json
import subprocess
import sys

import pytest

from repro.campaigns import SCENARIOS
from repro.cli import main

#: a tier-1 size per scenario (what the scenario-specific tests use).
SMALL = {
    "chaos": dict(num_requests=40),
    "crash": dict(num_ops=6, num_trajectories=8, steps=6, queries=2,
                  checkpoint_every=2, sync="flush",
                  methods=("cpu_scan", "cpu_rtree")),
    "shards": dict(num_requests=24, kill_every=5, recover_after=3,
                   methods=("cpu_scan",)),
    "standing": dict(stream_epochs=8),
    "overload": dict(num_bursts=7),
}
#: what the CI ``campaigns`` job passes on top of the defaults.
CI_SIZE = {"crash": dict(crash_on_op=5)}


@pytest.mark.parametrize("name", SCENARIOS)
def test_same_seed_same_report(name):
    config_cls, run = SCENARIOS[name]
    config = config_cls(seed=0, **SMALL[name])
    first, second = (json.dumps(run(config).to_dict(), sort_keys=True)
                     for _ in range(2))
    assert first == second


@pytest.mark.parametrize("name", SCENARIOS)
def test_ci_size_passes_and_every_regime_fires(name):
    config_cls, run = SCENARIOS[name]
    report = run(config_cls(seed=0, **CI_SIZE.get(name, {})))
    assert report.ok, report.render()
    assert report.regimes_missing == []
    payload = report.to_dict()
    assert payload["ok"] is True and payload["regimes_missing"] == []


@pytest.mark.parametrize("argv", [
    ["chaos", "--num-requests", "0"],
    ["standing", "--stream-epochs", "2"],
    ["overload", "--num-bursts", "0"],
    ["no-such-campaign"],
])
def test_bad_arguments_exit_2_without_traceback(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["campaign", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_serving_does_not_import_campaigns():
    code = ("import sys, repro.gateway, repro.standing, repro.faults, "
            "repro.service, repro.sharding; "
            "print([m for m in sys.modules "
            "if m.startswith('repro.campaigns')])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
