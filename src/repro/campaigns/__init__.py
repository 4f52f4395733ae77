"""Seeded failure campaigns: every failure regime, refereed by bytes.

One harness (:mod:`repro.campaigns.harness`) and five scenarios, each a
module with a frozen ``*Config`` dataclass, a ``run(config)`` function
and a report whose ``ok`` / ``regimes_missing`` are the verdicts the
``python -m repro campaign <name>`` CLI and the CI matrix gate on:

========== =====================================================
``chaos``    device faults under a request storm
``crash``    process death at every durable-write kill point
``shards``   replica kills and whole-shard blackouts
``standing`` standing queries, epoch by epoch, across a crash
``overload`` a many-tenant storm past the gateway's saturation
========== =====================================================

Nothing the system serves with imports this package; it is loaded by
the CLI, the tests and the examples only.
"""

from . import chaos, crash, overload, shards, standing

#: scenario name -> (config class, run function).
SCENARIOS = {
    "chaos": (chaos.ChaosConfig, chaos.run),
    "crash": (crash.CrashConfig, crash.run),
    "shards": (shards.ShardsConfig, shards.run),
    "standing": (standing.StandingConfig, standing.run),
    "overload": (overload.OverloadConfig, overload.run),
}

__all__ = ["SCENARIOS", "chaos", "crash", "overload", "shards",
           "standing"]
