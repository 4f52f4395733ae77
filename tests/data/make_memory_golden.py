"""Provenance, not a test: how ``memory_golden.json`` was made.

Run against a checkout of commit 97ffa85 — the last tree in which
engines copied every placed array into the device ledger and each GPU
engine sorted its own copy of the base — with this repository's
``tests`` package on the path, because the cases and digests are
defined once, in ``tests/test_memory_identity.py``:

    PYTHONPATH=<97ffa85 checkout>/src:<this repo> \\
        python tests/data/make_memory_golden.py tests/data/memory_golden.json
"""
import json
import sys
from pathlib import Path

from tests.test_memory_identity import (GPU_ENGINES, SCENARIOS,
                                        index_digests, ledger)

record = {"ledger": {}, "index": {}}
for name in sorted(SCENARIOS):
    for method in sorted(GPU_ENGINES):
        record["ledger"][f"{method}/{name}"] = ledger(method, name)
        print(method, name, file=sys.stderr)
    record["index"][name] = index_digests(name)
Path(sys.argv[1]).write_text(json.dumps(record, indent=1, sort_keys=True)
                             + "\n")
