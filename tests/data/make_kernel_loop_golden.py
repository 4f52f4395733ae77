"""Provenance, not a test: how ``kernel_loop_golden.json`` was made.

Run against a checkout of commit 0a6c3ed — the last tree in which
``gpu_temporal.py``, ``gpu_spatiotemporal.py`` and ``gpu_spatial.py``
each carried their own invoke -> drain -> resubmit loop — with this
repository's ``tests`` package on the path, because the cases and the
digest are defined once, in ``tests/test_kernel_loop.py``:

    PYTHONPATH=<0a6c3ed checkout>/src:<this repo> \
        python tests/data/make_kernel_loop_golden.py tests/data/kernel_loop_golden.json

``--full`` writes every observation in clear instead of one hash per
observer; diff two such files (parent, change) to see *what* moved when
``test_same_as_0a6c3ed`` names a differing observer."""
import json
import sys
from pathlib import Path

from tests.test_kernel_loop import CASES, case_id, digest, run_case

full = "--full" in sys.argv
out = Path([a for a in sys.argv[1:] if a != "--full"][0])
record = {}
for case in CASES:
    seen = run_case(*case)
    record[case_id(case)] = seen if full else digest(seen)
    print(case_id(case), seen["invocations"], file=sys.stderr)
out.write_text("{\n" + ",\n".join(      # one case per line
    f" {json.dumps(k)}: {json.dumps(v, default=lambda o: o.item())}"
    for k, v in record.items()) + "\n}\n")
