"""What the R-tree walk holds beyond its answer.

``RTree.query_blocks`` walks the levels ``_QUERY_BLOCK`` queries at a
time (``indexes/rtree.py``) and yields each block's leaf spans as it
finishes.  Walking the whole batch at once held the full leaf-level
frontier, ~32 B per expanded ``(query, entry)`` pair, several times the
answer itself; a block's frontier is the batch's divided by the number
of blocks, and what outlives a block is its answer: the leaf spans,
16 B each (first row and length) for the ``r = 4`` candidate rows they
name.

This benchmark builds the S3 serving tree (3-D boxes, ``r = 4``, fanout
16) on S3-random-dense at 2 % and at 5 %, walks 1,000 query segments at
d = 0.02 under ``tracemalloc``, keeps every block's answer, and gates
the traced peak above those arrays at ``MAX_ABOVE_OUTPUT_BYTES`` on
both: the walk's working memory must not grow with the batch.  The
whole-batch walk read 13.3 MB and 25.9 MB.  The answers themselves are
held to the per-query recursion in ``tests/test_batch_equivalence.py``.
"""

import tracemalloc

import numpy as np

from .conftest import emit

from repro.data import random_dense_dataset
from repro.indexes.rtree import RTree

SCALES = (0.02, 0.05)
D = 0.02
NUM_QUERIES = 1_000
#: at seed 0 the larger reading is 2.7 MB (5 %), against 1.4 MB at 2 %.
MAX_ABOVE_OUTPUT_BYTES = 4_000_000


def test_walk_holds_one_block():
    queries = random_dense_dataset(
        scale=0.0001, rng=np.random.default_rng(9)).take(
            np.arange(NUM_QUERIES))
    rows = [f"{'database':<24s} {'candidates':>11s} {'output B':>11s} "
            f"{'peak above':>11s}"]
    above = {}
    for scale in SCALES:
        tree = RTree.build(
            random_dense_dataset(scale=scale, rng=np.random.default_rng(0)),
            segments_per_mbb=4, temporal_axis=False)
        tracemalloc.start()
        try:
            answer = [arrays for _, *arrays in tree.query_blocks(queries, D)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(a.nbytes for arrays in answer for a in arrays)
        above[scale] = peak - output
        candidates = sum(int(length.sum()) for _, _, length, _ in answer)
        rows.append(f"{f'S3 at {scale:g} ({len(tree.segments)} rows)':<24s} "
                    f"{candidates:11d} {output:11d} "
                    f"{above[scale] / 1e6:8.1f} MB")
    emit("walk_cost",
         f"R-tree walk, {NUM_QUERIES} query segments, d = {D}, "
         f"traced peak above the answer\n" + "\n".join(rows))
    assert max(above.values()) <= MAX_ABOVE_OUTPUT_BYTES, above
