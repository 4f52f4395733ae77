"""Flat range expansion — how a run of threads' candidates get rows.

Every index in this codebase describes a thread's candidates as row
*ranges*, and they stay ranges until the refine loop takes a run of
threads; it flattens the run's ranges into one candidate array in a
single pass instead of per-thread ``arange`` + ``concatenate`` loops.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expand_ranges", "range_offsets", "run_starts"]


def expand_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i]+lens[i])`` vectorized.

    One output-sized array and no other: every element is its
    predecessor + 1 except at a range head, which jumps to that range's
    start, so a running sum of those steps, in place, is the answer.
    """
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    nonempty = lens > 0
    starts, lens = starts[nonempty], lens[nonempty]
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    out[np.cumsum(lens[:-1])] = starts[1:] - (starts[:-1] + lens[:-1]) + 1
    np.cumsum(out, out=out)
    return out


def range_offsets(lens: np.ndarray) -> np.ndarray:
    """``[0, lens[0], lens[0] + lens[1], ...]``: where each range begins
    with the ranges laid end to end, and their total last."""
    offsets = np.zeros(lens.shape[0] + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    return offsets


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Positions where a non-empty, non-decreasing ``keys`` steps: the
    first index of each run of equal keys (``np.unique``'s
    ``return_index`` without its sort)."""
    step = np.empty(len(keys), dtype=bool)
    step[0] = True
    np.not_equal(keys[1:], keys[:-1], out=step[1:])
    return np.flatnonzero(step)
