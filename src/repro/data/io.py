"""Dataset persistence: SegmentArray <-> compressed ``.npz`` files.

``python -m repro generate`` writes a database once (the Merger
equivalent involves an N-body integration); every other subcommand
loads it.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

from ..core.types import SegmentArray
from ..durability.files import replace_file

__all__ = ["save_segments", "load_segments"]

_FIELDS = ("xs", "ys", "zs", "ts", "xe", "ye", "ze", "te",
           "traj_ids", "seg_ids")


def save_segments(path: str | os.PathLike,
                  segments: SegmentArray) -> Path:
    """Write a segment database to ``path`` (npz, compressed).

    The write is atomic (:func:`~repro.durability.files.replace_file`):
    a reader — or a restart after a crash mid-save — sees either the
    previous complete file or the new complete file, never a truncated
    archive.  Returns
    the final path (numpy's ``.npz`` suffix appended if absent).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    final = (path if path.name.endswith(".npz")
             else path.with_name(path.name + ".npz"))
    buf = io.BytesIO()
    np.savez_compressed(buf, **{f: getattr(segments, f)
                                for f in _FIELDS})
    replace_file(final, buf.getvalue())
    return final


def load_segments(path: str | os.PathLike) -> SegmentArray:
    """Load a segment database written by :func:`save_segments`.

    Accepts anything path-like, exactly like :func:`save_segments` —
    a ``save_segments`` return value round-trips unchanged.
    """
    path = Path(path)
    with np.load(path) as data:
        missing = [f for f in _FIELDS if f not in data]
        if missing:
            raise ValueError(f"{path}: not a segment database "
                             f"(missing {missing})")
        return SegmentArray(*(data[f] for f in _FIELDS))
