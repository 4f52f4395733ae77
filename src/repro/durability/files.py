"""Atomic file replacement: the WAL after truncation, the standing
state and a saved database land the same way, so a crash leaves the old
file or the new one, never a half-written one."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["fsync_dir", "replace_file"]


def replace_file(path: Path, data: bytes) -> None:
    """Make ``path`` hold ``data``: write a tmp file beside it, fsync
    it, ``os.replace`` it over ``path``, then fsync the directory so the
    rename itself is durable."""
    tmp = path.with_name(f".tmp-{os.getpid()}-{path.name}")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def fsync_dir(directory: Path) -> None:
    """fsync a directory so a rename into it is durable (best-effort
    on platforms whose directories cannot be opened)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
