"""On-disk checkpoints of the versioned database, written atomically.

A checkpoint is one directory under ``<dir>/checkpoints/`` holding the
full physical state of the :class:`~repro.ingest.VersionedDatabase` at
one epoch, plus a *recipe* — method and parameters — for every engine
that was warm in the service cache when it was taken:

.. code-block:: text

    checkpoints/ckpt-000000000013/
        base.npz        # the immutable base SegmentArray (uncompressed)
        delta.npz       # delta rows pending compaction (may be empty)
        MANIFEST.json   # epochs, counters, recipes, SHA-1 of both arrays

A checkpoint holds data, never objects.  Index construction is offline
work derived from the database (the paper excludes it from response
time, §V-B), so a restart rebuilds each warm engine from its recipe and
no engine's internals are an on-disk format.  Directories older code
wrote load unchanged: their compressed arrays are read as they are, and
the serialized engines some of them hold under ``engines/`` are
ignored, never opened.

The arrays are stored uncompressed: float64 random-walk coordinates
deflate to ~60 % at ~70x the cost of writing them as they are, and a
compaction waits for its checkpoint.

Atomicity is tmp-directory + ``os.replace``: every file is written and
fsync'd into ``.tmp-ckpt-<epoch>``, the manifest last, then the
directory is renamed into place.  A crash mid-checkpoint leaves a tmp
directory that :func:`list_checkpoints` ignores (and
:func:`clean_tmp_dirs` sweeps), so recovery falls back to the previous
checkpoint + the WAL.  A checkpoint whose manifest is missing, or whose
two array files are absent, lack a digest or fail it, is invalid and
skipped the same way.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.types import SegmentArray
from .files import fsync_dir
from .wal import DurabilityError

__all__ = ["CHECKPOINT_PREFIX", "Checkpoint", "CheckpointError",
           "EngineRecipe", "clean_tmp_dirs", "list_checkpoints",
           "load_checkpoint", "write_checkpoint"]

CHECKPOINT_PREFIX = "ckpt-"
_TMP_PREFIX = ".tmp-" + CHECKPOINT_PREFIX
_FIELDS = ("xs", "ys", "zs", "ts", "xe", "ye", "ze", "te",
           "traj_ids", "seg_ids")
#: the arrays a checkpoint holds, one ``<name>.npz`` file each — the
#: only files its manifest digests and the only ones a load reads.
_ARRAYS = ("base", "delta")
#: manifest schema version (bump on incompatible layout changes).
FORMAT_VERSION = 1


class CheckpointError(DurabilityError):
    """A checkpoint directory that cannot be loaded."""


@dataclass(frozen=True)
class EngineRecipe:
    """What it takes to rebuild one warm engine: method + parameters.

    ``params`` is the canonical parameter dict (JSON-friendly).
    """

    method: str
    params: dict

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {"method": self.method, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineRecipe":
        """Inverse of :meth:`to_dict` (other keys are ignored)."""
        return cls(method=payload["method"],
                   params=dict(payload.get("params", {})))


@dataclass
class Checkpoint:
    """One loaded (and validated) checkpoint."""

    path: Path
    epoch: int
    delta_epoch: int
    base_version: int
    next_seg_id: int
    base: SegmentArray
    delta: SegmentArray
    tombstones: frozenset[int]
    #: lifetime VersionedDatabase counters at checkpoint time.
    counters: dict = field(default_factory=dict)
    #: warm engines at checkpoint time, for recovery prewarm.
    engines: list[EngineRecipe] = field(default_factory=list)
    #: idempotency dedup table at checkpoint time (key -> summary);
    #: absent in pre-gateway checkpoints, which load as empty.
    applied_keys: dict = field(default_factory=dict)


def _npz_load(blob: bytes) -> SegmentArray:
    with np.load(io.BytesIO(blob)) as data:
        return SegmentArray(*(data[f] for f in _FIELDS))


def _write_file(path: Path, data: bytes) -> str:
    """Write + fsync one file; returns its SHA-1 for the manifest."""
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return hashlib.sha1(data).hexdigest()


def _write_npz(path: Path, segments: SegmentArray) -> str:
    """Write + fsync one array file, ``np.savez`` straight into it (the
    archive is never a second copy in memory); returns its SHA-1 for
    the manifest, read back from the file in chunks."""
    with open(path, "wb") as fh:
        np.savez(fh, **{f: getattr(segments, f) for f in _FIELDS})
        fh.flush()
        os.fsync(fh.fileno())
    digest = hashlib.sha1()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def checkpoint_name(epoch: int) -> str:
    return f"{CHECKPOINT_PREFIX}{epoch:012d}"


def checkpoint_epoch(path: Path) -> int:
    """The epoch a committed ``ckpt-<epoch>`` directory name encodes."""
    return int(path.name[len(CHECKPOINT_PREFIX):])


def write_checkpoint(directory: str | Path, state: dict, *,
                     engines: list[tuple[str, dict]] = (),
                     kill=None, kill_point: str = "checkpoint_mid"
                     ) -> Path:
    """Atomically write one checkpoint; returns its final path.

    Parameters
    ----------
    directory:
        The ``checkpoints/`` directory (created if missing).
    state:
        Dict with keys ``epoch``, ``delta_epoch``, ``base_version``,
        ``next_seg_id``, ``base`` (SegmentArray), ``delta``
        (SegmentArray), ``tombstones`` (iterable of int), ``counters``
        (dict).
    engines:
        ``(method, params)`` recipes of the warm engines.
    kill, kill_point:
        Crash-campaign hook: the named kill-point is checked after the
        data files are written but *before* the atomic rename — a
        crash there must leave the checkpoint invisible.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    epoch = int(state["epoch"])
    final = directory / checkpoint_name(epoch)
    tmp = directory / f"{_TMP_PREFIX}{epoch:012d}-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    files = {f"{name}.npz": _write_npz(tmp / f"{name}.npz", state[name])
             for name in _ARRAYS}
    manifest = {
        "format": FORMAT_VERSION,
        "epoch": epoch,
        "delta_epoch": int(state["delta_epoch"]),
        "base_version": int(state["base_version"]),
        "next_seg_id": int(state["next_seg_id"]),
        "tombstones": sorted(int(t) for t in state["tombstones"]),
        "counters": dict(state.get("counters", {})),
        "applied_keys": dict(state.get("applied_keys", {})),
        "engines": [EngineRecipe(method, params).to_dict()
                    for method, params in engines],
        "files": files,
    }
    _write_file(tmp / "MANIFEST.json",
                json.dumps(manifest, indent=2).encode("utf-8"))
    if kill is not None:
        # Everything is on disk in the tmp dir; the rename below is
        # the commit point.  Crash here = checkpoint never happened.
        kill.check(kill_point)
    if final.exists():
        shutil.rmtree(final)
    os.replace(tmp, final)
    fsync_dir(directory)
    return final


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load and validate one checkpoint directory.

    Reads exactly ``base.npz`` and ``delta.npz`` and raises
    :class:`CheckpointError` when the manifest is missing or malformed,
    or either array file is absent, has no digest in the manifest, or
    fails it.  Any other file the directory holds is not opened.
    """
    path = Path(path)
    manifest_path = path / "MANIFEST.json"
    if not manifest_path.exists():
        raise CheckpointError(f"{path}: no MANIFEST.json")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: manifest is not valid JSON: "
                              f"{exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if manifest.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format "
            f"{manifest.get('format')!r} (expected {FORMAT_VERSION})")
    try:
        epochs = {name: int(manifest[name]) for name in
                  ("epoch", "delta_epoch", "base_version", "next_seg_id")}
        digests = dict(manifest.get("files", {}))
        recipes = [EngineRecipe.from_dict(r)
                   for r in manifest.get("engines", [])]
        tombstones = frozenset(int(t)
                               for t in manifest.get("tombstones", []))
        counters = dict(manifest.get("counters", {}))
        applied_keys = dict(manifest.get("applied_keys", {}))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"{path}: malformed manifest: "
                              f"{type(exc).__name__}: {exc}") from exc
    arrays = {}
    for name in _ARRAYS:
        rel = f"{name}.npz"
        if rel not in digests:
            raise CheckpointError(f"{path}: manifest has no digest for "
                                  f"{rel}")
        try:
            blob = (path / rel).read_bytes()
        except OSError as exc:
            raise CheckpointError(f"{path}: missing file {rel}") from exc
        if hashlib.sha1(blob).hexdigest() != digests[rel]:
            raise CheckpointError(f"{path}: checksum mismatch on {rel}")
        arrays[name] = _npz_load(blob)
    return Checkpoint(
        path=path, **epochs, **arrays,
        tombstones=tombstones, counters=counters, engines=recipes,
        applied_keys=applied_keys)


def list_checkpoints(directory: str | Path) -> list[Path]:
    """Committed checkpoint directories, newest epoch first (tmp
    debris from crashed checkpoints is excluded, not validated)."""
    directory = Path(directory)
    if not directory.exists():
        return []
    found = [p for p in directory.iterdir()
             if p.is_dir() and p.name.startswith(CHECKPOINT_PREFIX)]
    return sorted(found, key=lambda p: p.name, reverse=True)


def clean_tmp_dirs(directory: str | Path) -> int:
    """Sweep tmp debris left by crashed checkpoints; returns the
    number of directories removed."""
    directory = Path(directory)
    if not directory.exists():
        return 0
    victims = [p for p in directory.iterdir()
               if p.is_dir() and p.name.startswith(_TMP_PREFIX)]
    for victim in victims:
        shutil.rmtree(victim)
    return len(victims)
