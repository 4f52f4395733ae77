"""On-disk checkpoints of the versioned database, written atomically.

A checkpoint is one directory under ``<dir>/checkpoints/`` holding the
full physical state of the :class:`~repro.ingest.VersionedDatabase` at
one epoch, plus what a restart needs to re-warm the engines that were
in the service cache when it was taken — a *recipe* for every one, and
a pickled artifact only for those whose index is much slower to rebuild
than to load (:attr:`~repro.engines.base.SearchEngine.persist_index`):

.. code-block:: text

    checkpoints/ckpt-000000000013/
        base.npz        # the immutable base SegmentArray (uncompressed)
        delta.npz       # delta rows pending compaction (may be empty)
        engines/        # pickled warm engines (best-effort)
            3.pickle
        MANIFEST.json   # epochs, counters, recipes, SHA-1 per file

The arrays are stored uncompressed: float64 random-walk coordinates
deflate to ~60 % at ~70x the cost of writing them as they are, and a
compaction waits for its checkpoint.  (Checkpoints written compressed,
or with an artifact per engine, load unchanged.)

Atomicity is tmp-directory + ``os.replace``: every file is written and
fsync'd into ``.tmp-ckpt-<epoch>``, the manifest last, then the
directory is renamed into place.  A crash mid-checkpoint leaves a tmp
directory that :func:`list_checkpoints` ignores (and
:func:`clean_tmp_dirs` sweeps), so recovery falls back to the previous
checkpoint + the WAL.  A checkpoint whose manifest is missing or whose
database files fail their checksums is invalid and skipped the same
way.

Engine artifacts are best-effort by design: they are a restart-latency
optimization (recovered services prewarm the cache from them instead of
rebuilding indexes), never a correctness dependency — an artifact that
fails to pickle, checksum, unpickle, or fingerprint-match is simply
rebuilt from its recipe.  So an artifact's checksum is verified when it
is about to be unpickled (:meth:`Checkpoint.load_engine_artifact`), not
when the checkpoint is loaded: a damaged artifact costs one rebuild,
not the checkpoint, and an artifact recovery will not use is not read.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.types import SegmentArray

__all__ = ["CHECKPOINT_PREFIX", "Checkpoint", "CheckpointError",
           "EngineRecipe", "clean_tmp_dirs", "list_checkpoints",
           "load_checkpoint", "write_checkpoint"]

CHECKPOINT_PREFIX = "ckpt-"
_TMP_PREFIX = ".tmp-" + CHECKPOINT_PREFIX
_FIELDS = ("xs", "ys", "zs", "ts", "xe", "ye", "ze", "te",
           "traj_ids", "seg_ids")
#: manifest schema version (bump on incompatible layout changes).
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint directory that cannot be loaded."""


@dataclass(frozen=True)
class EngineRecipe:
    """What it takes to rebuild one warm engine: method + parameters.

    ``params`` is the canonical parameter dict (JSON-friendly); the
    optional pickled artifact referenced by ``artifact`` short-cuts the
    rebuild when it loads and matches.
    """

    method: str
    params: dict
    #: relative path of the pickled engine inside the checkpoint dir
    #: (None = recipe only, always rebuild).
    artifact: str | None = None

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {"method": self.method, "params": dict(self.params),
                "artifact": self.artifact}

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineRecipe":
        """Inverse of :meth:`to_dict`."""
        return cls(method=payload["method"],
                   params=dict(payload.get("params", {})),
                   artifact=payload.get("artifact"))


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
    #: the manifest's SHA-1 per relative file path.
    digests: dict = field(default_factory=dict)

    def load_engine_artifact(self, recipe: EngineRecipe):
        """Unpickle one engine artifact; None when it is absent,
        unreadable, or its bytes are not the ones the manifest
        recorded (unverified bytes are never unpickled)."""
        if recipe.artifact is None:
            return None
        try:
            blob = (self.path / recipe.artifact).read_bytes()
        except OSError:
            return None
        if hashlib.sha1(blob).hexdigest() \
                != self.digests.get(recipe.artifact):
            return None
        try:
            return pickle.loads(blob)
        except Exception:  # noqa: BLE001 - artifacts are best-effort
            return None


def _npz_bytes(segments: SegmentArray) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **{f: getattr(segments, f) for f in _FIELDS})
    return buf.getvalue()


def _npz_load(path: Path) -> SegmentArray:
    with np.load(path) as data:
        return SegmentArray(*(data[f] for f in _FIELDS))


def _write_file(path: Path, data: bytes) -> str:
    """Write + fsync one file; returns its SHA-1 for the manifest."""
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return hashlib.sha1(data).hexdigest()


def checkpoint_name(epoch: int) -> str:
    return f"{CHECKPOINT_PREFIX}{epoch:012d}"


def checkpoint_epoch(path: Path) -> int:
    """The epoch a committed ``ckpt-<epoch>`` directory name encodes."""
    return int(path.name[len(CHECKPOINT_PREFIX):])


def write_checkpoint(directory: str | Path, state: dict, *,
                     engines: list[tuple[str, dict, object | None]] = (),
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
        ``(method, params, engine_or_None)`` triples for the warm
        engines; an engine object that declares ``persist_index`` is
        pickled best-effort as the prewarm artifact, the others are
        rebuilt from their recipe.
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
    files: dict[str, str] = {}
    files["base.npz"] = _write_file(tmp / "base.npz",
                                    _npz_bytes(state["base"]))
    files["delta.npz"] = _write_file(tmp / "delta.npz",
                                     _npz_bytes(state["delta"]))
    recipes: list[dict] = []
    for i, (method, params, engine) in enumerate(engines):
        artifact = None
        if getattr(engine, "persist_index", False):
            rel = f"engines/{i}.pickle"
            try:
                blob = pickle.dumps(engine)
            except Exception:  # noqa: BLE001 - artifacts are best-effort
                blob = None
            if blob is not None:
                (tmp / "engines").mkdir(exist_ok=True)
                files[rel] = _write_file(tmp / rel, blob)
                artifact = rel
        recipes.append(EngineRecipe(method=method, params=params,
                                    artifact=artifact).to_dict())
    manifest = {
        "format": FORMAT_VERSION,
        "epoch": epoch,
        "delta_epoch": int(state["delta_epoch"]),
        "base_version": int(state["base_version"]),
        "next_seg_id": int(state["next_seg_id"]),
        "tombstones": sorted(int(t) for t in state["tombstones"]),
        "counters": dict(state.get("counters", {})),
        "applied_keys": dict(state.get("applied_keys", {})),
        "engines": recipes,
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
    _fsync_dir(directory)
    return final


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so the rename itself is durable (best-effort
    on platforms whose directories cannot be opened)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load and validate one checkpoint directory.

    Raises :class:`CheckpointError` when the manifest is missing or
    malformed, or a database file is absent or fails its checksum.
    Engine artifacts are verified where they are unpickled
    (:meth:`Checkpoint.load_engine_artifact`).
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
    artifacts = {recipe.artifact for recipe in recipes}
    for rel, digest in digests.items():
        if rel in artifacts:
            continue
        fpath = path / rel
        if not fpath.exists():
            raise CheckpointError(f"{path}: missing file {rel}")
        if hashlib.sha1(fpath.read_bytes()).hexdigest() != digest:
            raise CheckpointError(f"{path}: checksum mismatch on {rel}")
    return Checkpoint(
        path=path, **epochs,
        base=_npz_load(path / "base.npz"),
        delta=_npz_load(path / "delta.npz"),
        tombstones=tombstones, counters=counters, engines=recipes,
        applied_keys=applied_keys, digests=digests)


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
