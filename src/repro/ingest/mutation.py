"""What a mutation is — defined once.

The versioned database changes in three ways: an **append** of
segments, a **delete** (tombstone) of one trajectory, a **compact**
folding the delta into a fresh base.  :class:`Mutation` is the value
every layer passes for them — the service pipeline, the WAL, the
router's op log, campaign schedules — so none re-derives the argument
set, the wire form or the ``op`` dispatch; :class:`AppliedKeys` is the
one table that makes a keyed client retry exactly-once.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from ..core.types import SegmentArray, Trajectory
from ..obs import current as current_telemetry

__all__ = ["AppliedKeys", "IngestError", "Mutation", "OPS",
           "as_segments"]

#: the mutation kinds.
OPS = ("append", "delete", "compact")


class IngestError(ValueError):
    """A mutation the versioned database cannot honor."""


def as_segments(segments: SegmentArray | Trajectory |
                list[Trajectory]) -> SegmentArray:
    """Normalize the polymorphic append input to one SegmentArray;
    non-finite coordinates raise :class:`IngestError`."""
    if isinstance(segments, Trajectory):
        segments = [segments]
    if isinstance(segments, list):
        segments = SegmentArray.from_trajectories(segments)
    if not isinstance(segments, SegmentArray):
        raise TypeError("append expects a SegmentArray, a "
                        "Trajectory, or a list of Trajectory")
    if not segments.all_finite():
        raise IngestError("append refused: a segment coordinate or "
                          "time is NaN or infinite")
    return segments


@dataclass(frozen=True)
class Mutation:
    """One append / delete / compact and exactly its arguments.

    ``segments`` (anything :func:`as_segments` accepts) and
    ``keep_seg_ids`` belong to an append, ``traj_id`` to a delete; an
    ``idempotency_key`` may ride on either; a compact carries nothing.
    Anything else is a ``ValueError`` at construction, so holders of a
    ``Mutation`` never re-validate its shape.
    """

    op: str
    segments: SegmentArray | None = None
    traj_id: int | None = None
    keep_seg_ids: bool = False
    idempotency_key: str | None = None

    def __post_init__(self) -> None:
        append, delete = self.op == "append", self.op == "delete"
        if self.op not in OPS \
                or (self.segments is not None) != append \
                or (self.traj_id is not None) != delete \
                or (self.keep_seg_ids and not append) \
                or not (self.idempotency_key is None or append or delete):
            raise ValueError(
                f"malformed {self.op!r} mutation: an append takes "
                f"segments [keep_seg_ids, idempotency_key], a delete "
                f"traj_id [idempotency_key], a compact nothing")
        coerce = object.__setattr__  # frozen: normalize in place
        if self.segments is not None:
            coerce(self, "segments", as_segments(self.segments))
        if self.traj_id is not None:
            # int() would truncate 0.9 (or True) to another trajectory.
            if not isinstance(self.traj_id, Integral) \
                    or isinstance(self.traj_id, bool):
                raise ValueError(f"traj_id must be an integer, got "
                                 f"{self.traj_id!r}")
            coerce(self, "traj_id", int(self.traj_id))
        if self.idempotency_key is not None:
            coerce(self, "idempotency_key", str(self.idempotency_key))

    def to_payload(self) -> dict:
        """The JSON-friendly WAL payload (``op`` rides in the frame).

        An append carries the caller's pre-stamping segments: replay
        re-runs the append, which assigns the identical seg_ids because
        ``next_seg_id`` is restored — or, under ``keep_seg_ids``
        (router-stamped global ids), keeps the caller's the same way.
        The ``idempotency_key`` rides along so replay re-registers it
        and a client retry stays exactly-once even when the crash
        landed between the WAL write and a checkpoint.  A compact is
        deterministic given the pre-state, so its payload is empty.
        """
        payload: dict = {}
        if self.segments is not None:
            payload["segments"] = self.segments.to_dict()
        if self.keep_seg_ids:
            payload["keep_seg_ids"] = True
        if self.traj_id is not None:
            payload["traj_id"] = self.traj_id
        if self.idempotency_key is not None:
            payload["idempotency_key"] = self.idempotency_key
        return payload

    @classmethod
    def from_payload(cls, op: str, payload: dict) -> "Mutation":
        """Inverse of :meth:`to_payload`, whose keys are field names."""
        payload = dict(payload)
        if "segments" in payload:
            payload["segments"] = SegmentArray.from_dict(
                payload["segments"])
        return cls(op, **payload)


class AppliedKeys(dict):
    """Idempotency key -> JSON summary of the mutation it named.

    The owner :meth:`lookup`\\ s a keyed mutation *before* logging or
    applying it and :meth:`record`\\ s the reply once it has applied;
    checkpoints persist the mapping itself, so dedup survives a crash.
    """

    def lookup(self, mutation: Mutation) -> dict | None:
        """The summary recorded under ``mutation``'s key, or None when
        it is unkeyed or its key is fresh.  A key that named a
        different op raises; a hit is counted and logged on the active
        telemetry hub."""
        prior = self.get(mutation.idempotency_key)
        if prior is None:
            return None
        if prior["op"] != mutation.op:
            raise IngestError(
                f"idempotency key {mutation.idempotency_key!r} named a "
                f"{prior['op']!r} mutation, not a {mutation.op!r} one")
        telemetry = current_telemetry()
        telemetry.metrics.counter(
            "repro_idempotent_dedups_total",
            "keyed mutation retries deduplicated").inc(op=mutation.op)
        telemetry.events.emit(
            "idempotent_dedup", op=mutation.op,
            key=mutation.idempotency_key, epoch=prior.get("epoch"))
        return {k: v for k, v in prior.items() if k != "op"}

    def require_fresh(self, key: str | None) -> None:
        """Raise when ``key`` already named a mutation: the owner must
        :meth:`lookup` first and replay the stored reply."""
        if key is not None and str(key) in self:
            raise IngestError(
                f"idempotency key {key!r} was already applied; look "
                f"it up instead of applying it again")

    def record(self, key: str | None, op: str, summary: dict) -> None:
        """Register an applied mutation's summary (no-op unkeyed)."""
        if key is not None:
            self[str(key)] = {"op": op, **summary}
