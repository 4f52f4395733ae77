"""Delta-aware maintenance of standing queries across ingest epochs.

:class:`StandingQueryManager` owns the registered
:class:`~repro.standing.subscription.Subscription`\\ s and one held
answer per subscription, a canonical
:class:`~repro.core.result.ResultSet` (sorted by ``(q_id, e_id)``).
A new subscription is settled by one ``cpu_scan`` over the snapshot's
logical database.  After that every answer changes by the epoch's delta
alone: a result item depends only on its own query and entry segments
(paper §III), so after every database mutation the owner calls
:meth:`process_mutation` and the manager works out what the delta can
have changed:

* **append** — only items whose entry is an appended row can appear.
  Subscriptions whose
  :class:`~repro.standing.subscription.CandidateEnvelope` misses the
  appended segments are skipped (an envelope miss proves the answer
  unchanged); each other one is evaluated over the appended rows only
  — the stamped tail of the snapshot's delta — and the new items are
  unioned into its held answer.
* **delete** — only items whose entry the tombstone hides can go.
  Subscriptions holding such an item drop them; nothing is scanned.
* **compact** — nobody.  Compaction preserves
  :meth:`~repro.ingest.versioned.Snapshot.logical` exactly (the
  differential harness pins this), so answers cannot change.

Every epoch is fully settled before the mutation returns.  The items
added or dropped become typed ``match_added`` / ``match_removed``
events, stamped with the epoch and a monotonic ``seq``, one
subscription at a time in sorted order and each subscription's items in
``(q_id, e_id)`` order.  The exactness harness
(``tests/test_standing_exactness.py``) asserts the held answers stay
byte-identical to from-scratch ``cpu_scan`` at every epoch, and
``tests/test_standing_delta.py`` holds the event stream to the full
re-evaluation kept in ``tests/oracles/standing_reference.py``.

With a :class:`~repro.standing.store.StandingStore` attached, the
subscriptions and held answers are snapshotted to disk
(:meth:`save_state`) and :meth:`recover` moves the snapshot forward by
replaying the database WAL through the same per-epoch pass.  Replayed
events keep their original ``seq``; events the restored buffer no
longer holds are refused by :meth:`events_since` with
:class:`EventsExpiredError`, and the client resyncs from
:meth:`poll`'s ``matches``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..core.result import ResultSet
from ..durability import DurabilityManager, RecoveryResult
from ..engines.cpu_scan import CpuScanEngine
from ..ingest.mutation import Mutation
from ..ingest.versioned import Snapshot, VersionedDatabase
from ..obs import DISABLED, Telemetry
from .store import StandingStore, StandingStoreError
from .subscription import CandidateEnvelope, Subscription

__all__ = ["EpochReport", "EventsExpiredError", "StandingQueryManager"]

#: bound on the in-memory delta-event buffer served by
#: :meth:`StandingQueryManager.events_since` / ``poll``.
EVENTS_MAXLEN = 100_000


class EventsExpiredError(LookupError):
    """Events after the requested ``seq`` are no longer buffered (the
    buffer's bound trimmed them, or a restart did not bring them back);
    the client resyncs from :meth:`StandingQueryManager.poll`'s
    ``matches``."""


@dataclass
class EpochReport:
    """What one maintenance pass did (returned to the owner)."""

    epoch: int
    kind: str
    #: registered subscriptions when the pass ran.
    total: int
    #: sub_ids whose answer the delta could change (sorted).
    affected: list[str] = field(default_factory=list)
    #: subscriptions proven unaffected and skipped.
    skipped: int = 0
    events_added: int = 0
    events_removed: int = 0
    wall_seconds: float = 0.0

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {"epoch": self.epoch, "kind": self.kind,
                "total": self.total, "affected": list(self.affected),
                "skipped": self.skipped,
                "events_added": self.events_added,
                "events_removed": self.events_removed,
                "wall_seconds": self.wall_seconds}


class StandingQueryManager:
    """Registered subscriptions + held answers + delta events.

    Parameters
    ----------
    store:
        Optional :class:`~repro.standing.store.StandingStore`; with one
        attached, registrations and held answers are durable and
        :meth:`recover` works.
    telemetry:
        The owning service's :class:`~repro.obs.Telemetry` hub; match
        events and per-epoch summaries land in its event log, counters
        in its metrics registry (default: the shared no-op hub).
    """

    def __init__(self, *, store: StandingStore | None = None,
                 telemetry: Telemetry = DISABLED) -> None:
        self.store = store
        self.telemetry = telemetry
        self.subscriptions: dict[str, Subscription] = {}
        self._envelopes: dict[str, CandidateEnvelope] = {}
        self._answers: dict[str, ResultSet] = {}
        self._seq = 0
        self._events: deque[dict] = deque(maxlen=EVENTS_MAXLEN)
        self.last_report: EpochReport | None = None
        #: lifetime counters (mirrored into telemetry when attached);
        #: ``replayed_events`` counts the events :meth:`recover`
        #: re-derived past the saved state.
        self.totals = {
            "epochs": 0, "delta_epochs": 0, "affected": 0,
            "skipped": 0, "events_added": 0, "events_removed": 0,
            "recoveries": 0, "replayed_events": 0,
        }

    # -- registration -------------------------------------------------------------

    def register(self, sub: Subscription, snapshot: Snapshot) -> dict:
        """Register a subscription and settle its initial answer
        against ``snapshot`` (one ``cpu_scan`` over its logical
        database).

        The initial matches are *state*, not deltas: no
        ``match_added`` events fire for them — the event stream reports
        changes after registration, and :meth:`poll` always returns the
        full current set.
        """
        if sub.sub_id in self.subscriptions:
            raise ValueError(f"subscription {sub.sub_id!r} is already "
                             f"registered")
        logical = snapshot.logical()
        answer = (_evaluate(sub, CpuScanEngine(logical)) if len(logical)
                  else ResultSet())
        self.subscriptions[sub.sub_id] = sub
        self._envelopes[sub.sub_id] = sub.envelope()
        self._answers[sub.sub_id] = answer
        self.save_state(snapshot.epoch)
        self._emit_event("subscription_registered", sub_id=sub.sub_id,
                         epoch=snapshot.epoch, matches=len(answer))
        self._set_gauge()
        return {"sub_id": sub.sub_id, "epoch": snapshot.epoch,
                "matches": len(answer)}

    def unregister(self, sub_id: str, *, epoch: int) -> dict:
        """Drop a subscription (its held answer goes with it)."""
        if sub_id not in self.subscriptions:
            raise KeyError(f"no subscription {sub_id!r}")
        matches = len(self._answers.pop(sub_id))
        del self.subscriptions[sub_id]
        self._envelopes.pop(sub_id, None)
        self.save_state(epoch)
        self._emit_event("subscription_unregistered", sub_id=sub_id,
                         epoch=epoch, matches=matches)
        self._set_gauge()
        return {"sub_id": sub_id, "epoch": epoch, "matches": matches}

    # -- reads --------------------------------------------------------------------

    def results(self, sub_id: str) -> ResultSet:
        """The held answer, a canonical
        :class:`~repro.core.result.ResultSet` (sorted by
        ``(q_id, e_id)``; treat it as read-only)."""
        return self._answers[sub_id]

    def events_since(self, seq: int, *, sub_id: str | None = None
                     ) -> list[dict]:
        """Buffered delta events with ``seq`` strictly greater than
        ``seq`` (optionally for one subscription), oldest first.

        For ``seq >= 0`` the answer is complete or refused: when some
        event in ``(seq, last_seq]`` is no longer buffered, raises
        :class:`EventsExpiredError` naming the oldest seq still held.
        ``seq = -1`` returns whatever is buffered."""
        oldest = self._seq - len(self._events) + 1
        if 0 <= seq < oldest - 1:
            held = (f"the oldest held is seq {oldest}" if self._events
                    else "none is held")
            raise EventsExpiredError(
                f"events after seq {seq} are no longer buffered: "
                f"{held} (last_seq {self._seq}); resync from "
                f"poll()['matches']")
        return [dict(rec) for rec in self._events
                if rec["seq"] > seq
                and (sub_id is None or rec["sub_id"] == sub_id)]

    def poll(self, sub_id: str, *, since_seq: int = -1) -> dict:
        """One subscription's current answer + its delta events after
        ``since_seq`` — the client-facing read."""
        if sub_id not in self.subscriptions:
            raise KeyError(f"no subscription {sub_id!r}")
        return {
            "sub_id": sub_id,
            "matches": _rows(self._answers[sub_id]),
            "events": self.events_since(since_seq, sub_id=sub_id),
            "last_seq": self._seq,
        }

    @property
    def last_seq(self) -> int:
        return self._seq

    def stats(self) -> dict:
        """JSON-friendly counters for dashboards and reports."""
        out = {"subscriptions": len(self.subscriptions),
               "last_seq": self._seq}
        out.update(self.totals)
        if self.store is not None:
            out["store_state_saves"] = self.store.state_saves
        return out

    # -- the per-epoch pass -------------------------------------------------------

    def process_mutation(self, database: VersionedDatabase,
                         mutation: Mutation) -> EpochReport | None:
        """Settle every subscription against the epoch ``mutation``
        just produced in ``database`` — the one hook the live write
        path and :meth:`recover`'s WAL replay both run.  Skipped
        entirely while nothing is registered."""
        if not self.subscriptions:
            return None
        wall0 = time.perf_counter()
        snapshot = database.snapshot()
        records: list[dict] = []
        affected: list[str] = []
        if mutation.op == "append":
            affected = [sub_id for sub_id in sorted(self.subscriptions)
                        if self._envelopes[sub_id].intersects(
                            mutation.segments)]
            if affected:
                delta = snapshot.delta
                n = len(mutation.segments)
                engine = CpuScanEngine(
                    delta.take(np.arange(len(delta) - n, len(delta))))
                for sub_id in affected:
                    found = _evaluate(self.subscriptions[sub_id], engine)
                    self._answers[sub_id] = ResultSet.from_parts(
                        [self._answers[sub_id], found]).canonical()
                    records += self._records("match_added", sub_id,
                                             snapshot.epoch, found)
        elif mutation.op == "delete":
            doomed = snapshot.seg_ids_of_trajectory(mutation.traj_id)
            for sub_id in sorted(self.subscriptions):
                held = self._answers[sub_id]
                gone = np.isin(held.e_ids, doomed)
                if not gone.any():
                    continue
                affected.append(sub_id)
                self._answers[sub_id] = _take(held, ~gone)
                records += self._records("match_removed", sub_id,
                                         snapshot.epoch,
                                         _take(held, gone))
        added, removed = self._publish(records)
        if affected:
            self._observe("repro_standing_settle_seconds",
                          time.perf_counter() - wall0)
        report = EpochReport(epoch=snapshot.epoch, kind=mutation.op,
                             total=len(self.subscriptions),
                             affected=affected,
                             skipped=len(self.subscriptions)
                             - len(affected),
                             events_added=added, events_removed=removed,
                             wall_seconds=time.perf_counter() - wall0)
        self.totals["affected"] += len(affected)
        self.totals["skipped"] += report.skipped
        self._count("repro_standing_affected_total", len(affected))
        self._count("repro_standing_skipped_total", report.skipped)
        self._finish_report(report)
        return report

    # -- durability ---------------------------------------------------------------

    def save_state(self, epoch: int) -> None:
        """Snapshot the subscriptions, their held answers and
        ``last_seq`` as settled at ``epoch`` (no-op without a store)."""
        if self.store is not None:
            self.store.save_state(self._state_dict(epoch))

    def recover(self, durability: DurabilityManager) -> RecoveryResult:
        """Restore the saved subscriptions and rebuild the database
        around them; returns ``durability``'s
        :class:`~repro.durability.RecoveryResult`.

        The saved state is a snapshot at its ``epoch``.  The database
        starts from the newest valid checkpoint at or below that epoch,
        and each later WAL record is applied and — once past the
        state's epoch — run through :meth:`process_mutation`, exactly
        as the live mutation was, so every event the state does not
        hold comes back with its original ``seq`` and ``epoch``.  A
        state ahead of the recovered database raises
        :class:`~repro.standing.store.StandingStoreError`; one older
        than every retained checkpoint raises
        :class:`~repro.durability.DurabilityError` (the log no longer
        reaches back to it).  Neither yields a different stream.
        """
        if self.store is None:
            raise RuntimeError("recover() needs a StandingStore")
        if self.subscriptions:
            raise RuntimeError("recover() must run on an empty manager")
        held = self._restore(self.store.load_state())
        seq0 = self._seq

        def replay(database: VersionedDatabase,
                   mutation: Mutation) -> None:
            database.apply(mutation)
            if held is not None and database.epoch > held:
                self.process_mutation(database, mutation)

        result = durability.recover(ceiling=held, replay=replay)
        if held is not None and held > result.epoch:
            raise StandingStoreError(
                f"standing state {self.store.state_path} is settled at "
                f"epoch {held}, ahead of the recovered database at "
                f"epoch {result.epoch}")
        replayed = self._seq - seq0
        self.totals["recoveries"] += 1
        self.totals["replayed_events"] += replayed
        self._count("repro_standing_recoveries_total", 1)
        self._set_gauge()
        self._emit_event("standing_recovered",
                         subscriptions=len(self.subscriptions),
                         replayed_events=replayed, epoch=result.epoch)
        return result

    # -- internals ----------------------------------------------------------------

    def _restore(self, state: dict | None) -> int | None:
        """Adopt a saved state; returns its epoch when it holds
        subscriptions (replay must then start at or below it), else
        None."""
        if state is None:
            return None
        try:
            self._seq = int(state["last_seq"])
            for entry in state["subscriptions"]:
                sub = Subscription.from_dict(entry["sub"])
                self.subscriptions[sub.sub_id] = sub
                self._envelopes[sub.sub_id] = sub.envelope()
                self._answers[sub.sub_id] = _from_rows(entry["matches"])
            return int(state["epoch"]) if self.subscriptions else None
        except (KeyError, TypeError, ValueError) as exc:
            raise StandingStoreError(
                f"standing state {self.store.state_path} is malformed: "
                f"{type(exc).__name__}: {exc}") from exc

    def _records(self, kind: str, sub_id: str, epoch: int,
                 items: ResultSet) -> list[dict]:
        """One stamped event per item of ``items``, in its order."""
        out = []
        for q, e, lo, hi in zip(items.q_ids.tolist(),
                                items.e_ids.tolist(),
                                items.t_lo.tolist(), items.t_hi.tolist()):
            self._seq += 1
            out.append({"seq": self._seq, "epoch": int(epoch),
                        "kind": kind, "sub_id": sub_id, "q_id": q,
                        "e_id": e, "t_lo": lo, "t_hi": hi})
        return out

    def _publish(self, records: list[dict]) -> tuple[int, int]:
        """Buffer and emit the pass's events; returns ``(added,
        removed)`` counts."""
        added = 0
        for rec in records:
            self._events.append(rec)
            self._emit_event(rec["kind"],
                             **{k: v for k, v in rec.items()
                                if k != "kind"})
            added += rec["kind"] == "match_added"
        removed = len(records) - added
        self.totals["events_added"] += added
        self.totals["events_removed"] += removed
        if added:
            self._count("repro_standing_match_events_total", added,
                        kind="match_added")
        if removed:
            self._count("repro_standing_match_events_total", removed,
                        kind="match_removed")
        return added, removed

    def _state_dict(self, epoch: int) -> dict:
        return {
            "last_seq": self._seq,
            "epoch": int(epoch),
            "subscriptions": [
                {"sub": self.subscriptions[sub_id].to_dict(),
                 "matches": _rows(self._answers[sub_id])}
                for sub_id in sorted(self.subscriptions)],
        }

    def _finish_report(self, report: EpochReport) -> None:
        self.last_report = report
        self.totals["epochs"] += 1
        if report.kind in ("append", "delete"):
            self.totals["delta_epochs"] += 1
        self._observe("repro_standing_epoch_seconds",
                      report.wall_seconds)
        fields = report.to_dict()
        fields["epoch_kind"] = fields.pop("kind")
        self._emit_event("standing_epoch", **fields)

    # -- telemetry plumbing -------------------------------------------------------

    def _emit_event(self, kind: str, **fields) -> None:
        self.telemetry.events.emit(kind, **fields)

    def _count(self, name: str, amount: float, **labels) -> None:
        if amount:
            self.telemetry.metrics.counter(name).inc(amount, **labels)

    def _observe(self, name: str, value: float) -> None:
        self.telemetry.metrics.histogram(name).observe(value)

    def _set_gauge(self) -> None:
        self.telemetry.metrics.gauge(
            "repro_standing_subscriptions").set(len(self.subscriptions))


def _evaluate(sub: Subscription, engine: CpuScanEngine) -> ResultSet:
    """``sub``'s items over ``engine``'s rows, clipped to its window, in
    ``(q_id, e_id)`` order."""
    results, _ = engine.search(
        sub.queries, sub.d,
        exclude_same_trajectory=sub.exclude_same_trajectory)
    return sub.apply_window(results).canonical()


def _take(items: ResultSet, keep: np.ndarray) -> ResultSet:
    return ResultSet(items.q_ids[keep], items.e_ids[keep],
                     items.t_lo[keep], items.t_hi[keep])


def _rows(answer: ResultSet) -> list[list]:
    """The saved state's and :meth:`StandingQueryManager.poll`'s form:
    ``[[q_id, e_id, t_lo, t_hi], ...]`` in ``(q_id, e_id)`` order."""
    return [list(row) for row in zip(
        answer.q_ids.tolist(), answer.e_ids.tolist(),
        answer.t_lo.tolist(), answer.t_hi.tolist())]


def _from_rows(rows: list) -> ResultSet:
    """Inverse of :func:`_rows`."""
    items = [(int(q), int(e), float(lo), float(hi))
             for q, e, lo, hi in rows]
    if not items:
        return ResultSet()
    q, e, lo, hi = zip(*items)
    return ResultSet(np.array(q, dtype=np.int64),
                     np.array(e, dtype=np.int64),
                     np.array(lo, dtype=np.float64),
                     np.array(hi, dtype=np.float64)).canonical()
