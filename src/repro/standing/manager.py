"""Delta-aware maintenance of standing queries across ingest epochs.

:class:`StandingQueryManager` owns the registered
:class:`~repro.standing.subscription.Subscription`\\ s and one maintained
match set per subscription.  After every database mutation the owner
calls :meth:`process_epoch` with the new snapshot and the mutation's
delta; the manager decides which subscriptions are *affected*:

* **append** — subscriptions whose
  :class:`~repro.standing.subscription.CandidateEnvelope` intersects
  the appended segments.  New rows can only *add* matches, and only
  matches touching the new rows, so an envelope miss proves the answer
  unchanged.
* **delete** — subscriptions currently holding a match whose entry
  segment belongs to the deleted trajectory.  A delete can only
  *remove* matches, and only those.
* **compact** — nobody.  Compaction preserves
  :meth:`~repro.ingest.versioned.Snapshot.logical` exactly (the
  differential harness pins this), so answers cannot change.

Affected subscriptions are re-evaluated against the pinned snapshot via
the same base-engine + overlay path one-shot queries use — every epoch
is fully settled before the mutation returns; the diff
against the maintained set becomes typed ``match_added`` /
``match_removed`` events, stamped with the epoch and a monotonic
``seq``.  The exactness harness (``tests/test_standing_exactness.py``)
replays workloads asserting the maintained sets stay byte-identical to
from-scratch ``cpu_scan`` evaluation at every epoch — the skip
decision above is load-bearing correctness, not best-effort caching.

With a :class:`~repro.standing.store.StandingStore` attached, the
subscriptions and match sets are snapshotted to disk
(:meth:`save_state`) and :meth:`recover` moves the snapshot forward by
replaying the database WAL through the same per-epoch pass, so
subscriptions survive service crashes with no lost or duplicated
delta events.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.search import SearchOutcome
from ..durability import DurabilityManager, RecoveryResult
from ..engines.cpu_scan import CpuScanEngine
from ..gpu.costmodel import CpuCostModel
from ..ingest.mutation import OPS, Mutation
from ..ingest.overlay import overlay_search
from ..ingest.versioned import Snapshot, VersionedDatabase
from ..obs import DISABLED, Telemetry
from .store import StandingStore, StandingStoreError
from .subscription import (CandidateEnvelope, MatchDict, Subscription,
                           matches_from_results, matches_from_rows,
                           matches_to_rows, results_from_matches)

__all__ = ["EpochReport", "StandingQueryManager"]

#: bound on the in-memory delta-event buffer served by
#: :meth:`StandingQueryManager.events_since` / ``poll``.
EVENTS_MAXLEN = 100_000


@dataclass
class EpochReport:
    """What one maintenance pass did (returned to the owner)."""

    epoch: int
    kind: str
    #: registered subscriptions when the pass ran.
    total: int
    #: sub_ids re-evaluated this pass (sorted).
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
    """Registered subscriptions + maintained match sets + delta events.

    Parameters
    ----------
    store:
        Optional :class:`~repro.standing.store.StandingStore`; with one
        attached, registrations and match sets are durable and
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
        self._matches: dict[str, MatchDict] = {}
        self._seq = 0
        self._delta_log: list[dict] = []
        self._base_engine_cache: tuple[int, CpuScanEngine] | None = None
        self._cpu_model = CpuCostModel()
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
        """Register a subscription and settle its initial match set
        against ``snapshot``.

        The initial matches are *state*, not deltas: no
        ``match_added`` events fire for them — the event stream reports
        changes after registration, and :meth:`poll` always returns the
        full current set.
        """
        if sub.sub_id in self.subscriptions:
            raise ValueError(f"subscription {sub.sub_id!r} is already "
                             f"registered")
        matches = self._evaluate(sub, snapshot)
        self.subscriptions[sub.sub_id] = sub
        self._envelopes[sub.sub_id] = sub.envelope()
        self._matches[sub.sub_id] = matches
        self.save_state(snapshot.epoch)
        self._emit_event("subscription_registered", sub_id=sub.sub_id,
                         epoch=snapshot.epoch, matches=len(matches))
        self._set_gauge()
        return {"sub_id": sub.sub_id, "epoch": snapshot.epoch,
                "matches": len(matches)}

    def unregister(self, sub_id: str, *, epoch: int) -> dict:
        """Drop a subscription (its match set goes with it)."""
        if sub_id not in self.subscriptions:
            raise KeyError(f"no subscription {sub_id!r}")
        matches = len(self._matches.get(sub_id, ()))
        del self.subscriptions[sub_id]
        self._envelopes.pop(sub_id, None)
        self._matches.pop(sub_id, None)
        self.save_state(epoch)
        self._emit_event("subscription_unregistered", sub_id=sub_id,
                         epoch=epoch, matches=matches)
        self._set_gauge()
        return {"sub_id": sub_id, "epoch": epoch, "matches": matches}

    # -- reads --------------------------------------------------------------------

    def matches(self, sub_id: str) -> MatchDict:
        """The maintained match set (a copy) for one subscription."""
        return dict(self._matches[sub_id])

    def results(self, sub_id: str):
        """The maintained answer as a canonical
        :class:`~repro.core.result.ResultSet`."""
        return results_from_matches(self._matches[sub_id])

    def events_since(self, seq: int, *, sub_id: str | None = None
                     ) -> list[dict]:
        """Buffered delta events with ``seq`` strictly greater than
        ``seq`` (optionally for one subscription), oldest first."""
        out = [dict(rec) for rec in self._delta_log
               if rec["seq"] > seq
               and (sub_id is None or rec["sub_id"] == sub_id)]
        return out

    def poll(self, sub_id: str, *, since_seq: int = -1) -> dict:
        """One subscription's current answer + its delta events after
        ``since_seq`` — the client-facing read."""
        if sub_id not in self.subscriptions:
            raise KeyError(f"no subscription {sub_id!r}")
        return {
            "sub_id": sub_id,
            "matches": matches_to_rows(self._matches[sub_id]),
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
        """The standing pass for the epoch ``mutation`` just produced
        in ``database`` — the one hook the live write path and
        :meth:`recover`'s WAL replay both run.  Skipped entirely while
        nothing is registered."""
        if not self.subscriptions:
            return None
        return self.process_epoch(
            database.snapshot(), mutation.op,
            appended=mutation.segments, deleted_traj=mutation.traj_id)

    def process_epoch(self, snapshot: Snapshot, kind: str, *,
                      appended=None, deleted_traj: int | None = None
                      ) -> EpochReport:
        """Settle all subscriptions against one new epoch.

        Parameters
        ----------
        snapshot:
            The post-mutation snapshot (``snapshot.epoch`` stamps the
            events).
        kind:
            ``"append"`` / ``"delete"`` / ``"compact"``.
        appended:
            The appended :class:`~repro.core.types.SegmentArray`
            (required for ``"append"``); geometry only — seg_ids need
            not be stamped.
        deleted_traj:
            The tombstoned trajectory id (required for ``"delete"``).
        """
        if kind not in OPS:
            raise ValueError(f"unknown epoch kind {kind!r}")
        if kind == "append" and appended is None:
            raise ValueError("append epoch needs the appended segments")
        if kind == "delete" and deleted_traj is None:
            raise ValueError("delete epoch needs the deleted traj id")
        wall0 = time.perf_counter()
        affected = self._affected(snapshot, kind, appended,
                                  deleted_traj)
        added, removed = self._settle(affected, snapshot)
        report = EpochReport(epoch=snapshot.epoch, kind=kind,
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
        """Snapshot the subscriptions, their match sets and
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
                self._matches[sub.sub_id] = matches_from_rows(
                    entry["matches"])
            return int(state["epoch"]) if self.subscriptions else None
        except (KeyError, TypeError, ValueError) as exc:
            raise StandingStoreError(
                f"standing state {self.store.state_path} is malformed: "
                f"{type(exc).__name__}: {exc}") from exc

    def _affected(self, snapshot: Snapshot, kind: str, appended,
                  deleted_traj: int | None) -> list[str]:
        """Which subscriptions could this epoch's delta have changed?"""
        if kind == "compact" or not self.subscriptions:
            return []
        if kind == "append":
            return [sub_id for sub_id in sorted(self.subscriptions)
                    if self._envelopes[sub_id].intersects(appended)]
        doomed = set(
            snapshot.seg_ids_of_trajectory(deleted_traj).tolist())
        return [sub_id for sub_id in sorted(self.subscriptions)
                if any(e in doomed
                       for (_q, e) in self._matches[sub_id])]

    def _base_engine(self, snapshot: Snapshot) -> CpuScanEngine:
        """Brute-force engine over the snapshot's base, cached per base
        version (the base only changes at compaction)."""
        cached = self._base_engine_cache
        if cached is None or cached[0] != snapshot.base_version:
            cached = (snapshot.base_version,
                      CpuScanEngine(snapshot.base))
            self._base_engine_cache = cached
        return cached[1]

    def _evaluate(self, sub: Subscription,
                  snapshot: Snapshot) -> MatchDict:
        """One subscription's exact answer at ``snapshot``: base scan,
        lifted through the overlay (tombstone filter + delta scan),
        clipped to the window."""
        engine = self._base_engine(snapshot)
        results, profile = engine.search(
            sub.queries, sub.d,
            exclude_same_trajectory=sub.exclude_same_trajectory)
        outcome = SearchOutcome(
            results=results, profile=profile,
            modeled=profile.modeled_time(self._cpu_model))
        outcome, _ = overlay_search(
            outcome, snapshot, sub.queries, sub.d,
            exclude_same_trajectory=sub.exclude_same_trajectory,
            cpu_model=self._cpu_model)
        return matches_from_results(sub.apply_window(outcome.results))

    def _settle(self, sub_ids: list[str], snapshot: Snapshot
                ) -> tuple[int, int]:
        """Re-evaluate ``sub_ids`` at ``snapshot``, diff against the
        maintained sets, and emit the deltas.  Returns
        ``(added, removed)`` event counts."""
        records: list[dict] = []
        wall0 = time.perf_counter()
        for sub_id in sub_ids:
            new = self._evaluate(self.subscriptions[sub_id], snapshot)
            old = self._matches[sub_id]
            self._matches[sub_id] = new
            for key in sorted(k for k in old if k not in new):
                lo, hi = old[key]
                records.append(self._record("match_removed", sub_id,
                                            snapshot.epoch, key, lo,
                                            hi))
            for key in sorted(k for k in new if k not in old):
                lo, hi = new[key]
                records.append(self._record("match_added", sub_id,
                                            snapshot.epoch, key, lo,
                                            hi))
        added = removed = 0
        for rec in records:
            self._buffer(rec)
            self._emit_event(rec["kind"],
                             **{k: v for k, v in rec.items()
                                if k != "kind"})
            if rec["kind"] == "match_added":
                added += 1
            else:
                removed += 1
        if sub_ids:
            self._observe("repro_standing_settle_seconds",
                          time.perf_counter() - wall0)
        self.totals["events_added"] += added
        self.totals["events_removed"] += removed
        if added:
            self._count("repro_standing_match_events_total", added,
                        kind="match_added")
        if removed:
            self._count("repro_standing_match_events_total", removed,
                        kind="match_removed")
        return added, removed

    def _record(self, kind: str, sub_id: str, epoch: int,
                key: tuple[int, int], lo: float, hi: float) -> dict:
        self._seq += 1
        return {"seq": self._seq, "epoch": int(epoch), "kind": kind,
                "sub_id": sub_id, "q_id": int(key[0]),
                "e_id": int(key[1]), "t_lo": float(lo),
                "t_hi": float(hi)}

    def _buffer(self, rec: dict) -> None:
        self._delta_log.append(rec)
        if len(self._delta_log) > EVENTS_MAXLEN:
            del self._delta_log[:len(self._delta_log) - EVENTS_MAXLEN]

    def _state_dict(self, epoch: int) -> dict:
        return {
            "last_seq": self._seq,
            "epoch": int(epoch),
            "subscriptions": [
                {"sub": self.subscriptions[sub_id].to_dict(),
                 "matches": matches_to_rows(self._matches[sub_id])}
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
