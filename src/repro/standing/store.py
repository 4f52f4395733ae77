"""Durable sidecar for standing-query state.

Standing subscriptions and their maintained match sets must survive
:meth:`QueryService.recover`, but they deliberately do **not** ride the
database WAL: a standing record interleaved there would break the
epoch-continuity check replay enforces (every database record must
produce ``epoch + 1``).  Instead the standing layer keeps its own two
files next to the database's ``wal.jsonl`` and ``checkpoints/``:

.. code-block:: text

    standing/
        state.json      # atomic snapshot: subscriptions + match sets
        events.jsonl    # framed append log of match delta events

``events.jsonl`` is a :class:`~repro.durability.WriteAheadLog` (same
CRC frame, torn-tail drop and hole detection, the service's own sync
mode; per event, ``op`` is its kind, ``epoch`` its epoch, ``payload``
the event) and the discipline is the database's: match delta events
are appended, one sync per settle batch, *before* they are applied to
the in-memory match sets, so a crash can lose at most work that was
never acknowledged — never acknowledged work.  ``state.json`` is
written with the same tmp-file + ``os.replace`` + directory-fsync
pattern as checkpoints; a crash mid-save leaves the previous state
intact.  :meth:`StandingStore.checkpoint` folds the event log into the
state and truncates it, bounding replay work exactly like WAL
truncation does for the database.

Recovery reads the state, replays events with ``seq`` greater than the
state's ``last_seq``, and the manager then runs an idempotent catch-up
diff against the recovered snapshot (see
:meth:`~repro.standing.manager.StandingQueryManager.recover`) — the
sidecar can lag the database by at most the one epoch whose standing
processing the crash interrupted.
"""

from __future__ import annotations

import json
import os

from ..durability.checkpoint import _fsync_dir
from ..durability.wal import WriteAheadLog

__all__ = ["StandingStore", "StandingStoreError"]

STATE_NAME = "state.json"
EVENTS_NAME = "events.jsonl"
#: state schema version (bump on incompatible layout changes).
FORMAT_VERSION = 1


class StandingStoreError(RuntimeError):
    """A standing sidecar that cannot be loaded."""


class StandingStore:
    """The two-file durable sidecar (see module docstring).

    Parameters
    ----------
    wal:
        The log of the database this is the sidecar of: the store
        lives in ``standing/`` (created if missing) next to it and
        syncs its events the same way.
    """

    def __init__(self, wal: WriteAheadLog) -> None:
        self.directory = wal.path.parent / "standing"
        self.directory.mkdir(parents=True, exist_ok=True)
        self.state_path = self.directory / STATE_NAME
        #: the framed event log (no kill switch: the kill points are
        #: instants of the database's write path).
        self.events = WriteAheadLog(self.directory / EVENTS_NAME,
                                    sync=wal.sync)
        #: lifetime write counter (surfaced through manager stats).
        self.state_saves = 0

    @property
    def events_appended(self) -> int:
        return self.events.appends

    def load_state(self) -> dict | None:
        """The last saved state, None when none ever was.  A corrupt
        ``state.json`` raises: state writes are atomic, so corruption
        there is damage, not a crash artifact."""
        if not self.state_path.exists():
            return None
        try:
            state = json.loads(self.state_path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            raise StandingStoreError(
                f"standing state {self.state_path} is unreadable: "
                f"{exc}") from exc
        if state.get("format") != FORMAT_VERSION:
            raise StandingStoreError(
                f"standing state format "
                f"{state.get('format')!r} != {FORMAT_VERSION}")
        return state

    def save_state(self, state: dict) -> None:
        """Atomically replace ``state.json`` (tmp + fsync +
        ``os.replace`` + directory fsync)."""
        payload = dict(state)
        payload["format"] = FORMAT_VERSION
        data = json.dumps(payload).encode()
        tmp = self.state_path.with_name(".tmp-" + STATE_NAME)
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.state_path)
        _fsync_dir(self.directory)
        self.state_saves += 1

    def checkpoint(self, state: dict) -> None:
        """Fold: save the state, then truncate the event log through
        the state's epoch (every event logged so far).

        Crash between the two steps is safe — the events still in the
        log carry ``seq <= state["last_seq"]`` and replay skips them.
        """
        self.save_state(state)
        self.events.truncate_through(state["epoch"])
