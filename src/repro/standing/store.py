"""The standing-query state snapshot.

Standing subscriptions and their maintained match sets must survive
:meth:`QueryService.recover`.  Their match events are derived data —
each is a function of the subscriptions and of the database epochs — so
they are not journaled: the database's ``wal.jsonl`` is the one append
log, and the standing layer keeps one file next to it:

.. code-block:: text

    standing/
        state.json      # atomic snapshot: subscriptions, match sets,
                        # last_seq, and the epoch they are settled at

``state.json`` is written through
:func:`repro.durability.files.replace_file` (tmp file + fsync +
``os.replace`` + directory fsync), so a crash mid-save leaves the
previous state intact.  The owning service saves it on register and
unregister, right after every database checkpoint and at shutdown, so
it is never older than the checkpoint before the newest one — and the
WAL, truncated only through the oldest checkpoint kept, always reaches
back to that.

A saved state is a snapshot that WAL replay moves forward: recovery
starts the database from the newest valid checkpoint at or below the
state's epoch and runs every later record through the standing pass it
ran live (:meth:`~repro.standing.manager.StandingQueryManager.recover`),
so each event comes back with its original ``seq`` and ``epoch``.  An
``events.jsonl`` written here by earlier versions is ignored.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..durability.files import replace_file

__all__ = ["StandingStore", "StandingStoreError"]

STATE_NAME = "state.json"
#: state schema version (bump on incompatible layout changes).
FORMAT_VERSION = 1


class StandingStoreError(RuntimeError):
    """A standing state that cannot be loaded or recovered."""


class StandingStore:
    """The standing state file of one durability directory (see module
    docstring).

    Parameters
    ----------
    root:
        The durability directory; the store lives in its ``standing/``
        subdirectory (created if missing).
    """

    def __init__(self, root: str | Path) -> None:
        self.directory = Path(root) / "standing"
        self.state_path = self.directory / STATE_NAME
        #: lifetime write counter (surfaced through manager stats).
        self.state_saves = 0

    def load_state(self) -> dict | None:
        """The last saved state, None when none ever was.  A corrupt
        ``state.json`` raises: state writes are atomic, so corruption
        there is damage, not a crash artifact."""
        if not self.state_path.exists():
            return None
        try:
            state = json.loads(self.state_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            raise StandingStoreError(
                f"standing state {self.state_path} is unreadable: "
                f"{exc}") from exc
        if not isinstance(state, dict):
            raise StandingStoreError(
                f"standing state {self.state_path} is not a JSON "
                f"object")
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
        self.directory.mkdir(parents=True, exist_ok=True)
        replace_file(self.state_path, data)
        self.state_saves += 1
