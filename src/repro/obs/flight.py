"""Flight recorder: per-session ring buffers + postmortem manifests.

The serving layer records a short event trail for every live session —
open, feed enqueued, feed answered, errors — into a bounded ring
(``capacity`` events per session, oldest evicted first).  The rings cost
a ``deque.append`` per event and nothing on disk while sessions end
cleanly; when a session dies badly (``timeout``, connection drop, a
terminal ``overloaded``) the server dumps that session's ring as a
**postmortem manifest**: a JSON file carrying the reason, the trace id,
the recent event trail with relative timestamps, and whatever context
the caller attaches (server stats at time of death, peer address).

Postmortems are the "leave something to debug with" artifact the SLO
report cannot be: a dropped session in a loadgen run points at a file
showing exactly which feeds were in flight and how long each waited.
``repro stats tail <dir>`` follows a postmortem/manifest directory live.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple

from .manifest import iso_utc, wall_clock
from .schema import load_schema, validate

__all__ = [
    "POSTMORTEM_SCHEMA_ID",
    "POSTMORTEM_SCHEMA_PATH",
    "FlightRecorder",
    "validate_postmortem",
]

POSTMORTEM_SCHEMA_ID = "repro.postmortem/v1"

#: The checked-in schema for postmortem manifests.
POSTMORTEM_SCHEMA_PATH = Path(__file__).with_name(
    "postmortem.schema.json"
)

#: One recorded event: (sequence number, monotonic seconds, kind, detail).
_Event = Tuple[int, float, str, Dict[str, Any]]


class FlightRecorder:
    """Bounded per-session event rings with postmortem dumping."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rings: Dict[str, Deque[_Event]] = {}
        self._seq = 0

    def record(
        self, session_id: str, kind: str, **detail: Any
    ) -> None:
        """Append one event to a session's ring (creates the ring)."""
        ring = self._rings.get(session_id)
        if ring is None:
            ring = self._rings[session_id] = deque(maxlen=self.capacity)
        self._seq += 1
        # Monotonic stamp, display only (obs/ is clock-allowlisted).
        ring.append((self._seq, time.perf_counter(), kind, detail))

    def events(self, session_id: str) -> List[_Event]:
        """The session's current ring, oldest first (copy)."""
        return list(self._rings.get(session_id, ()))

    def discard(self, session_id: str) -> None:
        """Forget a session's ring (clean finishes free their memory)."""
        self._rings.pop(session_id, None)

    def __len__(self) -> int:
        return len(self._rings)

    def postmortem(
        self,
        session_id: str,
        reason: str,
        context: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The postmortem manifest dict for a session (does not write)."""
        events = self.events(session_id)
        base = events[0][1] if events else 0.0
        return {
            "schema": POSTMORTEM_SCHEMA_ID,
            "session": session_id,
            "reason": reason,
            "written_at": iso_utc(wall_clock()),
            "pid": os.getpid(),
            "events_recorded": len(events),
            "events": [
                {
                    "seq": seq,
                    "t_s": round(stamp - base, 6),
                    "kind": kind,
                    "detail": detail,
                }
                for seq, stamp, kind, detail in events
            ],
            "context": context or {},
        }

    def dump(
        self,
        session_id: str,
        reason: str,
        directory: Path,
        context: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Write the postmortem manifest atomically; returns its path.

        The ring is consumed: a session only dies once, and dropping the
        ring keeps a long-lived server's memory bounded by *live*
        sessions.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        document = self.postmortem(session_id, reason, context)
        self.discard(session_id)
        path = directory / f"postmortem-{session_id}-{reason}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        return path


def validate_postmortem(document: Any) -> List[str]:
    """Violations of the checked-in postmortem schema (empty = valid)."""
    return validate(document, load_schema(POSTMORTEM_SCHEMA_PATH))
