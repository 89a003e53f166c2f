"""Named crash points for deterministic crash-consistency testing.

Every durable-write sequence in this package threads an optional ``kill``
hook through its dangerous instants — immediately before a WAL frame hits
the file, halfway through the frame, before/after the fsync, around segment
rotation, and around the snapshot temp-write → fsync → rename → dir-fsync
dance.  The hook is called with the point's name; a test harness arms one
that raises there, treats the raise as the process dying on the spot,
abandons every open handle and recovers from the directory alone, exactly
like a restart after ``kill -9`` or power loss.

The points are data (:data:`KILL_POINTS`), not prose, so the property suite
can assert recovery at *every* crash point by iterating the tuple — a new
durable write path that adds a point is automatically covered.
"""

from __future__ import annotations

from typing import Callable

#: Every instrumented crash instant, in rough execution order.  Tests
#: iterate this tuple to prove recovery from each one.
KILL_POINTS: tuple[str, ...] = (
    "journal.append.pre-write",
    "journal.append.mid-write",
    "journal.append.pre-fsync",
    "journal.append.post-fsync",
    "journal.rotate.pre-create",
    "journal.rotate.post-create",
    "snapshot.pre-write",
    "snapshot.pre-fsync",
    "snapshot.pre-rename",
    "snapshot.post-rename",
    "snapshot.pre-prune",
)

#: Signature of the hook the durable writers call at each point.
KillHook = Callable[[str], None]
