"""Crash-consistent durability for the serving stack's live cost state.

Three layers, bottom up:

* :mod:`~repro.service.durability.journal` — :class:`DiskJournal`, a
  CRC-framed write-ahead log, cut into segments at snapshots, with an
  ``"always"`` / ``"interval"`` fsync policy and torn-tail repair;
* :mod:`~repro.service.durability.snapshot` — :class:`SnapshotStore`,
  atomic (temp → fsync → ``os.replace`` → dir fsync) snapshots of the cost
  arrays, the newest two kept;
* :mod:`~repro.service.durability.manager` — :class:`DurabilityManager`,
  which wires both into the :class:`~repro.traffic.feed.TrafficFeed`
  write path and owns the snapshot-restore + WAL-replay recovery flow.

:mod:`~repro.service.durability.killpoints` names the crash instants
threaded through every durable write (the ``kill=`` hook of both stores);
the test suite crashes at each one and checks that recovery keeps every
acknowledged batch, bit for bit.
"""

from .journal import (
    FSYNC_POLICIES,
    RECORD_TRAFFIC,
    DiskJournal,
    JournalError,
    JournalRecord,
    JournalScan,
)
from .killpoints import KILL_POINTS
from .manager import DurabilityManager, RecoveryError, RecoveryReport
from .snapshot import (
    SnapshotError,
    SnapshotState,
    SnapshotStore,
    final_state,
    states_identical,
    topology_stamp,
)

__all__ = [
    "DiskJournal",
    "DurabilityManager",
    "FSYNC_POLICIES",
    "JournalError",
    "JournalRecord",
    "JournalScan",
    "KILL_POINTS",
    "RECORD_TRAFFIC",
    "RecoveryError",
    "RecoveryReport",
    "SnapshotError",
    "SnapshotState",
    "SnapshotStore",
    "final_state",
    "states_identical",
    "topology_stamp",
]
