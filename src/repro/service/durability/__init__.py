"""Crash-consistent durability for the serving stack's live cost state.

Three layers, bottom up:

* :mod:`~repro.service.durability.journal` — :class:`DiskJournal`, a
  segmented CRC-framed write-ahead log with an ``"always"`` / ``"interval"``
  fsync policy and torn-tail repair;
* :mod:`~repro.service.durability.snapshot` — :class:`SnapshotStore`,
  atomic (temp → fsync → ``os.replace`` → dir fsync) snapshots of the cost
  arrays, the newest two kept;
* :mod:`~repro.service.durability.manager` — :class:`DurabilityManager`,
  which wires both into the :class:`~repro.traffic.feed.TrafficFeed`
  write path and owns the snapshot-restore + WAL-replay recovery flow.

:mod:`~repro.service.durability.killpoints` and
:mod:`~repro.service.durability.chaos` are the proof obligations: named
crash instants threaded through every durable write, and a harness showing
recovery from each one is bit-identical to an uninterrupted run.
"""

from .chaos import (
    ChaosResult,
    crash_and_recover,
    final_state,
    reference_state,
    run_killpoint_matrix,
    states_identical,
)
from .journal import (
    FSYNC_POLICIES,
    RECORD_TRAFFIC,
    DiskJournal,
    JournalError,
    JournalRecord,
    JournalScan,
)
from .killpoints import KILL_POINTS, KillSwitch, SimulatedCrash
from .manager import DurabilityManager, RecoveryError, RecoveryReport
from .snapshot import SnapshotError, SnapshotState, SnapshotStore, topology_stamp

__all__ = [
    "ChaosResult",
    "DiskJournal",
    "DurabilityManager",
    "FSYNC_POLICIES",
    "JournalError",
    "JournalRecord",
    "JournalScan",
    "KILL_POINTS",
    "KillSwitch",
    "RECORD_TRAFFIC",
    "RecoveryError",
    "RecoveryReport",
    "SimulatedCrash",
    "SnapshotError",
    "SnapshotState",
    "SnapshotStore",
    "crash_and_recover",
    "final_state",
    "reference_state",
    "run_killpoint_matrix",
    "states_identical",
    "topology_stamp",
]
