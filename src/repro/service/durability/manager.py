"""The durability coordinator: write-ahead logging, snapshots, recovery.

:class:`DurabilityManager` owns one on-disk layout::

    <directory>/
        wal/        wal-000000000000.seg ...  (DiskJournal)
        snapshots/  snapshot-000000000042.snap ...  (SnapshotStore)

and stitches the two halves together with the live serving stack:

* **Logging** — attach the manager to a :class:`~repro.traffic.feed.
  TrafficFeed` (``feed.attach_journal(manager)``) and every traffic batch
  is journaled *before* it is applied, stamped with the pre-apply
  ``cost_version`` — one ``traffic`` record per batch, whether the feed
  belongs to an in-process service or to the sharded coordinator.
* **Snapshots** — :meth:`snapshot` starts a new WAL segment at the current
  version, captures the cost arrays + version + topology stamp atomically,
  then prunes the WAL segments that the *oldest* retained snapshot covers
  (recovery falls back to it when a newer one is damaged, and then replays
  everything after it).  While only one snapshot exists nothing is pruned:
  a damaged lone snapshot falls back to the model's base state and the
  whole WAL.
* **Recovery** — :meth:`recover` restores the newest valid snapshot, replays
  the WAL suffix through the normal update machinery, and always verifies
  the result with the runtime sanitizer.  A recovery that skipped a damaged
  snapshot publishes a fresh one, so a fallback is retained again.

Replay is deterministic because the WAL stores *inputs* anchored to exact
versions: a traffic record with ``base_version == v`` is resolved against
precisely the state that existed when it was first applied, so scale/delta
updates compose identically and each effective batch advances the version
by exactly one; a record anchored below the current version
(``base_version < current``) is already absorbed and skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from ...exceptions import ReproError
from .journal import RECORD_TRAFFIC, DiskJournal, JournalRecord
from .killpoints import KillHook
from .snapshot import SnapshotStore, topology_stamp

if TYPE_CHECKING:  # pragma: no cover
    from ...network.road_network import RoadNetwork
    from ...traffic.feed import TrafficFeed
    from ...traffic.updates import TrafficUpdate


class RecoveryError(ReproError):
    """Recovery produced an incoherent or unverifiable cost state."""


@dataclass
class RecoveryReport:
    """What one :meth:`DurabilityManager.recover` call did."""

    snapshot_version: int | None = None
    snapshot_path: str | None = None
    replayed: int = 0
    """Records whose effects were applied during replay."""
    skipped: int = 0
    """Records anchored below the current version — already absorbed."""
    failed: int = 0
    """Records that raised on replay (they raised identically when first
    logged, so the original run never applied them either)."""
    gap: bool = False
    """Replay stopped early: a record anchored *above* the current version
    means the chain is broken past this point."""
    truncated_tail: bool = False
    """The WAL scan dropped torn/corrupt bytes (never replayed)."""
    recovered_version: int = 0
    verified: bool = False
    notes: list[str] = field(default_factory=list)


class DurabilityManager:
    """One durable home (WAL + snapshots) for one network's cost state.

    Construction opens (and, after a crash, repairs) the journal, so simply
    building a manager over an existing directory is the first half of
    restart; :meth:`recover` is the second.  ``opener`` and ``kill`` are
    forwarded to both stores for fault injection and crash-point testing.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "always",
        opener: Callable[[str, str], object] | None = None,
        kill: KillHook | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.journal = DiskJournal(self.directory / "wal", fsync=fsync, opener=opener, kill=kill)
        self.snapshots = SnapshotStore(self.directory / "snapshots", opener=opener, kill=kill)
        self._kill = kill
        self._replaying = False

    def _hit(self, point: str) -> None:
        if self._kill is not None:
            self._kill(point)

    # ------------------------------------------------------------------ #
    # Logging (the TrafficFeed hook)
    # ------------------------------------------------------------------ #
    def log_traffic(
        self, updates: Iterable["TrafficUpdate"], base_version: int
    ) -> None:
        """Write-ahead log one raw traffic batch (called by the feed,
        inside its lock, *before* the batch is applied)."""
        if self._replaying:
            return
        self.journal.append(JournalRecord.traffic(base_version, updates))

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def snapshot(self, network: "RoadNetwork") -> Path:
        """Atomically snapshot the current cost state at version *v*, then
        prune the WAL through the oldest retained snapshot's version once
        :data:`~repro.service.durability.snapshot.RETAIN` are retained.

        The WAL first rotates to a segment starting at *v*, so the records
        the snapshot covers are whole files.

        Must not race a concurrent ``feed.apply`` (call it from a feed
        subscriber, a quiesced maintenance window, or the serving loop's
        own thread): the version stamp and the array export must describe
        the same instant.
        """
        compiled = network.compiled()
        version = network.cost_version
        arrays = compiled.costs.export_arrays()
        stamp = topology_stamp(compiled.topology)
        self.journal.rotate(version)
        path = self.snapshots.save(version, arrays, stamp)
        self._hit("snapshot.pre-prune")
        oldest = self.snapshots.oldest_version()
        if oldest is not None:
            self.journal.prune_through(oldest)
        return path

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def recover(
        self,
        network: "RoadNetwork",
        feed: "TrafficFeed | None" = None,
    ) -> RecoveryReport:
        """Restore snapshot + replay WAL suffix onto ``network``.

        ``network`` is expected to be freshly loaded from the model file
        (pristine costs, ``cost_version`` as pickled).  Traffic records
        replay through ``feed`` (one is built if not given) so resolution
        semantics — absolute → scale → delta against current state — are
        byte-for-byte the production ones.  The recovered state must pass
        the runtime coherence check or :class:`RecoveryError` is raised.

        A recovery that skipped a damaged snapshot and replayed without a gap
        publishes the recovered state as a fresh snapshot, so the fallback it
        used is not left as the only one.
        """
        from ...traffic.feed import TrafficFeed

        report = RecoveryReport()
        self._replaying = True
        try:
            compiled = network.compiled()
            stamp = topology_stamp(compiled.topology)
            invalid_before = self.snapshots.invalid_skipped
            state = self.snapshots.latest(topology=stamp)
            if state is not None:
                try:
                    network.restore_cost_state(state.arrays, state.cost_version)
                except Exception as exc:
                    # CRC-valid but semantically unusable arrays (the network
                    # validates shape/finiteness/positivity on adoption).
                    raise RecoveryError(
                        f"snapshot {state.path} failed adoption: {exc}"
                    ) from exc
                report.snapshot_version = state.cost_version
                report.snapshot_path = str(state.path)
            elif self.snapshots.invalid_skipped:
                report.notes.append(
                    "no usable snapshot (damaged or topology mismatch); "
                    "replaying the full journal from the model's base state"
                )
            scan = self.journal.read_records()
            report.truncated_tail = scan.truncated
            if scan.truncated:
                report.notes.append(
                    f"journal tail dropped {scan.dropped_bytes} torn/corrupt bytes"
                )
            feed = feed if feed is not None else TrafficFeed(network)
            for record in scan.records:
                current = network.cost_version
                if record.base_version < current:
                    report.skipped += 1
                    continue
                if record.base_version > current:
                    report.gap = True
                    report.notes.append(
                        f"replay gap: record anchored at {record.base_version} "
                        f"but network is at {current}; suffix not replayable"
                    )
                    break
                if record.kind != RECORD_TRAFFIC:
                    report.failed += 1
                    continue
                try:
                    feed.apply(record.payload)
                except Exception:  # noqa: BLE001 - failed identically pre-crash
                    report.failed += 1
                    continue
                report.replayed += 1
            report.recovered_version = network.cost_version
            self._verify(network, report)
            if self.snapshots.invalid_skipped > invalid_before and not report.gap:
                self.snapshot(network)
                report.notes.append(f"published a fresh snapshot at {network.cost_version}")
            return report
        finally:
            self._replaying = False

    @staticmethod
    def _verify(network: "RoadNetwork", report: RecoveryReport) -> None:
        from ...analysis import check_cost_coherence

        try:
            check_cost_coherence(network, strict=True)
        except Exception as exc:
            raise RecoveryError(
                f"recovered cost state failed coherence verification: {exc}"
            ) from exc
        report.verified = True

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
