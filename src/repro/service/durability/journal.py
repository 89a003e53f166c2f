"""A segmented, CRC-framed, append-only write-ahead log on disk.

The :class:`DiskJournal` is the persistence layer beneath the serving
stack's live-traffic path: every :class:`~repro.traffic.updates.
TrafficUpdate` batch is logged *before* it is applied (write-ahead) — one
record per batch, inputs only.  Records are opaque :class:`JournalRecord`
envelopes — the journal neither interprets nor orders them beyond append
order.

On-disk format: one ``wal-<start>.seg`` file per segment, named by the
cost version the segment starts at (the first one is labelled 0)::

    ┌────────────┬────────────┬──────────────────────┐
    │ length  u32│ crc32   u32│ payload (pickle)     │  repeated
    └────────────┴────────────┴──────────────────────┘

Each frame is length-prefixed and CRC-checked, so a torn tail — the frame a
crash cut short mid-write — is *detected*, truncated away on the next open,
and never replayed; a CRC mismatch or unpicklable payload anywhere marks the
rest of the log unreplayable (a broken chain must not be bridged) and the
suffix is discarded.

A new segment starts only at a snapshot: just before
:class:`~repro.service.durability.manager.DurabilityManager` publishes the
snapshot at version *v*, it asks :meth:`DiskJournal.rotate` to seal the
active segment and open ``wal-<v>.seg``.  Every record in a segment is then
anchored below the start of the next one, so a snapshot at version *o*
covers every segment that is followed by one starting at or below *o*, and
:meth:`DiskJournal.prune_through` deletes those, deciding from the file
names alone.

Durability is governed by the ``fsync`` policy, one of two:

* ``"always"`` — fsync after every append: an acknowledged batch survives
  power loss (the bar the crash tests hold recovery to);
* ``"interval"`` — fsync every :data:`FSYNC_INTERVAL` appends (and on
  rotation and close): bounded loss window, near-in-memory append latency
  (the serving policy of the benchmarks).

Segment files are opened **unbuffered** (the default opener passes
``buffering=0``), so with a plain opener every byte handed to ``write`` is
visible to a same-process recovery scan immediately.  The ``opener`` hook
lets a test stand in a file wrapper that buffers internally and drops its
buffer at a simulated crash — the buffered-data-loss failure mode of a real
power cut.  The ``kill`` hook threads
:mod:`~repro.service.durability.killpoints` through every dangerous instant
for deterministic crash testing.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from ...exceptions import ReproError
from .killpoints import KillHook

if TYPE_CHECKING:  # pragma: no cover
    from ...traffic.updates import TrafficUpdate

#: Accepted fsync policies, strictest first.
FSYNC_POLICIES: tuple[str, ...] = ("always", "interval")

#: Appends between fsyncs under the ``"interval"`` policy.
FSYNC_INTERVAL = 32

_HEADER = struct.Struct(">II")
#: Upper bound on one record's payload; a corrupt length field must not
#: trigger a multi-gigabyte allocation during the recovery scan.
_MAX_RECORD_BYTES = 64 * 1024 * 1024

#: The record kind the serving stack writes (the journal itself is agnostic).
RECORD_TRAFFIC = "traffic"


class JournalError(ReproError):
    """The write-ahead log could not be opened, written, or rotated."""


@dataclass(frozen=True)
class JournalRecord:
    """One durable log entry: a kind tag, a version anchor, and a payload.

    ``base_version`` is the network cost version the payload applies *on
    top of* — replay applies a record only when the recovering network sits
    exactly at its base (earlier records are already absorbed, a gap means
    the chain is broken).  The payload is whatever the writer needs to
    replay: a tuple of :class:`TrafficUpdate` for write-ahead traffic
    batches.
    """

    kind: str
    base_version: int
    payload: object

    @classmethod
    def traffic(
        cls, base_version: int, updates: Iterable["TrafficUpdate"]
    ) -> "JournalRecord":
        """A write-ahead record of one not-yet-applied traffic batch."""
        return cls(
            kind=RECORD_TRAFFIC, base_version=int(base_version), payload=tuple(updates)
        )


@dataclass
class JournalScan:
    """What a full read-back of the journal found on disk."""

    records: list[JournalRecord] = field(default_factory=list)
    truncated: bool = False
    """``True`` when any segment stopped early (torn tail or corruption) —
    the returned records are the longest replayable prefix, never a
    superset."""
    dropped_bytes: int = 0
    """Bytes past the last valid frame across all segments."""


def _encode_frame(record: JournalRecord) -> bytes:
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > _MAX_RECORD_BYTES:
        raise JournalError(
            f"journal record of {len(payload)} bytes exceeds the "
            f"{_MAX_RECORD_BYTES}-byte frame cap"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _scan_frames(buffer: bytes) -> tuple[list[JournalRecord], int, bool]:
    """Decode the longest valid frame prefix of one segment's bytes.

    Returns ``(records, valid_end, clean)`` where ``valid_end`` is the byte
    offset just past the last intact frame and ``clean`` reports whether the
    whole buffer decoded.  Any defect — short header, short payload, CRC
    mismatch, oversized length, unpicklable payload — ends the scan; the
    caller decides whether that is a repairable torn tail (last segment) or
    a poisoned chain (anything earlier).
    """
    records: list[JournalRecord] = []
    offset = 0
    total = len(buffer)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(buffer, offset)
        if length > _MAX_RECORD_BYTES:
            break
        end = offset + _HEADER.size + length
        if end > total:
            break
        payload = buffer[offset + _HEADER.size : end]
        if zlib.crc32(payload) != crc:
            break
        try:
            record = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any unpickling defect poisons the frame
            break
        if not isinstance(record, JournalRecord):
            break
        records.append(record)
        offset = end
    return records, offset, offset == total


def _default_opener(path: str, mode: str):
    """Unbuffered binary file handles (see module docstring), shared with
    :class:`~repro.service.durability.snapshot.SnapshotStore`."""
    # Ownership moves to the caller: DiskJournal stores the handle on a
    # `self.` attribute and closes it in close()/rotation; SnapshotStore.save
    # context-manages it at its single write site.
    # reprolint: disable-next-line=RL011
    return open(path, mode, buffering=0)


def _fsync_dir(directory: Path) -> None:
    """Make directory entries (created/renamed/deleted files) durable.

    The one directory fsync of the package: snapshots and saved models
    publish through it too."""
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    fd = os.open(directory, flags)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class DiskJournal:
    """Segmented append-only WAL with CRC framing and torn-tail repair.

    Opening a journal scans every segment: the final segment's torn tail
    (if any) is truncated in place, a mid-chain defect quarantines the
    entire suffix (later segments are deleted — a broken chain must never
    be bridged), and appends resume exactly after the last intact record.
    All methods are thread-safe; appends are serialized by one lock, which
    is what makes ``(base_version, append order)`` a replayable total
    order.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "always",
        opener: Callable[[str, str], object] | None = None,
        kill: KillHook | None = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise JournalError(
                f"unknown fsync policy {fsync!r}; choose one of {FSYNC_POLICIES}"
            )
        self.directory = Path(directory)
        self.fsync_policy = fsync
        self._opener = opener or _default_opener
        self._kill = kill
        self._lock = threading.Lock()
        self._active = None
        self._active_start = 0
        self._appends_since_sync = 0
        self._closed = False
        self.records_appended = 0
        self.syncs = 0
        self.torn_records_dropped = 0
        self.discarded_segments = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        self._open_and_repair()

    # ------------------------------------------------------------------ #
    # Open / repair
    # ------------------------------------------------------------------ #
    def _segment_path(self, start: int) -> Path:
        return self.directory / f"wal-{start:012d}.seg"

    def segment_paths(self) -> list[Path]:
        """Existing segment files, oldest first (names sort by start)."""
        return sorted(self.directory.glob("wal-*.seg"))

    @staticmethod
    def _segment_start(path: Path) -> int:
        return int(path.stem.split("-", 1)[1])

    def _open_and_repair(self) -> None:
        segments = self.segment_paths()
        broken_at: int | None = None
        for position, path in enumerate(segments):
            _, valid_end, clean = _scan_frames(path.read_bytes())
            if not clean:
                # Repair: drop the defective suffix of this segment...
                os.truncate(path, valid_end)
                self.torn_records_dropped += 1
                if position < len(segments) - 1:
                    broken_at = position
                break
        if broken_at is not None:
            # ... and quarantine everything after a mid-chain defect: those
            # records sit past a gap and must never be replayed.
            for path in segments[broken_at + 1 :]:
                path.unlink()
                self.discarded_segments += 1
            _fsync_dir(self.directory)
            segments = segments[: broken_at + 1]
        if segments:
            self._active_start = self._segment_start(segments[-1])
        else:
            self._segment_path(0).touch()
            _fsync_dir(self.directory)
        self._active = self._opener(str(self._segment_path(self._active_start)), "ab")

    # ------------------------------------------------------------------ #
    # Appends
    # ------------------------------------------------------------------ #
    def _hit(self, point: str) -> None:
        if self._kill is not None:
            self._kill(point)

    def _sync_active(self) -> None:
        assert self._active is not None
        self._active.flush()
        os.fsync(self._active.fileno())
        self._appends_since_sync = 0
        self.syncs += 1

    def append(self, record: JournalRecord) -> int:
        """Durably append one record; returns the record's append index.

        The fsync policy decides when the bytes are forced to disk; the
        frame itself is written in two pieces (header, then payload) so the
        ``journal.append.mid-write`` kill point models a frame the crash
        cut in half — exactly the torn tail :meth:`read_records` must
        detect and drop.
        """
        frame = _encode_frame(record)
        with self._lock:
            self._ensure_open()
            assert self._active is not None
            self._hit("journal.append.pre-write")
            if self._kill is None:
                # One syscall on the hot path; the two-piece write below
                # exists only to give the mid-write kill point a real torn
                # frame to leave behind.
                self._active.write(frame)
            else:
                self._active.write(frame[: _HEADER.size])
                self._hit("journal.append.mid-write")
                self._active.write(frame[_HEADER.size :])
            self._appends_since_sync += 1
            self.records_appended += 1
            self._hit("journal.append.pre-fsync")
            if self.fsync_policy == "always" or self._appends_since_sync >= FSYNC_INTERVAL:
                self._sync_active()
            self._hit("journal.append.post-fsync")
            return self.records_appended

    def rotate(self, version: int) -> None:
        """Seal the active segment and start ``wal-<version>.seg`` (durably),
        just before a snapshot at ``version`` is published.  A segment that
        already starts there or above (left by a crashed snapshot) stays
        active; the kill points fire either way."""
        with self._lock:
            self._ensure_open()
            assert self._active is not None
            self._hit("journal.rotate.pre-create")
            if version > self._active_start:
                self._sync_active()
                self._active.close()
                self._active_start = version
                self._active = self._opener(str(self._segment_path(version)), "ab")
            self._hit("journal.rotate.post-create")
            _fsync_dir(self.directory)

    # ------------------------------------------------------------------ #
    # Read-back / retention
    # ------------------------------------------------------------------ #
    def read_records(self) -> JournalScan:
        """Every replayable record on disk, oldest first.

        The scan validates each frame; it stops at the first defect per
        segment and — when the defect is not in the final segment — refuses
        every later segment, mirroring the open-time repair.  The live
        append handle is flushed first so a writer can read its own log.
        """
        scan = JournalScan()
        with self._lock:
            if self._active is not None and not self._closed:
                self._active.flush()
            segments = self.segment_paths()
            for position, path in enumerate(segments):
                data = path.read_bytes()
                records, valid_end, clean = _scan_frames(data)
                scan.records.extend(records)
                if not clean:
                    scan.truncated = True
                    scan.dropped_bytes += len(data) - valid_end
                    for later in segments[position + 1 :]:
                        scan.dropped_bytes += later.stat().st_size
                    break
        return scan

    def prune_through(self, version: int) -> int:
        """Delete every segment followed by one that starts at or below
        ``version``: its records are inside a snapshot at ``version``.  The
        deleted segments are a prefix of the chain, never the active one;
        returns how many."""
        removed = 0
        with self._lock:
            self._ensure_open()
            segments = self.segment_paths()
            for path, successor in zip(segments, segments[1:]):
                if self._segment_start(successor) > version:
                    break
                path.unlink()
                removed += 1
            if removed:
                _fsync_dir(self.directory)
        return removed

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_open(self) -> None:
        if self._closed:
            raise JournalError("this DiskJournal is closed")

    def close(self) -> None:
        """Flush, fsync and close; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._active is not None:
                self._sync_active()
                self._active.close()
                self._active = None

    def __enter__(self) -> "DiskJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
