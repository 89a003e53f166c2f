"""Seeded disk faults for the durability tests.

:func:`faulty_disk` builds a :class:`FaultyDisk`: a wrapper for file-like
objects that stands in as the ``opener`` hook of a
:class:`~repro.service.durability.journal.DiskJournal` /
:class:`~repro.service.durability.snapshot.SnapshotStore`, with seeded
short writes, ``EIO`` / ``ENOSPC`` errors, and crash-before/after-fsync
schedules.  Its :class:`FaultyFile` buffers writes in memory and only pushes
them to the real file on flush — modeling the OS page cache, so a
``crash-before-fsync`` genuinely *loses* unflushed bytes the way a power
cut would, which an in-process crash simulation otherwise cannot do.

The schedules are the ones :class:`~repro.service.faults.FaultInjector`
draws engine faults from: one child generator of the injector seed each,
or an explicit ``script`` of action names.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.service.faults import FaultCounters, FaultInjector, _Schedule

from .crash import SimulatedCrash


@dataclass
class DiskCounters(FaultCounters):
    """:class:`FaultCounters` plus the disk-only sums."""

    short_writes: int = 0
    disk_errors: int = 0
    """Injected ``EIO`` / ``ENOSPC`` write failures."""
    disk_crashes: int = 0
    """Injected crash-before/after-fsync events (power-cut simulation)."""
    lost_bytes: int = 0
    """Bytes dropped from the simulated page cache by crash-before-fsync
    (plus the unwritten suffix of short writes)."""


def faulty_disk(injector: FaultInjector, **schedule) -> "FaultyDisk":
    """A seeded (or scripted) disk-fault layer; ``schedule`` holds
    :class:`FaultyDisk`'s keywords.

    The returned :class:`FaultyDisk` is callable with ``(path, mode)`` so it
    can be handed directly to an ``opener=`` hook.  Write faults and flush
    faults draw from independent child generators of ``injector`` so the
    write schedule never perturbs the crash schedule.
    """
    return FaultyDisk(
        write_rng=injector._child_rng(), flush_rng=injector._child_rng(), **schedule
    )


class FaultyDisk:
    """Factory for :class:`FaultyFile` wrappers sharing one fault schedule.

    Callable as an ``opener(path, mode)`` (opens the real file unbuffered
    underneath).  All files opened through one ``FaultyDisk`` consume the
    same two schedules — one per-``write`` (short / ``EIO`` / ``ENOSPC``),
    one per-``flush`` (crash before / after fsync) — so a multi-file
    component like the segmented journal sees one coherent, replayable
    fault sequence.  Short writes and ``EIO`` have seeded rates; every
    action can be scripted.
    """

    def __init__(
        self,
        *,
        write_rng: np.random.Generator,
        flush_rng: np.random.Generator,
        short_rate: float = 0.0,
        eio_rate: float = 0.0,
        write_script: Sequence[str] | None = None,
        flush_script: Sequence[str] | None = None,
    ) -> None:
        self._writes = _Schedule(
            write_rng,
            write_script,
            (
                ("short", short_rate, "short_writes"),
                ("eio", eio_rate, "disk_errors"),
                ("enospc", 0.0, "disk_errors"),
            ),
        )
        self._flushes = _Schedule(
            flush_rng,
            flush_script,
            (
                ("crash-before-fsync", 0.0, "disk_crashes"),
                ("crash-after-fsync", 0.0, "disk_crashes"),
            ),
        )
        self._writes.counters = DiskCounters()
        self._flushes.counters = DiskCounters()

    @property
    def write_counters(self) -> DiskCounters:
        return self._writes.counters

    @property
    def flush_counters(self) -> DiskCounters:
        return self._flushes.counters

    def __call__(self, path: str, mode: str) -> "FaultyFile":
        # Opener hook: ownership moves to the caller, which closes the
        # wrapping FaultyFile.
        return FaultyFile(open(path, mode, buffering=0), self)



class FaultyFile:
    """A binary file wrapper with a simulated page cache and fault schedule.

    ``write`` appends to an in-memory buffer (the "page cache"); ``flush``
    pushes the buffer to the real file.  Faults:

    * ``short`` — a seeded prefix of the data reaches the buffer, then
      ``OSError(EIO)`` is raised (a partial write the caller sees fail);
    * ``eio`` / ``enospc`` — nothing is written, ``OSError`` raised;
    * ``crash-before-fsync`` — the buffer is *discarded* and
      :class:`~support.crash.SimulatedCrash` raised:
      power died before the data left the page cache;
    * ``crash-after-fsync`` — the buffer is pushed, flushed, and fsynced,
      *then* the crash is raised: the data is durable but the writer never
      learned so.

    ``fileno`` forwards to the real file, so an ``os.fsync(f.fileno())``
    after a clean ``flush`` behaves exactly like production code expects.
    """

    def __init__(self, inner, disk: FaultyDisk) -> None:
        self.inner = inner
        self._disk = disk
        self._buffer = bytearray()
        self._closed = False

    # -- write path ------------------------------------------------------ #
    def write(self, data) -> int:
        data = bytes(data)
        writes = self._disk._writes
        action = writes.next()
        if action == "short":
            # The prefix length is a seeded draw from the *write* stream so
            # replays tear the frame at the same byte every time.
            with writes.lock:
                cut = int(writes.rng.integers(0, len(data))) if data else 0
                writes.counters.lost_bytes += len(data) - cut
            self._buffer.extend(data[:cut])
            raise OSError(errno.EIO, f"simulated short write ({cut}/{len(data)} bytes)")
        if action == "eio":
            raise OSError(errno.EIO, "simulated I/O error")
        if action == "enospc":
            raise OSError(errno.ENOSPC, "simulated: no space left on device")
        self._buffer.extend(data)
        return len(data)

    def _push(self) -> None:
        if self._buffer:
            self.inner.write(bytes(self._buffer))
            self._buffer.clear()
        self.inner.flush()

    def flush(self) -> None:
        flushes = self._disk._flushes
        action = flushes.next()
        if action == "crash-before-fsync":
            with flushes.lock:
                flushes.counters.lost_bytes += len(self._buffer)
            self._buffer.clear()
            raise SimulatedCrash("disk.crash-before-fsync")
        if action == "crash-after-fsync":
            self._push()
            os.fsync(self.inner.fileno())
            raise SimulatedCrash("disk.crash-after-fsync")
        self._push()

    # -- passthrough ----------------------------------------------------- #
    def fileno(self) -> int:
        return self.inner.fileno()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._push()
        finally:
            self.inner.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
