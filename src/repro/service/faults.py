"""Deterministic fault injection for chaos-testing the serving stack.

A :class:`FaultInjector` wraps a :class:`~repro.service.engine.RoutingEngine`
or a file with a *seeded* schedule of latency spikes, raised
:class:`~repro.exceptions.TransientEngineError`\\ s and failing writes.
Every random decision comes from a per-wrapper ``np.random.Generator``
derived from the injector seed (in the style of the seeded condition grids
of SNIPPETS.md Snippet 3), so a chaos run is exactly replayable: the same
seed produces the same fault sequence, the same breaker trips, and the same
shed / degraded counters — in tests and in CI.

Two wrapper kinds, one schedule core (:class:`_Schedule`) under both:

* :meth:`FaultInjector.engine` — a :class:`FaultyEngine` that, per call,
  may sleep (latency spike) and/or raise a ``TransientEngineError`` before
  delegating.  It deliberately does **not** offer the optional
  ``route_batch``, so a seeded schedule stays one draw per request.
* :meth:`FaultInjector.disk` — a :class:`FaultyDisk` that wraps file-like
  objects (or stands in as the ``opener`` hook of a
  :class:`~repro.service.durability.journal.DiskJournal` /
  :class:`~repro.service.durability.snapshot.SnapshotStore`) with seeded
  short writes, ``EIO`` / ``ENOSPC`` errors, and crash-before/after-fsync
  schedules.  Its :class:`FaultyFile` buffers writes in memory and only
  pushes them to the real file on flush — modeling the OS page cache, so a
  ``crash-before-fsync`` genuinely *loses* unflushed bytes the way a power
  cut would, which an in-process crash simulation otherwise cannot do.

Instead of probabilities, an explicit ``script`` (sequence of action names,
cycled) pins the exact failure pattern — the breaker state-transition tests
are written against scripts.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..exceptions import TransientEngineError
from .api import RouteRequest, RouteResponse

if TYPE_CHECKING:  # pragma: no cover
    from .engine import RoutingEngine


@dataclass
class FaultCounters:
    """Mutable per-wrapper accounting (thread-safe via the wrapper lock)."""

    calls: int = 0
    injected_errors: int = 0
    injected_spikes: int = 0
    short_writes: int = 0
    disk_errors: int = 0
    """Injected ``EIO`` / ``ENOSPC`` write failures."""
    disk_crashes: int = 0
    """Injected crash-before/after-fsync events (power-cut simulation)."""
    lost_bytes: int = 0
    """Bytes dropped from the simulated page cache by crash-before-fsync
    (plus the unwritten suffix of short writes)."""
    actions: list[str] = field(default_factory=list)
    """Action taken per call, in order — the replayable schedule itself."""


class FaultInjector:
    """Factory for seeded faulty wrappers sharing one experiment seed.

    Each wrapper gets its own child generator (``default_rng([seed, n])``
    where ``n`` is the wrapper index), so the fault schedule of one wrapper
    is independent of how often the others are called — concurrency between
    wrappers cannot perturb replay.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._wrappers = 0
        self._lock = threading.Lock()

    def _child_rng(self) -> np.random.Generator:
        with self._lock:
            index = self._wrappers
            self._wrappers += 1
        return np.random.default_rng([self.seed, index])

    def engine(self, engine: "RoutingEngine", **schedule) -> "FaultyEngine":
        """Wrap a routing engine with a seeded (or scripted) fault schedule;
        ``schedule`` holds :class:`FaultyEngine`'s keywords."""
        return FaultyEngine(engine, rng=self._child_rng(), **schedule)

    def disk(self, **schedule) -> "FaultyDisk":
        """A seeded (or scripted) disk-fault layer for file-like objects;
        ``schedule`` holds :class:`FaultyDisk`'s keywords.

        The returned :class:`FaultyDisk` is callable with ``(path, mode)``
        so it can be handed directly to the ``opener=`` hook of
        :class:`~repro.service.durability.journal.DiskJournal` /
        :class:`~repro.service.durability.snapshot.SnapshotStore`, or wrap
        an already-open handle via :meth:`FaultyDisk.wrap`.  Write faults
        and flush faults draw from independent child generators so the
        write schedule never perturbs the crash schedule.
        """
        return FaultyDisk(
            write_rng=self._child_rng(), flush_rng=self._child_rng(), **schedule
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector(seed={self.seed}, wrappers={self._wrappers})"


class _Schedule:
    """One fault schedule: scripted actions, or seeded draws.

    ``faults`` lists ``(action, rate, counter field)`` in firing priority;
    ``"ok"`` is the action of a call nothing fires on.  :attr:`lock` guards
    :attr:`counters` and :attr:`rng` — for the wrappers' own sums and draws
    too.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        script: Sequence[str] | None,
        faults: Sequence[tuple[str, float, str]],
    ) -> None:
        self.rng = rng
        self.lock = threading.Lock()
        self.counters = FaultCounters()
        self._faults = tuple(faults)
        self._counter_of = {action: counter for action, _, counter in self._faults}
        self._script: "itertools.cycle[str] | None" = None
        if script is not None:
            valid = ("ok", *self._counter_of)
            unknown = sorted(set(script) - set(valid))
            if unknown:
                raise ValueError(
                    f"unknown fault-script action(s) {unknown}; valid: {valid}"
                )
            self._script = itertools.cycle(script)

    def next(self) -> str:
        """One action for this call — scripted, or the first rate that fires
        — appended to ``counters.actions`` and counted under its field.

        Exactly one uniform draw happens per configured rate per call —
        whether or not an earlier rate already fired — so the consumed
        randomness (and therefore the whole downstream schedule) depends
        only on the call index, never on prior outcomes.
        """
        with self.lock:
            counters = self.counters
            counters.calls += 1
            if self._script is not None:
                action = next(self._script)
            else:
                action = "ok"
                for name, rate, _ in self._faults:
                    draw = float(self.rng.random())
                    if action == "ok" and rate > 0.0 and draw < rate:
                        action = name
            counters.actions.append(action)
            if action != "ok":
                counter = self._counter_of[action]
                setattr(counters, counter, getattr(counters, counter) + 1)
            return action


class FaultyEngine:
    """A routing engine that injects scheduled latency spikes and errors.

    Satisfies the :class:`~repro.service.engine.RoutingEngine` protocol.
    ``network`` is forwarded from the wrapped engine (degraded-serving
    semantics must not change); the optional ``route_batch`` is *not*
    offered, so every request of a ``route_many`` is one ``route`` call and
    one draw of the schedule.
    """

    def __init__(
        self,
        engine: "RoutingEngine",
        *,
        rng: np.random.Generator,
        error_rate: float = 0.0,
        spike_rate: float = 0.0,
        spike_s: float = 0.005,
        script: Sequence[str] | None = None,
    ) -> None:
        self._schedule = _Schedule(
            rng,
            script,
            (("error", error_rate, "injected_errors"), ("slow", spike_rate, "injected_spikes")),
        )
        self.inner = engine
        self.name = engine.name
        self.spike_s = spike_s

    @property
    def counters(self) -> FaultCounters:
        return self._schedule.counters

    @property
    def network(self):
        """Forwarded so degraded responses can report the served cost
        version."""
        return getattr(self.inner, "network", None)

    def route(self, request: RouteRequest) -> RouteResponse:
        action = self._schedule.next()
        if action == "slow":
            time.sleep(self.spike_s)
        elif action == "error":
            raise TransientEngineError(
                f"injected fault in engine {self.name!r} "
                f"(call {self.counters.calls})"
            )
        return self.inner.route(request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultyEngine({self.inner!r}, calls={self.counters.calls})"


class FaultyDisk:
    """Factory for :class:`FaultyFile` wrappers sharing one fault schedule.

    Callable as an ``opener(path, mode)`` (opens the real file unbuffered
    underneath) and usable as :meth:`wrap` around any binary file-like
    object.  All files opened through one ``FaultyDisk`` consume the same
    two schedules — one per-``write`` (short / ``EIO`` / ``ENOSPC``), one
    per-``flush`` (crash before / after fsync) — so a multi-file component
    like the segmented journal sees one coherent, replayable fault
    sequence.
    """

    def __init__(
        self,
        *,
        write_rng: np.random.Generator,
        flush_rng: np.random.Generator,
        short_rate: float = 0.0,
        eio_rate: float = 0.0,
        enospc_rate: float = 0.0,
        crash_before_fsync_rate: float = 0.0,
        crash_after_fsync_rate: float = 0.0,
        write_script: Sequence[str] | None = None,
        flush_script: Sequence[str] | None = None,
    ) -> None:
        self._writes = _Schedule(
            write_rng,
            write_script,
            (
                ("short", short_rate, "short_writes"),
                ("eio", eio_rate, "disk_errors"),
                ("enospc", enospc_rate, "disk_errors"),
            ),
        )
        self._flushes = _Schedule(
            flush_rng,
            flush_script,
            (
                ("crash-before-fsync", crash_before_fsync_rate, "disk_crashes"),
                ("crash-after-fsync", crash_after_fsync_rate, "disk_crashes"),
            ),
        )

    @property
    def write_counters(self) -> FaultCounters:
        return self._writes.counters

    @property
    def flush_counters(self) -> FaultCounters:
        return self._flushes.counters

    def __call__(self, path: str, mode: str) -> "FaultyFile":
        # Opener hook: ownership moves to the caller, which closes the
        # wrapping FaultyFile.
        # reprolint: disable-next-line=RL011
        return self.wrap(open(path, mode, buffering=0))

    def wrap(self, inner) -> "FaultyFile":
        """Wrap an already-open binary file-like object."""
        return FaultyFile(inner, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultyDisk(writes={self.write_counters.calls}, "
            f"flushes={self.flush_counters.calls})"
        )


class FaultyFile:
    """A binary file wrapper with a simulated page cache and fault schedule.

    ``write`` appends to an in-memory buffer (the "page cache"); ``flush``
    pushes the buffer to the real file.  Faults:

    * ``short`` — a seeded prefix of the data reaches the buffer, then
      ``OSError(EIO)`` is raised (a partial write the caller sees fail);
    * ``eio`` / ``enospc`` — nothing is written, ``OSError`` raised;
    * ``crash-before-fsync`` — the buffer is *discarded* and
      :class:`~repro.service.durability.killpoints.SimulatedCrash` raised:
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
        import errno as _errno

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
            raise OSError(_errno.EIO, f"simulated short write ({cut}/{len(data)} bytes)")
        if action == "eio":
            raise OSError(_errno.EIO, "simulated I/O error")
        if action == "enospc":
            raise OSError(_errno.ENOSPC, "simulated: no space left on device")
        self._buffer.extend(data)
        return len(data)

    def _push(self) -> None:
        if self._buffer:
            self.inner.write(bytes(self._buffer))
            self._buffer.clear()
        self.inner.flush()

    def flush(self) -> None:
        from .durability.killpoints import SimulatedCrash

        flushes = self._disk._flushes
        action = flushes.next()
        if action == "crash-before-fsync":
            with flushes.lock:
                flushes.counters.lost_bytes += len(self._buffer)
            self._buffer.clear()
            raise SimulatedCrash("disk.crash-before-fsync")
        if action == "crash-after-fsync":
            self._push()
            import os as _os

            _os.fsync(self.inner.fileno())
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultyFile({self.inner!r}, buffered={len(self._buffer)})"
