"""Worker liveness accounting for the shard coordinator.

:class:`HeartbeatMonitor` is the Ping/Pong bookkeeping the
:class:`~repro.service.sharding.coordinator.ShardCoordinator` composes.
The coordinator stamps every inbound message (pongs, route results, acks —
any traffic proves life) and records when it last probed each worker; a
worker is *suspect* once a probe has gone unanswered past the timeout.
Process-handle liveness (``pool.alive``) catches same-host crashes
instantly; the heartbeat path is what catches the failures a process handle
cannot see — a wedged loop, a severed TCP link, a partitioned node.
Clock-injectable so the chaos suite drives expiry deterministically.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

Clock = Callable[[], float]


class HeartbeatMonitor:
    """Per-worker liveness from message timestamps and probe bookkeeping.

    The monitor never sends anything itself — the coordinator owns the
    transport.  It answers one question: *has this worker proven life since
    I last probed it?*  :meth:`suspects` lists workers whose newest probe
    is older than ``timeout_s`` and unanswered by any later message.
    """

    def __init__(self, worker_ids: Iterable[int], *, clock: Clock = time.monotonic) -> None:
        self._clock = clock
        now = clock()
        self._last_seen: dict[int, float] = {w: now for w in worker_ids}
        self._last_ping_at: dict[int, float] = {}
        self._sequence = 0
        self._pings_sent = 0
        self._timeouts = 0

    @property
    def pings_sent(self) -> int:
        return self._pings_sent

    @property
    def timeouts(self) -> int:
        """Times a worker crossed the unanswered-probe deadline (each
        crossing counts once; recovery re-arms the counter)."""
        return self._timeouts

    def next_sequence(self) -> int:
        """Reserve the sequence number for one outgoing probe round."""
        self._sequence += 1
        return self._sequence

    def note_ping(self, worker_id: int) -> None:
        """One probe went out to ``worker_id`` just now."""
        self._pings_sent += 1
        # Only arm a new deadline when no probe is already outstanding:
        # re-probing a silent worker must not keep pushing its deadline out.
        last_seen = self._last_seen.get(worker_id, 0.0)
        pending = self._last_ping_at.get(worker_id)
        if pending is None or pending < last_seen:
            self._last_ping_at[worker_id] = self._clock()

    def note_message(self, worker_id: int) -> None:
        """Any inbound message from the worker proves it alive."""
        if worker_id in self._last_seen or worker_id in self._last_ping_at:
            self._last_seen[worker_id] = self._clock()

    def is_suspect(self, worker_id: int, timeout_s: float) -> bool:
        """An unanswered probe older than ``timeout_s`` marks the worker."""
        pending = self._last_ping_at.get(worker_id)
        if pending is None or pending < self._last_seen.get(worker_id, 0.0):
            return False
        return self._clock() - pending >= timeout_s

    def suspects(self, timeout_s: float) -> list[int]:
        """Workers past their probe deadline (counts each fresh crossing)."""
        out = []
        for worker_id in sorted(self._last_seen):
            if self.is_suspect(worker_id, timeout_s):
                out.append(worker_id)
                # Re-arm: one timeout is counted per unanswered probe, and
                # the probe timestamp moves forward so the next suspects()
                # call reports the worker again only after a fresh deadline.
                self._timeouts += 1
                self._last_ping_at[worker_id] = self._clock()
        return out

