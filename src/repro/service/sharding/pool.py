"""The spawn-based worker pool behind a :class:`ShardCoordinator`.

One process per worker; the spawn carries only its worker id and the
:class:`~repro.service.sharding.transport.TcpHub` address, and everything
else flows over TCP sockets through that hub (the multi-node wire, run here
over loopback).  A worker dials in with an :class:`Attach`, which the pool
answers with its :class:`WorkerPayload`, and boots from that.  The spawn
pipe stays tiny, so ``Process.start()`` returns without waiting for the
child to finish importing, and the workers import side by side.
``spawn`` — not ``fork`` — so workers never inherit the coordinator's
thread/lock state and behave identically on every platform.

The pool is deliberately dumb about routing: it moves protocol messages,
tracks liveness (process handles *and* link state), and restarts
dead workers (a restarted worker re-runs the full boot protocol, so it
resyncs cost state from the shared segment rather than trusting anything in
this process).  Request semantics — resubmission, response assembly,
version barriers — live in the coordinator.
"""

from __future__ import annotations

import multiprocessing
import queue
import time
from typing import TYPE_CHECKING, Sequence

from ...exceptions import ShardingError
from .protocol import Attach, Fatal, Hello, Shutdown
from .transport import HANDSHAKE_TIMEOUT_S, TcpHub
from .worker import _worker_entry

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import WorkerPayload

#: Grace given to one orderly worker exit before escalating to terminate().
_JOIN_TIMEOUT_S = 5.0


class ShardWorkerPool:
    """Lifecycle and transport for a set of shard worker processes."""

    def __init__(
        self,
        payloads: Sequence["WorkerPayload"],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if not payloads:
            raise ShardingError("a worker pool needs at least one worker payload")
        self._payloads = list(payloads)
        self._ctx = multiprocessing.get_context("spawn")
        self._hub = TcpHub(host, port)
        self._processes: list[multiprocessing.process.BaseProcess | None] = [
            None for _ in self._payloads
        ]
        self._stash: list[object] = []
        self._restarts = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return len(self._payloads)

    @property
    def restarts(self) -> int:
        """Workers respawned after dying (crash chaos, OOM kills...)."""
        return self._restarts

    def start(self) -> None:
        """Spawn every worker and wait out the boot handshakes."""
        if self._started:
            return
        self._started = True
        for worker_id in range(self.size):
            self._spawn(worker_id)
        self._await_hello(set(range(self.size)))

    def _spawn(self, worker_id: int) -> None:
        process = self._ctx.Process(
            target=_worker_entry,
            args=(worker_id, self._hub.address),
            name=f"shard-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        self._processes[worker_id] = process

    def _await_hello(self, expected: set[int]) -> None:
        """Answer boot Attaches with payloads and collect boot Hellos; stash
        unrelated traffic for recv()."""
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT_S
        waiting = set(expected)
        while waiting:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardingError(
                    f"workers {sorted(waiting)} did not finish booting within "
                    f"{HANDSHAKE_TIMEOUT_S:.0f}s"
                )
            try:
                message = self._hub.recv(timeout_s=min(0.5, remaining))
            except queue.Empty:
                dead = [w for w in waiting if not self._is_alive(w)]
                if dead:
                    raise ShardingError(
                        f"workers {dead} died during boot without a report"
                    ) from None
                continue
            if isinstance(message, Attach) and message.worker_id in waiting:
                # Answer every Attach: a re-dialed link asks again.
                self._hub.send(message.worker_id, self._payloads[message.worker_id])
            elif isinstance(message, Fatal) and message.worker_id in waiting:
                raise ShardingError(
                    f"worker {message.worker_id} failed to boot: {message.error}"
                )
            elif isinstance(message, Hello) and message.worker_id in waiting:
                waiting.discard(message.worker_id)
            else:
                self._stash.append(message)

    def _is_alive(self, worker_id: int) -> bool:
        process = self._processes[worker_id]
        return process is not None and process.is_alive()

    def alive(self) -> list[bool]:
        return [self._is_alive(worker_id) for worker_id in range(self.size)]

    def drop_connection(self, worker_id: int) -> bool:
        """Chaos hook: sever the worker's link without touching the
        process.  Returns ``False`` for an absent link."""
        return self._hub.drop_connection(worker_id)

    def partition_worker(self, worker_id: int) -> bool:
        """Chaos hook: black-hole the worker — link severed and re-dials
        refused — until :meth:`heal_worker`."""
        return self._hub.partition_worker(worker_id)

    def heal_worker(self, worker_id: int) -> None:
        """Close a :meth:`partition_worker` partition."""
        self._hub.heal_worker(worker_id)

    def restart_dead(self) -> list[int]:
        """Respawn every dead worker; returns the restarted ids.

        The respawned process re-runs the whole boot protocol (payload over
        its link, segment attach, topology check, segment resync), so
        whatever state died with its predecessor is rebuilt from the
        authoritative shared segment.
        """
        if self._closed:
            raise ShardingError("worker pool is closed")
        dead: list[int] = []
        for worker_id in range(self.size):
            if not self._is_alive(worker_id):
                process = self._processes[worker_id]
                if process is not None:
                    process.join(timeout=_JOIN_TIMEOUT_S)
                self._spawn(worker_id)
                dead.append(worker_id)
        if dead:
            self._restarts += len(dead)
            self._await_hello(set(dead))
        return dead

    def close(self, timeout_s: float = _JOIN_TIMEOUT_S) -> bool:
        """Orderly shutdown; idempotent; returns False on terminate().

        Shutdown is broadcast to every link, and until the deadline every
        worker that dials in afterwards — one still importing when the
        broadcast went out, or one re-dialing a dropped link — is answered
        with Shutdown too.  Workers get ``timeout_s`` to drain and exit
        (closing their segment views on the way out), and stragglers are
        terminated.
        """
        if self._closed:
            return True
        self._closed = True
        self._hub.broadcast(Shutdown())
        deadline = time.monotonic() + timeout_s
        while any(self.alive()) and (remaining := deadline - time.monotonic()) > 0:
            try:
                message = self._hub.recv(timeout_s=min(0.05, remaining))
            except queue.Empty:
                continue
            if isinstance(message, (Attach, Hello)):
                self._hub.send(message.worker_id, Shutdown())
        clean = True
        for process in self._processes:
            if process is None:
                continue
            if process.is_alive():
                clean = False
                process.terminate()
            process.join(timeout=_JOIN_TIMEOUT_S)
        self._hub.close()
        return clean

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def submit(self, worker_id: int, message: object) -> bool:
        """Deliver one message to one worker's link.

        Returns whether the hub took it: ``False`` when the worker has no
        live link — the caller's liveness and reconnect machinery owns what
        happens next.
        """
        if self._closed:
            raise ShardingError("worker pool is closed")
        return self._hub.send(worker_id, message)

    def broadcast(self, message: object) -> int:
        """Deliver one message to every reachable worker; returns the count."""
        if self._closed:
            raise ShardingError("worker pool is closed")
        return self._hub.broadcast(message)

    def recv(self, timeout_s: float = 1.0) -> object:
        """The next worker-to-coordinator message (stashed first).

        Raises ``queue.Empty`` on timeout — callers own the retry loop and
        its liveness checks.
        """
        if self._stash:
            return self._stash.pop(0)
        return self._hub.recv(timeout_s=timeout_s)
