"""The :class:`ShardCoordinator` — a multi-process worker pool behind the
``RoutingEngine`` protocol.

The coordinator owns the master :class:`~repro.network.road_network.
RoadNetwork`, exports its compiled snapshot into one shared-memory segment,
partitions the vertices into shards and spawns one worker process per shard,
each linked to the coordinator by one TCP socket (loopback here; the wire is
the multi-node one).  A request is dispatched to the worker owning its
*source* (cross-shard destinations are the worker's problem — it stitches
through the boundary overlay).  A worker found dead while its batch is
pending is restarted and the batch resubmitted; a link that drops and comes
back gets its pending batch resent.  A shard that has not answered within
:data:`REQUEST_TIMEOUT_S` yields a ``TransientEngineError`` in each of its
slots — an engine-health failure the serving gate's breaker counts and its
degraded serving covers.  :meth:`ShardCoordinator.engine` hands out the
:class:`ShardEngine` a :class:`~repro.service.RoutingService` registers.

Live traffic is applied to the master network through the coordinator's
:class:`~repro.traffic.TrafficFeed`, patched into the shared segment, and broadcast to every worker as a
versioned :class:`CostDiff` the workers acknowledge (the ack round-trip is
the ``broadcast_lag_s`` statistic).  A worker reconnecting behind the current
version is sent :class:`ResyncRequired` and adopts the shared segment
wholesale — the one catch-up path, the same one boot and recovery use.

A worker whose heartbeat probe goes unanswered has its link severed, which
routes it through the same reconnect machinery as a real network fault.

Serving, traffic, durability and the network-fault hooks are serialized by
one lock.
The coordinator is the segment *owner* — :meth:`ShardCoordinator.close`
shuts the pool down, then closes and unlinks the segment; use it as a context
manager so no test or bench path can leak a segment.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import TYPE_CHECKING, Iterable, Sequence

from ...exceptions import ConfigurationError, ShardingError
from ...network.compiled import shm
from ...routing.costs import FEATURE_EDGE_ATTRIBUTES
from ...routing.path import Path
from ...traffic.feed import TrafficFeed
from ..api import RouteRequest, RouteResponse
from .plan import ShardPlan, build_shard_plan
from .pool import ShardWorkerPool
from .protocol import (
    DEFAULT_ENGINES,
    CostDiff,
    Hello,
    Ping,
    ResyncRequired,
    RouteResults,
    RouteWork,
    VersionAck,
    WorkerPayload,
)
from .replication import HeartbeatMonitor

if TYPE_CHECKING:  # pragma: no cover
    from ...network.road_network import RoadNetwork
    from ...traffic.updates import TrafficUpdate, TrafficUpdateResult
    from ..durability import DurabilityManager, RecoveryReport

#: Seconds a route call waits for its shards before failing their slots.
REQUEST_TIMEOUT_S = 60.0
#: Seconds a traffic or recovery barrier waits for every worker's ack.
TRAFFIC_TIMEOUT_S = 30.0
#: Seconds between heartbeat rounds (sent from inside the serving loops).
HEARTBEAT_INTERVAL_S = 2.0
#: Seconds a probe may go unanswered before the worker's link is severed.
HEARTBEAT_TIMEOUT_S = 10.0

_COST_ATTRIBUTES = tuple(FEATURE_EDGE_ATTRIBUTES.values())


class ShardCoordinator:
    """Plan, segment, worker pool and the message pump between them."""

    def __init__(
        self,
        network: "RoadNetwork",
        shard_count: int = 2,
        *,
        durability: "DurabilityManager | None" = None,
    ) -> None:
        self._network = network
        self._lock = threading.RLock()
        self._feed = TrafficFeed(network)
        self._plan: ShardPlan = build_shard_plan(network, shard_count)
        # The durability manager (caller-owned; the coordinator never closes
        # it) write-ahead logs every raw batch through the feed.
        self._durability = durability
        if durability is not None:
            self._feed.attach_journal(durability)

        self._pool: ShardWorkerPool | None = None
        self._segment: shm.SharedGraphSegment | None = shm.export_graph(
            network.compiled(), cost_version=network.cost_version
        )
        try:
            payloads = [
                WorkerPayload(
                    worker_id=shard_id,
                    shard_id=shard_id,
                    plan=self._plan,
                    network=network,
                    spec=self._segment.spec,
                )
                for shard_id in range(self._plan.shard_count)
            ]
            self._pool = ShardWorkerPool(payloads)
            self._pool.start()
        except BaseException:
            if self._pool is not None:
                self._pool.close()
            self._segment.close()
            self._segment.unlink()
            self._segment = None
            raise

        self._monitor = HeartbeatMonitor(range(self._plan.shard_count))
        self._last_heartbeat = time.monotonic()
        self._task_counter = 0
        self._results: dict[int, RouteResults] = {}
        self._acks: dict[int, int] = {}
        self._shard_requests: dict[int, int] = {}
        self._cross_shard = 0
        self._in_shard = 0
        self._broadcast_lag_s = 0.0
        self._worker_resyncs = 0
        self._reconnected: set[int] = set()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def plan(self) -> ShardPlan:
        return self._plan

    @property
    def network(self) -> "RoadNetwork":
        """The master network every worker mirrors."""
        return self._network

    @property
    def segment_name(self) -> str | None:
        """The shared segment's OS name (``None`` after close)."""
        return self._segment.spec.segment_name if self._segment is not None else None

    def engine(self, name: str) -> "ShardEngine":
        """The engine answering with the workers' ``name`` cost feature."""
        features = dict(DEFAULT_ENGINES)
        if name not in features:
            raise ConfigurationError(
                f"no engine named {name!r} on shard workers (have: {sorted(features)})"
            )
        return ShardEngine(self, name)

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(
        self, requests: Sequence[RouteRequest], engine: str, *, batched: bool
    ) -> list[RouteResponse]:
        """Answer ``requests`` with the named worker engine, in order: one
        :class:`RouteWork` per source shard involved."""
        with self._lock:
            self._open_pool()
            responses: list[RouteResponse | None] = [None] * len(requests)
            pending: dict[int, tuple[int, RouteWork]] = {}
            by_shard: dict[int, list[int]] = {}
            for position, request in enumerate(requests):
                shard_id = self._plan.shard_of(request.source)
                if shard_id is None:
                    responses[position] = RouteResponse(
                        request=request,
                        path=None,
                        engine=engine,
                        error=f"VertexNotFoundError: vertex {request.source!r} "
                        "is not in the network",
                    )
                    continue
                by_shard.setdefault(shard_id, []).append(position)

            for shard_id, positions in by_shard.items():
                self._task_counter += 1
                work = RouteWork(
                    task_id=self._task_counter,
                    engine=engine,
                    requests=tuple(requests[position] for position in positions),
                    positions=tuple(positions),
                )
                # A link down at dispatch heals in the wait loop (resent on
                # reconnect, or failed at the timeout).
                self._pool.submit(shard_id, work)
                pending[work.task_id] = (shard_id, work)
                self._shard_requests[shard_id] = (
                    self._shard_requests.get(shard_id, 0) + len(positions)
                )

            deadline = time.monotonic() + REQUEST_TIMEOUT_S
            while pending and time.monotonic() < deadline:
                self._pump(timeout_s=0.05)
                for task_id in list(pending):
                    result = self._results.pop(task_id, None)
                    if result is not None:
                        del pending[task_id]
                        self._fold_results(requests, result, responses, batched)
                if pending:
                    self._resubmit(pending)
            # Whatever is left belongs to no pending batch (the answer to a
            # resend, one that outlived its call's deadline): calls are
            # serialized, so nothing will ever collect it.
            self._results.clear()

            for shard_id, work in pending.values():
                for request, position in zip(work.requests, work.positions):
                    responses[position] = RouteResponse(
                        request=request,
                        path=None,
                        engine=engine,
                        error=f"TransientEngineError: shard {shard_id} worker did "
                        f"not answer within {REQUEST_TIMEOUT_S:g}s",
                    )
            return responses  # type: ignore[return-value]

    def _fold_results(
        self,
        requests: Sequence[RouteRequest],
        result: RouteResults,
        responses: list[RouteResponse | None],
        batched: bool,
    ) -> None:
        for answer in result.answers:
            if answer.cross_shard:
                self._cross_shard += 1
            else:
                self._in_shard += 1
            responses[answer.position] = RouteResponse(
                request=requests[answer.position],
                path=Path.of(answer.vertices) if answer.vertices is not None else None,
                engine=answer.engine,
                latency_s=answer.latency_s,
                batched=batched,
                error=answer.error,
            )

    def _resubmit(self, pending: dict[int, tuple[int, RouteWork]]) -> None:
        """Resend pending batches to reconnected links and to restarted
        workers (whatever was in flight may be gone; a duplicate answer is
        last-write-wins)."""
        assert self._pool is not None
        reconnected, self._reconnected = self._reconnected, set()
        restarted = set(self._pool.restart_dead())
        for shard_id, work in pending.values():
            if shard_id in reconnected or shard_id in restarted:
                self._pool.submit(shard_id, work)

    def _pump(self, timeout_s: float) -> None:
        """Drain one coordinator-bound message into the routing tables."""
        assert self._pool is not None
        self._maybe_heartbeat()
        try:
            message = self._pool.recv(timeout_s=timeout_s)
        except queue.Empty:
            return
        worker_id = getattr(message, "worker_id", None)
        if isinstance(worker_id, int):
            self._monitor.note_message(worker_id)
        if isinstance(message, RouteResults):
            self._results[message.task_id] = message
        elif isinstance(message, VersionAck):
            current = self._acks.get(message.worker_id, 0)
            self._acks[message.worker_id] = max(current, message.version)
        elif isinstance(message, Hello):
            self._on_hello(message)
        # Pongs already fed the monitor above; crash reports (Fatal) are
        # handled through process liveness.

    def _on_hello(self, hello: Hello) -> None:
        """A reconnect re-identification (boot Hellos are consumed by the
        pool's handshake): mark the worker for pending-work resubmission
        and, when it is behind, order it to resync from the segment.  A send
        that fails means the link died again; the next Hello asks again."""
        assert self._pool is not None
        self._reconnected.add(hello.worker_id)
        current = self._network.cost_version
        if hello.cost_version < current and self._pool.submit(
            hello.worker_id, ResyncRequired(version=current)
        ):
            self._worker_resyncs += 1

    # ------------------------------------------------------------------ #
    # Heartbeats
    # ------------------------------------------------------------------ #
    def _maybe_heartbeat(self) -> None:
        now = time.monotonic()
        if now - self._last_heartbeat < HEARTBEAT_INTERVAL_S:
            return
        self._last_heartbeat = now
        self._heartbeat_round()

    def heartbeat(self) -> list[int]:
        """Probe every worker now; returns the ids that crossed the
        liveness deadline (their links are severed so the reconnect
        machinery owns recovery)."""
        with self._lock:
            self._open_pool()
            return self._heartbeat_round()

    def _heartbeat_round(self) -> list[int]:
        assert self._pool is not None
        probe = Ping(sequence=self._monitor.next_sequence())
        for worker_id in range(self._pool.size):
            if self._pool.submit(worker_id, probe):
                self._monitor.note_ping(worker_id)
        suspects = self._monitor.suspects(HEARTBEAT_TIMEOUT_S)
        for worker_id in suspects:
            # A wedged worker or half-open link: sever it so recovery flows
            # through the reconnect path instead of trusting a zombie.
            self._pool.drop_connection(worker_id)
        return suspects

    # ------------------------------------------------------------------ #
    # Live traffic
    # ------------------------------------------------------------------ #
    def apply_traffic(
        self, updates: Iterable["TrafficUpdate"], *, wait: bool = True
    ) -> "TrafficUpdateResult":
        """Apply one live-traffic batch across the whole deployment.

        Master network first (transactional), then the shared segment (late attachers and restarted workers resync
        from it), then the versioned :class:`CostDiff` broadcast.  With
        ``wait=True`` the call returns only after every worker acknowledged
        the new version — the barrier the cost-identity guarantees are
        stated under; the measured apply-to-last-ack time is exported as
        ``broadcast_lag_s``.
        """
        with self._lock:
            self.ensure_open()
            assert self._pool is not None and self._segment is not None
            base_version = self._network.cost_version
            result = self._feed.apply(updates)
            if not result.touched_edges:
                return result
            graph = self._network.compiled()
            slot_of = graph.topology.slot_of
            self._segment.patch(
                graph,
                [slot_of[key] for key in result.touched_edges],
                result.cost_version,
            )
            started = time.perf_counter()
            edge = self._network.edge
            diff = CostDiff(
                version=result.cost_version,
                base_version=base_version,
                changes=tuple(
                    (key, tuple((a, float(getattr(edge(*key), a))) for a in _COST_ATTRIBUTES))
                    for key in sorted(result.touched_edges)
                ),
            )
            self._pool.broadcast(diff)
            if wait:
                self._await_acks(result.cost_version)
                self._broadcast_lag_s = time.perf_counter() - started
            return result

    def _await_acks(self, version: int) -> None:
        assert self._pool is not None
        deadline = time.monotonic() + TRAFFIC_TIMEOUT_S
        while time.monotonic() < deadline:
            if all(
                self._acks.get(worker_id, 0) >= version
                for worker_id in range(self._pool.size)
            ):
                return
            self._pump(timeout_s=0.05)
            # A worker that died mid-broadcast resyncs from the segment at
            # boot, which carries this version already.
            for worker_id in self._pool.restart_dead():
                self._acks[worker_id] = version
        raise ShardingError(
            f"traffic broadcast v{version} was not acknowledged by all "
            f"workers within {TRAFFIC_TIMEOUT_S:g}s"
        )

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def _require_durability(self) -> "DurabilityManager":
        if self._durability is None:
            raise ConfigurationError(
                "this deployment was built without a durability manager"
            )
        return self._durability

    def snapshot(self) -> None:
        """An atomic durability snapshot of the current cost state
        (serialized with :meth:`apply_traffic`, so stamp and arrays describe
        one instant); covered WAL segments are pruned afterwards."""
        with self._lock:
            self.ensure_open()
            self._require_durability().snapshot(self._network)

    def recover(self) -> "RecoveryReport":
        """Coordinator-restart recovery on a fresh coordinator whose
        ``durability`` manager points at the pre-crash directory: replay the
        newest snapshot + WAL suffix into the master network through the
        feed, re-patch the whole segment, order every worker to resync, and
        return the :class:`RecoveryReport` once all of them acknowledged."""
        with self._lock:
            self.ensure_open()
            assert self._pool is not None and self._segment is not None
            report = self._require_durability().recover(self._network, self._feed)
            graph = self._network.compiled()
            version = self._network.cost_version
            self._segment.patch(
                graph, list(range(graph.topology.edge_count)), version
            )
            self._worker_resyncs += self._pool.broadcast(
                ResyncRequired(version=version)
            )
            self._await_acks(version)
            return report

    # ------------------------------------------------------------------ #
    # Monitoring
    # ------------------------------------------------------------------ #
    def counters(self) -> dict[str, object]:
        """The sharding fields of :class:`~repro.service.stats.ServiceStats`,
        and its ``cost_version`` read from the network (it moves on
        :meth:`recover` too, which reports no traffic batch to the gate)."""
        with self._lock:
            return {
                "shards": self._plan.shard_count,
                "shard_requests": dict(self._shard_requests),
                "cross_shard_requests": self._cross_shard,
                "in_shard_requests": self._in_shard,
                "broadcast_lag_s": self._broadcast_lag_s,
                "worker_restarts": self._pool.restarts if self._pool is not None else 0,
                "heartbeats_sent": self._monitor.pings_sent,
                "heartbeat_timeouts": self._monitor.timeouts,
                "worker_resyncs": self._worker_resyncs,
                "cost_version": self._network.cost_version,
            }

    def reset_counters(self) -> None:
        """Start a fresh window for the per-request counters."""
        with self._lock:
            self._shard_requests = {}
            self._cross_shard = 0
            self._in_shard = 0

    # ------------------------------------------------------------------ #
    # Network faults (the hub's accept path consults the partition set)
    # ------------------------------------------------------------------ #
    def drop_connection(self, worker_id: int) -> bool:
        """Sever one worker's link — a network fault, not a crash; the
        worker redials and re-identifies on its own.  Returns whether a live
        link existed."""
        with self._lock:
            return self._open_pool().drop_connection(worker_id)

    def partition_worker(self, worker_id: int) -> bool:
        """Black-hole one worker — link severed and every re-dial refused —
        until :meth:`heal_worker`.  The worker keeps redialing with backoff;
        once healed, its reconnect Hello gets it a resync order for whatever
        broadcasts it missed."""
        with self._lock:
            return self._open_pool().partition_worker(worker_id)

    def heal_worker(self, worker_id: int) -> None:
        """Close a :meth:`partition_worker` partition."""
        with self._lock:
            self._open_pool().heal_worker(worker_id)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def ensure_open(self) -> None:
        """Raise :class:`ShardingError` once :meth:`close` has run."""
        if self._closed:
            raise ShardingError("the sharded deployment is closed")

    def _open_pool(self) -> ShardWorkerPool:
        """The worker pool of an open deployment (call under the lock)."""
        self.ensure_open()
        assert self._pool is not None
        return self._pool

    def close(self) -> bool:
        """Shut the pool down, then close and unlink the segment.

        Idempotent; ``False`` when a worker had to be terminated.  The
        unlink happens *after* the workers exited (their attached views keep
        the memory alive regardless, but unlinking last keeps
        restart-during-close races impossible).
        """
        with self._lock:
            if self._closed:
                return True
            self._closed = True
            clean = True
            if self._pool is not None:
                clean = self._pool.close()
                self._pool = None
            if self._segment is not None:
                self._segment.close()
                self._segment.unlink()
                self._segment = None
            return clean

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ShardEngine:
    """One worker engine name as a :class:`~repro.service.engine.RoutingEngine`
    (with ``route_batch``) over a shared :class:`ShardCoordinator`.

    ``route`` answers ``batched=False`` and ``route_batch`` answers every
    request it is given ``batched=True``, so a service counts the two
    exactly as it does for an in-process engine.
    """

    def __init__(self, coordinator: ShardCoordinator, name: str) -> None:
        self.name = name
        self._coordinator = coordinator

    @property
    def network(self) -> "RoadNetwork":
        return self._coordinator.network

    def route(self, request: RouteRequest) -> RouteResponse:
        return self._coordinator.serve((request,), self.name, batched=False)[0]

    def route_batch(self, requests: Sequence[RouteRequest]) -> list[RouteResponse]:
        return self._coordinator.serve(requests, self.name, batched=True)
