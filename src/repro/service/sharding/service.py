"""The :class:`ShardedRoutingService` facade — the RoutingService API over a
multi-process worker pool.

The coordinator owns the master :class:`~repro.network.road_network.
RoadNetwork`, exports its compiled snapshot into one shared-memory segment,
partitions the vertices into shards, and spawns ``replicas`` worker
processes per shard, each linked to the coordinator by one TCP socket
(loopback here; the wire is the multi-node one).  Queries are dispatched to
the *primary* replica of the worker set owning the *source* vertex
(cross-shard destinations are the worker's problem — it stitches through
the boundary overlay); when the primary dies or loses its link, the batch
fails over to a healthy replica, and optionally a *hedge* copy goes to a
second replica after a p95-derived delay.

Live traffic is applied to the master network through a
:class:`~repro.traffic.TrafficFeed`, patched into the shared segment, and
broadcast to every worker as a versioned :class:`CostDiff` so they
self-evict stale caches and acknowledge the new version (the ack round-trip
is the ``broadcast_lag_s`` statistic).  A worker reconnecting behind the
current version is sent :class:`ResyncRequired` and adopts the shared
segment wholesale — the one catch-up path, the same one boot and recovery
use (replaying the missed diffs one by one measured slower than a resync
for every gap above one version).

Liveness beyond process handles comes from Ping/Pong heartbeats tracked by
a :class:`~repro.service.sharding.replication.HeartbeatMonitor` — a worker
whose probe goes unanswered has its link severed, which routes it through
the same reconnect/failover machinery as a real network fault.

Lifecycle: the coordinator is the segment *owner* — :meth:`close` shuts the
pool down, then closes and unlinks the segment.  Use the service as a
context manager so no test or bench path can leak a segment.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Sequence

from ...exceptions import ConfigurationError, ShardingError
from ...network.compiled import shm
from ...routing.costs import FEATURE_EDGE_ATTRIBUTES
from ...routing.path import Path
from ...traffic.feed import TrafficFeed
from ..api import RouteRequest, RouteResponse
from ..cache import CacheStats
from ..resilience import HedgePolicy
from ..stats import ServiceStats, StatsAccumulator
from .plan import ShardPlan, build_shard_plan
from .pool import ShardWorkerPool
from .protocol import (
    DEFAULT_ENGINES,
    CostDiff,
    Fatal,
    Hello,
    Ping,
    Pong,
    ResyncRequired,
    RouteResults,
    RouteWork,
    VersionAck,
    WorkerPayload,
)
from .replication import HeartbeatMonitor

if TYPE_CHECKING:  # pragma: no cover
    from ...network.road_network import RoadNetwork, VertexId
    from ...traffic.updates import TrafficUpdate, TrafficUpdateResult
    from ..durability import DurabilityManager, RecoveryReport

_COST_ATTRIBUTES = tuple(FEATURE_EDGE_ATTRIBUTES.values())


class _PendingTask:
    """One in-flight :class:`RouteWork` batch and its dispatch state."""

    __slots__ = ("shard_id", "worker_id", "work", "submitted_at", "hedge_worker")

    def __init__(
        self, shard_id: int, worker_id: int, work: RouteWork, submitted_at: float
    ) -> None:
        self.shard_id = shard_id
        self.worker_id = worker_id
        self.work = work
        self.submitted_at = submitted_at
        self.hedge_worker: int | None = None


class ShardedRoutingService:
    """Sharded multi-process serving with the ``RoutingService`` surface.

    ``route`` / ``route_many`` / ``stats`` / ``close`` keep their in-process
    semantics; ``apply_traffic`` replaces the TrafficFeed wiring (the
    coordinator must own the write path to keep segment and broadcast in
    lockstep).  The coordinator is intentionally single-threaded per
    operation — calls are serialized by one lock.
    """

    def __init__(
        self,
        network: "RoadNetwork",
        shard_count: int = 2,
        *,
        cache_size: int = 512,
        boot_timeout_s: float = 120.0,
        request_timeout_s: float = 60.0,
        traffic_timeout_s: float = 30.0,
        transport: str = "tcp",
        replicas: int = 1,
        hedge: bool = False,
        hedge_delay_s: float | None = None,
        heartbeat_interval_s: float = 2.0,
        heartbeat_timeout_s: float = 10.0,
        durability: "DurabilityManager | None" = None,
    ) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        # Not an option: sockets are the only wire.  The keyword survives
        # because benchmarks/e2e/systems.py (frozen for the PR that removed
        # the queue transport) still passes transport="tcp"; it goes when a
        # benchmark PR drops that argument.
        if transport != "tcp":
            raise ConfigurationError(
                f"transport={transport!r}: the multiprocessing-queue transport "
                "was removed; workers are always linked over TCP sockets"
            )
        self._network = network
        self._engine_features = dict(DEFAULT_ENGINES)
        self._default_engine = DEFAULT_ENGINES[0][0]
        self._request_timeout_s = request_timeout_s
        self._traffic_timeout_s = traffic_timeout_s
        self._replicas = replicas
        self._hedge_enabled = hedge
        self._hedge_delay_s = hedge_delay_s
        self._hedge_policy = HedgePolicy()
        self._heartbeat_interval_s = heartbeat_interval_s
        self._heartbeat_timeout_s = heartbeat_timeout_s
        self._lock = threading.RLock()
        self._stats = StatsAccumulator()
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
        worker_count = self._plan.shard_count * replicas
        try:
            # Worker w serves shard w % shard_count, so with replicas == 1
            # worker ids and shard ids coincide (the historical layout) and
            # replica k of shard s is worker s + k * shard_count.
            payloads = [
                WorkerPayload(
                    worker_id=worker_id,
                    shard_id=worker_id % self._plan.shard_count,
                    plan=self._plan,
                    network=network,
                    spec=self._segment.spec,
                    engines=DEFAULT_ENGINES,
                    default_engine=self._default_engine,
                    cache_size=cache_size,
                )
                for worker_id in range(worker_count)
            ]
            self._pool = ShardWorkerPool(payloads, boot_timeout_s=boot_timeout_s)
            self._pool.start()
        except BaseException:
            if self._pool is not None:
                self._pool.close()
            self._segment.close()
            self._segment.unlink()
            self._segment = None
            raise

        self._monitor = HeartbeatMonitor(range(worker_count))
        self._last_heartbeat = time.monotonic()
        self._task_counter = 0
        self._results: dict[int, RouteResults] = {}
        self._acks: dict[int, int] = {}
        self._shard_requests: dict[int, int] = {}
        self._cross_shard = 0
        self._in_shard = 0
        self._broadcast_lag_s = 0.0
        self._failovers = 0
        self._hedged = 0
        self._hedge_wins = 0
        self._worker_resyncs = 0
        self._reconnected: set[int] = set()
        self._crash_worker: int | None = None
        self._crash_diff_shards: tuple[int, ...] = ()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def plan(self) -> ShardPlan:
        return self._plan

    @property
    def segment_name(self) -> str | None:
        """The shared segment's OS name (``None`` after close)."""
        return self._segment.name if self._segment is not None else None

    def engines(self) -> list[str]:
        return list(self._engine_features)

    @property
    def default_engine(self) -> str:
        return self._default_engine

    @property
    def replicas(self) -> int:
        return self._replicas

    # ------------------------------------------------------------------ #
    # Replica sets
    # ------------------------------------------------------------------ #
    def replicas_of(self, shard_id: int) -> list[int]:
        """The worker ids serving ``shard_id``, lowest (default primary)
        first."""
        return [
            shard_id + k * self._plan.shard_count for k in range(self._replicas)
        ]

    def _primary(self, shard_id: int) -> int:
        """The lowest-index *healthy* replica (falling back to the lowest
        alive, then the lowest outright — someone must take the blame for a
        timeout even when the whole set is down)."""
        assert self._pool is not None
        candidates = self.replicas_of(shard_id)
        for worker_id in candidates:
            if self._pool.healthy(worker_id):
                return worker_id
        for worker_id in candidates:
            if self._pool.alive()[worker_id]:
                return worker_id
        return candidates[0]

    def _standby(self, shard_id: int, not_worker: int) -> int | None:
        """A healthy replica other than ``not_worker`` (failover/hedge
        target), or ``None`` when the set has no spare."""
        assert self._pool is not None
        for worker_id in self.replicas_of(shard_id):
            if worker_id != not_worker and self._pool.healthy(worker_id):
                return worker_id
        return None

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def route(self, request: RouteRequest, engine: str | None = None) -> RouteResponse:
        """Answer one request (dispatched to its source shard's worker)."""
        return self.route_many([request], engine=engine)[0]

    def route_between(
        self,
        source: "VertexId",
        destination: "VertexId",
        *,
        engine: str | None = None,
        **request_fields: object,
    ) -> RouteResponse:
        request = RouteRequest(
            source=source, destination=destination, **request_fields  # type: ignore[arg-type]
        )
        return self.route(request, engine=engine)

    def route_many(
        self,
        requests: Sequence[RouteRequest] | Iterable[RouteRequest],
        engine: str | None = None,
    ) -> list[RouteResponse]:
        """Answer a batch, preserving order.

        Requests are partitioned by source shard and shipped as one
        :class:`RouteWork` per involved worker; a worker found dead while
        its batch is pending is restarted (it resyncs from the shared
        segment) and the batch is resubmitted — with any chaos crash hook
        stripped, so a crash test observes exactly one crash.
        """
        batch = list(requests)
        if not batch:
            return []
        name = engine or self._default_engine
        if name not in self._engine_features:
            raise ConfigurationError(
                f"no engine named {name!r} is registered "
                f"(have: {sorted(self._engine_features)})"
            )
        with self._lock:
            self._ensure_open()
            return self._route_many_locked(batch, name)

    def _route_many_locked(
        self, batch: list[RouteRequest], name: str
    ) -> list[RouteResponse]:
        assert self._pool is not None
        responses: list[RouteResponse | None] = [None] * len(batch)
        by_shard: dict[int, list[int]] = {}
        for position, request in enumerate(batch):
            shard_id = self._plan.shard_of(request.source)
            if shard_id is None:
                responses[position] = RouteResponse(
                    request=request,
                    path=None,
                    engine=name,
                    error=f"VertexNotFoundError: vertex {request.source!r} "
                    "is not in the network",
                )
                continue
            by_shard.setdefault(shard_id, []).append(position)

        pending: dict[int, _PendingTask] = {}
        for shard_id, positions in by_shard.items():
            self._task_counter += 1
            crash_at = None
            if self._crash_worker == shard_id:
                crash_at = 0
                self._crash_worker = None
            work = RouteWork(
                task_id=self._task_counter,
                engine=name,
                requests=tuple(batch[position] for position in positions),
                positions=tuple(positions),
                crash_at=crash_at,
            )
            worker_id = self._primary(shard_id)
            if not self._pool.submit(worker_id, work):
                # Link down at dispatch: fail straight over to a
                # standby; a still-undelivered batch heals in the wait loop.
                standby = self._standby(shard_id, worker_id)
                if standby is not None and self._pool.submit(standby, work):
                    worker_id = standby
                    self._failovers += 1
            pending[work.task_id] = _PendingTask(
                shard_id, worker_id, work, time.monotonic()
            )
            self._shard_requests[shard_id] = (
                self._shard_requests.get(shard_id, 0) + len(positions)
            )

        deadline = time.monotonic() + self._request_timeout_s
        while pending and time.monotonic() < deadline:
            self._pump(timeout_s=0.05)
            for task_id in list(pending):
                result = self._results.pop(task_id, None)
                if result is None:
                    continue
                task = pending.pop(task_id)
                self._hedge_policy.record(time.monotonic() - task.submitted_at)
                if task.hedge_worker is not None and result.worker_id == task.hedge_worker:
                    self._hedge_wins += 1
                self._fold_results(batch, result, responses)
            if pending:
                self._heal_and_resubmit(pending)
                self._maybe_hedge(pending)
        # Whatever is left belongs to no pending batch (a hedge loser, the
        # answer to a resend, one that outlived its call's deadline): calls
        # are serialized, so nothing will ever collect it.
        self._results.clear()

        for task in pending.values():
            for request, position in zip(task.work.requests, task.work.positions):
                responses[position] = RouteResponse(
                    request=request,
                    path=None,
                    engine=name,
                    error=f"ShardingError: shard {task.shard_id} worker did not "
                    f"answer within {self._request_timeout_s:.0f}s",
                )

        final: list[RouteResponse] = []
        for position, response in enumerate(responses):
            assert response is not None
            self._stats.record(response)
            final.append(response)
        return final

    def _fold_results(
        self,
        batch: list[RouteRequest],
        result: RouteResults,
        responses: list[RouteResponse | None],
    ) -> None:
        for answer in result.answers:
            request = batch[answer.position]
            path = Path.of(answer.vertices) if answer.vertices is not None else None
            if answer.cross_shard:
                self._cross_shard += 1
            else:
                self._in_shard += 1
            responses[answer.position] = RouteResponse(
                request=request,
                path=path,
                engine=answer.engine,
                latency_s=answer.latency_s,
                cache_hit=answer.cache_hit,
                batched=True,
                error=answer.error,
            )

    def _heal_and_resubmit(self, pending: dict[int, _PendingTask]) -> None:
        """Fail pending batches over to healthy replicas, resubmit to
        reconnected links, and restart dead workers — in that order, so a
        replica set absorbs a primary's death without waiting out a respawn.
        """
        assert self._pool is not None
        alive = self._pool.alive()
        reconnected, self._reconnected = self._reconnected, set()
        for task in pending.values():
            if task.worker_id in reconnected:
                # The link died and came back: whatever was in flight may be
                # gone, so resend (duplicate answers are last-write-wins).
                clean = replace(task.work, crash_at=None)
                task.work = clean
                self._pool.submit(task.worker_id, clean)
                continue
            if self._pool.healthy(task.worker_id):
                continue
            standby = self._standby(task.shard_id, task.worker_id)
            if standby is None:
                continue  # no spare: the restart path below (or a reconnect)
            clean = replace(task.work, crash_at=None)
            task.work = clean
            if self._pool.submit(standby, clean):
                task.worker_id = standby
                self._failovers += 1
        if all(alive):
            return
        restarted = set(self._pool.restart_dead())
        for task in pending.values():
            if task.worker_id in restarted:
                clean = replace(task.work, crash_at=None)
                task.work = clean
                self._pool.submit(task.worker_id, clean)

    def _maybe_hedge(self, pending: dict[int, _PendingTask]) -> None:
        """Duplicate slow batches to a standby replica (same ``task_id``,
        so whichever copy answers first wins and the loser is a no-op)."""
        if not self._hedge_enabled or self._replicas < 2:
            return
        assert self._pool is not None
        delay = (
            self._hedge_delay_s
            if self._hedge_delay_s is not None
            else self._hedge_policy.delay_s()
        )
        now = time.monotonic()
        for task in pending.values():
            if task.hedge_worker is not None or now - task.submitted_at < delay:
                continue
            standby = self._standby(task.shard_id, task.worker_id)
            if standby is None:
                continue
            clean = replace(task.work, crash_at=None)
            if self._pool.submit(standby, clean):
                task.hedge_worker = standby
                self._hedged += 1

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
            # Duplicates (a worker that died *after* sending, then got its
            # batch resubmitted — or a hedge's second answer) are harmless:
            # last write wins and both carry the same answers.
            self._results[message.task_id] = message
        elif isinstance(message, VersionAck):
            current = self._acks.get(message.worker_id, 0)
            self._acks[message.worker_id] = max(current, message.version)
        elif isinstance(message, Hello):
            self._on_hello(message)
        elif isinstance(message, (Pong, Fatal)):
            # Pongs already fed the monitor above; crash reports are
            # handled through process liveness.
            pass

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
        if self._heartbeat_interval_s is None or self._heartbeat_interval_s <= 0:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < self._heartbeat_interval_s:
            return
        self._last_heartbeat = now
        self._heartbeat_round()

    def heartbeat(self) -> list[int]:
        """Probe every worker now; returns the ids that crossed the
        liveness deadline (their links are severed so the reconnect /
        failover machinery owns recovery)."""
        with self._lock:
            self._ensure_open()
            return self._heartbeat_round()

    def _heartbeat_round(self) -> list[int]:
        assert self._pool is not None
        probe = Ping(sequence=self._monitor.next_sequence())
        for worker_id in range(self._pool.size):
            if self._pool.submit(worker_id, probe):
                self._monitor.note_ping(worker_id)
        suspects = self._monitor.suspects(self._heartbeat_timeout_s)
        for worker_id in suspects:
            # A wedged worker or half-open link: sever it so recovery flows
            # through the reconnect path instead of trusting a zombie.
            self._pool.drop_connection(worker_id)
        return suspects

    # ------------------------------------------------------------------ #
    # Live traffic
    # ------------------------------------------------------------------ #
    def apply_traffic(
        self,
        updates: Iterable["TrafficUpdate"],
        *,
        wait: bool = True,
        timeout_s: float | None = None,
    ) -> "TrafficUpdateResult":
        """Apply one live-traffic batch across the whole deployment.

        Master network first (transactional), then the shared segment
        (late attachers and restarted workers resync from it), then the
        versioned :class:`CostDiff` broadcast.  With ``wait=True`` the call
        returns only after every worker acknowledged the new version — the
        barrier the cost-identity guarantees are stated under; the measured
        apply-to-last-ack time is exported as ``broadcast_lag_s``.
        """
        with self._lock:
            self._ensure_open()
            assert self._pool is not None and self._segment is not None
            base_version = self._network.cost_version
            result = self._feed.apply(updates)
            self._stats.record_traffic(
                len(result.touched_edges), 0, result.cost_version
            )
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
            changes = tuple(
                (
                    key,
                    tuple(
                        (attr, float(getattr(self._network.edge(*key), attr)))
                        for attr in _COST_ATTRIBUTES
                    ),
                )
                for key in sorted(result.touched_edges)
            )
            crash_workers = tuple(
                self._primary(shard_id) for shard_id in self._crash_diff_shards
            )
            self._crash_diff_shards = ()
            diff = CostDiff(
                version=result.cost_version,
                base_version=base_version,
                changes=changes,
                crash_workers=crash_workers,
            )
            self._pool.broadcast(diff)
            if wait:
                self._await_acks(
                    result.cost_version,
                    self._traffic_timeout_s if timeout_s is None else timeout_s,
                )
                self._broadcast_lag_s = time.perf_counter() - started
            return result

    def _await_acks(self, version: int, timeout_s: float) -> None:
        assert self._pool is not None
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if all(
                self._acks.get(worker_id, 0) >= version
                for worker_id in range(self._pool.size)
            ):
                return
            self._pump(timeout_s=0.05)
            if not all(self._pool.alive()):
                # A worker that died mid-broadcast resyncs from the segment
                # at boot, which carries this version already.
                for worker_id in self._pool.restart_dead():
                    self._acks[worker_id] = version
        raise ShardingError(
            f"traffic broadcast v{version} was not acknowledged by all "
            f"workers within {timeout_s:.0f}s"
        )

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def snapshot(self) -> None:
        """Take an atomic durability snapshot of the current cost state.

        Serialized with ``apply_traffic`` by the coordinator lock, so the
        version stamp and the exported arrays always describe the same
        instant.  Covered WAL segments are pruned afterwards.
        """
        with self._lock:
            self._ensure_open()
            if self._durability is None:
                raise ConfigurationError(
                    "this ShardedRoutingService was built without a "
                    "durability manager"
                )
            self._durability.snapshot(self._network)

    def recover(self, *, timeout_s: float | None = None) -> "RecoveryReport":
        """Coordinator-restart recovery: restore disk state, resync workers.

        Call on a freshly-constructed service whose network was just loaded
        from the model file and whose ``durability`` manager points at the
        pre-crash directory.  The durable state (newest snapshot + WAL
        suffix) is replayed into the master network through the normal feed
        machinery, the whole shared segment is re-patched at the recovered
        version, and every worker is ordered to resync from the segment.
        Returns the durability layer's :class:`RecoveryReport` once all
        workers have acknowledged the recovered version.
        """
        with self._lock:
            self._ensure_open()
            assert self._pool is not None and self._segment is not None
            if self._durability is None:
                raise ConfigurationError(
                    "this ShardedRoutingService was built without a "
                    "durability manager"
                )
            report = self._durability.recover(self._network, self._feed)
            graph = self._network.compiled()
            version = self._network.cost_version
            self._segment.patch(
                graph, list(range(graph.topology.edge_count)), version
            )
            self._worker_resyncs += self._pool.broadcast(
                ResyncRequired(version=version)
            )
            self._await_acks(
                version,
                self._traffic_timeout_s if timeout_s is None else timeout_s,
            )
            return report

    # ------------------------------------------------------------------ #
    # Monitoring / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> ServiceStats:
        """A frozen snapshot including the sharding counters."""
        with self._lock:
            return self._stats.snapshot(
                CacheStats(hits=0, misses=0, size=0, max_size=0),
                shards=self._plan.shard_count,
                shard_requests=dict(self._shard_requests),
                cross_shard_requests=self._cross_shard,
                in_shard_requests=self._in_shard,
                broadcast_lag_s=self._broadcast_lag_s,
                worker_restarts=self._pool.restarts if self._pool is not None else 0,
                replicas=self._replicas,
                failovers=self._failovers,
                hedged_requests=self._hedged,
                hedge_wins=self._hedge_wins,
                heartbeats_sent=self._monitor.pings_sent,
                heartbeat_timeouts=self._monitor.timeouts,
                worker_resyncs=self._worker_resyncs,
            )

    def reset_stats(self) -> None:
        with self._lock:
            self._stats.reset()
            self._shard_requests = {}
            self._cross_shard = 0
            self._in_shard = 0

    def inject_crash(self, shard_id: int, phase: str = "work") -> None:
        """Chaos hook: hard-kill the shard's primary worker at a chosen
        point (test-only; recovery must serve identical results).

        ``phase="work"`` crashes it on its next :class:`RouteWork` batch;
        ``phase="diff"`` crashes it on the next :class:`CostDiff` broadcast
        *between receipt and ack* — the window the traffic barrier must
        survive.
        """
        if phase not in ("work", "diff"):
            raise ConfigurationError(
                f"unknown crash phase {phase!r} (expected 'work' or 'diff')"
            )
        with self._lock:
            if phase == "work":
                self._crash_worker = shard_id
            else:
                self._crash_diff_shards = (*self._crash_diff_shards, shard_id)

    def drop_connection(self, worker_id: int) -> bool:
        """Chaos hook: sever one worker's link — a network fault, not a
        crash; the worker redials and re-identifies on its own.  Returns
        whether a live link existed."""
        with self._lock:
            self._ensure_open()
            assert self._pool is not None
            return self._pool.drop_connection(worker_id)

    def partition_worker(self, worker_id: int) -> bool:
        """Chaos hook: black-hole one worker — link severed and every
        re-dial refused — until :meth:`heal_worker`.  The worker keeps
        redialing with backoff; once healed, its reconnect Hello gets it a
        resync order for whatever broadcasts it missed."""
        with self._lock:
            self._ensure_open()
            assert self._pool is not None
            return self._pool.partition_worker(worker_id)

    def heal_worker(self, worker_id: int) -> None:
        """Close a :meth:`partition_worker` partition."""
        with self._lock:
            self._ensure_open()
            assert self._pool is not None
            self._pool.heal_worker(worker_id)

    def _ensure_open(self) -> None:
        if self._closed:
            raise ShardingError("ShardedRoutingService is closed")

    def close(self, timeout_s: float = 5.0) -> bool:
        """Shut the pool down, then close and unlink the segment.

        Idempotent.  The unlink happens *after* the workers exited (their
        attached views keep the memory alive regardless, but unlinking last
        keeps restart-during-close races impossible).
        """
        with self._lock:
            if self._closed:
                return True
            self._closed = True
            clean = True
            if self._pool is not None:
                clean = self._pool.close(timeout_s=timeout_s)
                self._pool = None
            if self._segment is not None:
                self._segment.close()
                self._segment.unlink()
                self._segment = None
            return clean

    def __enter__(self) -> "ShardedRoutingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedRoutingService(shards={self._plan.shard_count}, closed={self._closed})"
        )
