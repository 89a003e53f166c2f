"""The shard worker: one spawned process serving one shard's queries.

Boot protocol (the order matters):

0. dial the coordinator's hub and send :class:`Attach`, which the pool
   answers with this worker's :class:`WorkerPayload` over the same link;
1. attach the shared segment (:func:`repro.network.compiled.shm.attach` —
   close-only lifecycle, the worker never unlinks);
2. verify the pickled network snapshot compiles to the *same* CSR topology
   the segment describes (slot-indexed patches would land on wrong edges
   otherwise);
3. read the segment's cost version, then copy its cost arrays and adopt the
   copy (:meth:`~repro.network.road_network.RoadNetwork.restore_cost_state`
   — the pickle may predate live-traffic batches); the worker serves from
   its own arrays, and the owner's later patches reach it as messages only;
4. build the :class:`~repro.service.sharding.overlay.BoundaryOverlay` and
   start answering.  The overlay builds nothing yet: a feature's boundary
   tables come with its first request, and a shard's cells — its
   sub-network bisected once more, with an overlay of their own — with its
   first in-shard pair.

Live traffic arrives as versioned :class:`CostDiff` broadcasts; a worker
whose version does not match the diff's base resyncs from the segment (the
authoritative state) instead of applying the diff, and so does one the
coordinator orders to (:class:`ResyncRequired`, sent when a worker
reconnects behind the current version) — the one catch-up path, whatever
the gap, and the same adoption step 3 is.  Either way the overlay's live
boundary tables, the cells' included, are brought to the new costs before
the acknowledgement — repaired where no cost fell, a resync's adopted state
included, searched again otherwise — so an acked version is one the next
request finds ready.
"""

from __future__ import annotations

import os
import queue
import time
from typing import TYPE_CHECKING, Mapping

from ...exceptions import NetworkError, ReproError, ShardingError
from ...network.compiled import shm
from ...routing.costs import FEATURE_EDGE_ATTRIBUTES, CostFeature, cost_function
from ...routing.dijkstra import dijkstra
from .overlay import BoundaryOverlay, CrossShardRouter
from .protocol import (
    Attach,
    CostDiff,
    Fatal,
    Hello,
    Ping,
    Pong,
    ResyncRequired,
    RouteAnswer,
    RouteResults,
    RouteWork,
    Shutdown,
    Transport,
    VersionAck,
    WorkerPayload,
)
from .transport import HANDSHAKE_TIMEOUT_S, SocketTransport

if TYPE_CHECKING:  # pragma: no cover
    from ...network.road_network import VertexId

#: How long one ``recv`` blocks before the loop re-checks its running flag.
_POLL_TIMEOUT_S = 0.2


class ShardWorker:
    """The serving loop behind one shard; transport-agnostic."""

    def __init__(self, payload: WorkerPayload, transport: Transport) -> None:
        self.payload = payload
        self.transport = transport
        self.network = payload.network
        self.view: shm.SegmentView | None = None
        self.overlay: BoundaryOverlay | None = None
        self.router: CrossShardRouter | None = None
        self.version = 0
        self._engine_features = dict(payload.engines)
        self._running = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def boot(self) -> None:
        view = shm.attach(self.payload.spec)
        try:
            graph = self.network.compiled()
            if not shm.verify_topology(graph, view):
                raise NetworkError(
                    f"worker {self.payload.worker_id}: segment "
                    f"{self.payload.spec.segment_name!r} does not match the "
                    "pickled network's CSR topology"
                )
            self.version, _ = self._adopt(view)
            self.overlay = BoundaryOverlay(self.network, self.payload.plan)
            self.router = CrossShardRouter(self.network, self.overlay)
        except BaseException:
            view.close()
            raise
        self.view = view

    def close(self) -> None:
        """Idempotent: drop the segment mapping (never unlink — the owner's
        job) and stop the loop."""
        self._running = False
        if self.view is not None:
            self.view.close()
            self.view = None

    def run(self) -> None:
        """Serve until :class:`Shutdown` (or transport teardown)."""
        self._running = True
        self.transport.send(
            Hello(
                worker_id=self.payload.worker_id,
                shard_id=self.payload.shard_id,
                pid=os.getpid(),
                cost_version=self.version,
            )
        )
        while self._running:
            try:
                message = self.transport.recv(timeout_s=_POLL_TIMEOUT_S)
            except queue.Empty:
                continue
            except (EOFError, OSError):
                break
            self.handle(message)

    def handle(self, message: object) -> None:
        if isinstance(message, RouteWork):
            self.transport.send(self.serve(message))
        elif isinstance(message, CostDiff):
            self.apply_diff(message)
            self.transport.send(
                VersionAck(worker_id=self.payload.worker_id, version=self.version)
            )
        elif isinstance(message, Ping):
            self.transport.send(
                Pong(
                    worker_id=self.payload.worker_id,
                    sequence=message.sequence,
                    cost_version=self.version,
                )
            )
        elif isinstance(message, ResyncRequired):
            self.resync()
            self.transport.send(
                VersionAck(worker_id=self.payload.worker_id, version=self.version)
            )
        elif isinstance(message, Shutdown):
            if self.payload.ignore_shutdown:
                # Chaos hook: model a wedged worker that never honours the
                # orderly stop — the pool's close deadline must terminate it.
                return
            self._running = False

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(self, work: RouteWork) -> RouteResults:
        started = time.perf_counter()
        engine = work.engine
        # The coordinator only hands out engines named in the payload.
        default_feature = self._engine_features[engine]
        groups: dict[CostFeature, list[int]] = {}
        for index, request in enumerate(work.requests):
            feature = request.cost_override or default_feature
            groups.setdefault(feature, []).append(index)
        # Per request ``(vertices, cross_shard, error)``; the answers are
        # built once, when the latency they carry is known.
        drafts: list[tuple] = [()] * len(work.requests)
        for feature, members in groups.items():
            self._serve_group(work, feature, members, drafts)
        per_request = (time.perf_counter() - started) / max(1, len(work.requests))
        finished = tuple(
            RouteAnswer(
                position=position,
                vertices=vertices,
                engine=engine,
                latency_s=per_request,
                cross_shard=cross_shard,
                error=error,
            )
            for position, (vertices, cross_shard, error) in zip(work.positions, drafts)
        )
        return RouteResults(
            task_id=work.task_id, worker_id=self.payload.worker_id, answers=finished
        )

    def _serve_group(
        self,
        work: RouteWork,
        feature: CostFeature,
        members: list[int],
        drafts: list[tuple],
    ) -> None:
        assert self.router is not None
        plan = self.payload.plan
        pending: list[int] = []
        for index in members:
            request = work.requests[index]
            if plan.shard_of(request.source) is None or plan.shard_of(request.destination) is None:
                missing = (
                    request.source
                    if plan.shard_of(request.source) is None
                    else request.destination
                )
                drafts[index] = (
                    None,
                    False,
                    f"VertexNotFoundError: vertex {missing!r} is not in the network",
                )
                continue
            pending.append(index)
        if not pending:
            return

        pairs = [
            (work.requests[index].source, work.requests[index].destination)
            for index in pending
        ]
        routed = self.router.route_pairs(pairs, feature)
        if routed is None:
            # Compiled machinery unavailable: serve exactly, one reference
            # search per pair on the full network.
            routed = []
            cost = cost_function(feature)
            for source, destination in pairs:
                try:
                    routed.append((tuple(dijkstra(self.network, source, destination, cost)), False))
                except ReproError:
                    routed.append((None, False))
        unreachable = "NoPathError: destination unreachable from source"
        for index, (vertices, cross_shard) in zip(pending, routed):
            drafts[index] = (vertices, cross_shard, None if vertices is not None else unreachable)

    # ------------------------------------------------------------------ #
    # Live traffic
    # ------------------------------------------------------------------ #
    def apply_diff(self, diff: CostDiff) -> None:
        """Apply one versioned broadcast (or resync on a version gap)."""
        if diff.version <= self.version:
            return
        if diff.base_version != self.version:
            self.resync()
            return
        changes = diff.as_updates()
        try:
            self.network.update_edge_costs(changes)
            self._advance(changes, diff.version)
        except ReproError:
            # A diff that no longer applies cleanly (e.g. replayed against a
            # restarted worker) is superseded by the segment's state.
            self.resync()

    def resync(self) -> None:
        """Adopt the shared segment's cost state wholesale."""
        assert self.view is not None
        version, changed = self._adopt(self.view)
        graph = self.network.compiled()
        slot_of = graph.topology.slot_of
        columns = {attribute: graph.array(attribute) for attribute in FEATURE_EDGE_ATTRIBUTES.values()}
        updates = {
            key: {attribute: column.item(slot_of[key]) for attribute, column in columns.items()}
            for key in changed
        }
        self._advance(updates, version)

    def _adopt(
        self, view: shm.SegmentView
    ) -> tuple[int, frozenset[tuple["VertexId", "VertexId"]]]:
        """Bring the network to the segment's cost state; the version that
        state is stamped with, and the keys of the edges that changed.

        The owner writes values, then the version, and patches in place: the
        version is the one read *before* the arrays, and the arrays are
        copied so one state is compared and installed.  A patch landing
        mid-copy then leaves the worker behind (the batch's diff still
        applies, idempotently, on top of whatever part of it the copy picked
        up), never stamped current over values the copy had already passed.
        """
        version = view.cost_version
        arrays = {attr: view.cost_array(attr).copy() for attr in view.spec.cost_attributes}
        return version, self.network.restore_cost_state(arrays, version)

    def _advance(
        self,
        changes: Mapping[tuple["VertexId", "VertexId"], Mapping[str, float]],
        version: int,
    ) -> None:
        """The tail of a diff and of a resync, after the network moved: carry
        the changes into the overlay, rebuild what they made stale, stamp the
        version."""
        assert self.overlay is not None
        self.overlay.apply(changes)
        self.overlay.refresh()
        self.version = version


def _worker_entry(worker_id: int, address: tuple[str, int]) -> None:
    """Spawn target: dial the coordinator's hub, fetch the payload, boot,
    serve, always close the segment view.

    Module-level so the spawn pickle can import it; a missing payload and
    boot failures end the process (the latter reported as :class:`Fatal`),
    so the pool does not hang on the handshake.  The transport's
    ``identify`` hook re-sends :class:`Attach` on every re-dialed connection
    until the worker has booted, then a fresh :class:`Hello` carrying its
    *live* cost version, which is what tells the coordinator to order a
    resync.
    """
    transport = SocketTransport(address, identify=lambda: Attach(worker_id=worker_id))
    transport.send(Attach(worker_id=worker_id))
    deadline = time.monotonic() + HANDSHAKE_TIMEOUT_S
    payload: object = None
    while not isinstance(payload, (WorkerPayload, Shutdown)):
        if time.monotonic() > deadline:
            raise ShardingError(f"worker {worker_id}: no payload within {HANDSHAKE_TIMEOUT_S:.0f}s")
        try:
            payload = transport.recv(timeout_s=_POLL_TIMEOUT_S)
        except queue.Empty:
            pass
    if isinstance(payload, Shutdown):
        return transport.close()
    worker = ShardWorker(payload, transport)
    try:
        worker.boot()
    except BaseException as exc:  # noqa: BLE001 - reported, then re-raised
        try:
            transport.send(Fatal(worker_id=worker_id, error=f"{type(exc).__name__}: {exc}"))
        except (OSError, EOFError):
            pass  # the hub is gone too; exiting loudly is all that is left
        raise
    transport.identify = lambda: Hello(
        worker_id=worker_id, shard_id=payload.shard_id, pid=os.getpid(), cost_version=worker.version
    )
    try:
        worker.run()
    finally:
        worker.close()
        transport.close()
