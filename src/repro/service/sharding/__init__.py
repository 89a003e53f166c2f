"""Sharded multi-process serving over a shared-memory compiled graph.

The subsystem splits into independently testable layers:

* :mod:`~repro.service.sharding.plan` — partitioning the network into
  shards (coordinate bisection, boundary structure);
* :mod:`~repro.service.sharding.overlay` — the boundary tables, the dense
  overlay over them and exact cross-shard stitching;
* :mod:`~repro.service.sharding.protocol` — the message dataclasses (and
  the wire framing they travel in);
* :mod:`~repro.service.sharding.transport` — the one transport, TCP
  sockets: the worker-side auto-reconnecting :class:`SocketTransport` and
  the coordinator-side :class:`TcpHub`;
* :mod:`~repro.service.sharding.replication` — worker liveness
  (:class:`HeartbeatMonitor`);
* :mod:`~repro.service.sharding.worker` / :mod:`~repro.service.sharding.
  pool` — the spawn-based worker loop and its process lifecycle;
* :mod:`~repro.service.sharding.coordinator` — the :class:`ShardCoordinator`
  (dispatch, resend on reconnect, restart of dead workers, heartbeats, the
  traffic ack barrier, durability) and its :class:`ShardEngine` per worker
  engine, the ``RoutingEngine`` a ``RoutingService`` registers;
* :mod:`~repro.service.sharding.service` — :class:`ShardedRoutingService`,
  a ``RoutingService`` with those engines registered, so sharded requests
  pass the same gate as in-process ones.
"""

from .coordinator import ShardCoordinator, ShardEngine
from .overlay import BoundaryOverlay, CrossShardRouter
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
    RouteAnswer,
    RouteResults,
    RouteWork,
    Shutdown,
    VersionAck,
    WorkerPayload,
)
from .replication import HeartbeatMonitor
from .service import ShardedRoutingService
from .transport import (
    MAX_FRAME_BYTES,
    FrameError,
    SocketTransport,
    TcpHub,
    encode_frame,
    recv_frame,
    send_frame,
)
from .worker import ShardWorker

__all__ = [
    "BoundaryOverlay",
    "CostDiff",
    "CrossShardRouter",
    "DEFAULT_ENGINES",
    "Fatal",
    "FrameError",
    "Hello",
    "HeartbeatMonitor",
    "MAX_FRAME_BYTES",
    "Ping",
    "Pong",
    "ResyncRequired",
    "RouteAnswer",
    "RouteResults",
    "RouteWork",
    "ShardCoordinator",
    "ShardEngine",
    "ShardPlan",
    "ShardWorker",
    "ShardWorkerPool",
    "ShardedRoutingService",
    "Shutdown",
    "SocketTransport",
    "TcpHub",
    "VersionAck",
    "WorkerPayload",
    "build_shard_plan",
    "encode_frame",
    "recv_frame",
    "send_frame",
]
