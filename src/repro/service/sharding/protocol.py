"""The message protocol between coordinator and shard workers.

Every message crossing the process boundary is a small frozen dataclass,
framed over TCP sockets (:mod:`~repro.service.sharding.transport`; loopback
on one host, the same wire across nodes).  The worker loop is written
against the two-method :class:`Transport` protocol, which is what lets the
tests' in-memory fake stand in for a socket.  The coordinator-to-worker
direction carries the boot :class:`WorkerPayload`, :class:`RouteWork`
batches, versioned :class:`CostDiff` broadcasts, :class:`Ping` heartbeats,
:class:`ResyncRequired`, and :class:`Shutdown`; the worker-to-coordinator
direction carries :class:`Attach` (the payload request), :class:`Hello`
(boot handshake *and* reconnect re-identification), :class:`RouteResults`,
:class:`Pong`, and :class:`VersionAck` (broadcast-lag accounting).

Answers travel as compact :class:`RouteAnswer` records — vertex tuples, not
:class:`~repro.service.api.RouteResponse` objects — because the coordinator
already holds the originating requests and rebuilding the response there
keeps the wire payload (and pickling cost) proportional to the paths, not to
the request metadata.

Wire framing
------------

Every message is one *frame*::

    +----------------------------+----------------------------------+
    | length: 4 bytes big-endian | payload: pickle.dumps(message)   |
    +----------------------------+----------------------------------+

The length counts payload bytes only (the 4-byte prefix excluded) and is
capped at :data:`~repro.service.sharding.transport.MAX_FRAME_BYTES` so a
corrupt or hostile peer cannot make the reader allocate unbounded memory.
Frames are written with ``sendall`` and read with an exact-length loop;
every socket operation runs under an explicit timeout (reprolint RL010
enforces this), so a stalled peer surfaces as a timeout, never as a hung
coordinator or worker.  The first frame a worker sends on every connection
— initial dial *and* every reconnect — is an :class:`Attach` until it has
booted (answered with its payload), then a :class:`Hello` carrying its
current ``cost_version``; the coordinator uses it to route the connection
and, when the version is stale, to order a resync from the shared segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from ...exceptions import ConfigurationError
from ...routing.costs import CostFeature

if TYPE_CHECKING:  # pragma: no cover
    from ...network.compiled.shm import SegmentSpec
    from ...network.road_network import RoadNetwork, VertexId
    from ..api import RouteRequest
    from .plan import ShardPlan

#: The default worker engine registry: name → the cost feature it optimizes.
DEFAULT_ENGINES: tuple[tuple[str, CostFeature], ...] = (
    ("Shortest", CostFeature.DISTANCE),
    ("Fastest", CostFeature.TRAVEL_TIME),
)


@dataclass(frozen=True)
class Attach:
    """A spawned worker's request for its :class:`WorkerPayload`: the first
    frame of each of its connections until it has booted."""

    worker_id: int


@dataclass(frozen=True)
class Hello:
    """Worker boot handshake — and reconnect re-identification.

    Sent once at boot, and again as the first frame of every connection
    re-dialed after it.  ``cost_version`` tells the coordinator whether this
    worker is behind: a stale version gets a :class:`ResyncRequired` order.
    """

    worker_id: int
    shard_id: int
    pid: int
    cost_version: int
    """The segment cost version the worker booted (or reconnected) against."""


@dataclass(frozen=True)
class Fatal:
    """Worker boot or loop failure: the process is exiting."""

    worker_id: int
    error: str


@dataclass(frozen=True)
class RouteWork:
    """One batch of requests for a single worker, all from its shard.

    Resubmitted unchanged to a reconnected or restarted worker; a duplicate
    answer is last-write-wins."""

    task_id: int
    engine: str
    requests: tuple["RouteRequest", ...]
    positions: tuple[int, ...]
    """Caller-side slot of each request in the originating batch."""


@dataclass(frozen=True)
class RouteAnswer:
    """One request's answer in wire form (the coordinator rebuilds the
    :class:`~repro.service.api.RouteResponse` around it)."""

    position: int
    vertices: tuple["VertexId", ...] | None
    engine: str
    latency_s: float = 0.0
    cross_shard: bool = False
    error: str | None = None


@dataclass(frozen=True)
class RouteResults:
    """A worker's answers for one :class:`RouteWork` batch."""

    task_id: int
    worker_id: int
    answers: tuple[RouteAnswer, ...]


@dataclass(frozen=True)
class CostDiff:
    """A versioned live-traffic broadcast: absolute post-update values.

    ``changes`` maps each touched edge key to its new per-feature values
    (absolute, not deltas — applying the same diff twice is idempotent,
    which is what makes worker restarts and diffs landing on top of a
    resync safe).  A worker whose current version is not ``base_version``
    missed a broadcast and resyncs from the shared segment instead of
    applying the diff.  A worker that dies before acknowledging is
    respawned at the segment's version, which the ack barrier counts as
    its ack.
    """

    version: int
    base_version: int
    changes: tuple[tuple[tuple["VertexId", "VertexId"], tuple[tuple[str, float], ...]], ...]

    def as_updates(self) -> dict[tuple["VertexId", "VertexId"], dict[str, float]]:
        return {key: dict(values) for key, values in self.changes}


@dataclass(frozen=True)
class Ping:
    """Coordinator heartbeat probe; every live worker answers with
    :class:`Pong`.  ``sequence`` matches probes to answers so a late pong
    from a slow worker cannot satisfy a newer liveness deadline."""

    sequence: int


@dataclass(frozen=True)
class Pong:
    """A worker's heartbeat answer (liveness + broadcast-lag signal)."""

    worker_id: int
    sequence: int
    cost_version: int
    """The worker's current cost version — lets the coordinator spot a
    version-divergent worker even between traffic broadcasts."""


@dataclass(frozen=True)
class ResyncRequired:
    """Coordinator order: this worker is behind (a reconnect after missed
    broadcasts, or a coordinator recovery) — adopt the shared segment
    wholesale and acknowledge its version."""

    version: int
    """The cost version the coordinator expects the resync to reach (the
    segment may already be newer; the worker acks whatever it adopted)."""


@dataclass(frozen=True)
class VersionAck:
    """A worker's confirmation that its costs and tables reflect ``version``."""

    worker_id: int
    version: int


@dataclass(frozen=True)
class Shutdown:
    """Orderly stop: the worker closes its segment view and exits."""

    reason: str = "close"


@dataclass(frozen=True)
class WorkerPayload:
    """Everything one spawned worker needs to boot: the pool's answer to
    its :class:`Attach`, over the worker's own link (the spawn carries only
    the worker id and the hub address); all later state flows the same way."""

    worker_id: int
    shard_id: int
    plan: "ShardPlan"
    network: "RoadNetwork"
    """The full network snapshot (cost state possibly stale: the worker
    resyncs against the shared segment before serving)."""
    spec: "SegmentSpec"
    engines: tuple[tuple[str, CostFeature], ...] = DEFAULT_ENGINES
    ignore_shutdown: bool = False
    """Chaos-test hook: the worker drops :class:`Shutdown` messages on the
    floor, modelling a wedged process the pool must ``terminate()`` within
    its close deadline."""
    cache_size: int = 0
    """Not an option: workers keep no answer cache.  The field survives
    because the frozen ``benchmarks/e2e/layers.py`` replay still passes
    ``cache_size=0``; any other value is refused."""

    def __post_init__(self) -> None:
        if self.cache_size != 0:
            raise ConfigurationError(
                f"cache_size={self.cache_size}: shard workers keep no answer cache"
            )


class Transport(Protocol):
    """The minimal duplex channel a worker loop is written against."""

    def send(self, message: object) -> None:  # pragma: no cover - protocol
        ...

    def recv(self, timeout_s: float | None = None) -> object:  # pragma: no cover
        ...

