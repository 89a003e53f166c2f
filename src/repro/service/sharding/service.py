"""The :class:`ShardedRoutingService` — a ``RoutingService`` whose engines
are shard workers.

A thin constructor over :class:`~repro.service.RoutingService` with the
route cache off: it boots a :class:`~repro.service.sharding.coordinator.
ShardCoordinator`, registers one :class:`~repro.service.sharding.
coordinator.ShardEngine` per worker engine (``Shortest``, the default, and
``Fastest``) and observes every traffic batch it applies.  Every request
therefore passes the service's one gate — admission, deadline,
breaker, degraded serving, request and latency statistics — exactly as it
does in process; ``stats()`` adds the coordinator's shard counters.  The
remaining verbs (heartbeats, snapshot / recover, and the network-fault
hooks ``drop_connection`` / ``partition_worker`` / ``heal_worker``) are
called on :attr:`ShardedRoutingService.coordinator`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ...exceptions import ConfigurationError
from ..api import RouteRequest, RouteResponse
from ..service import RoutingService
from ..stats import ServiceStats
from .coordinator import ShardCoordinator
from .plan import ShardPlan
from .protocol import DEFAULT_ENGINES

if TYPE_CHECKING:  # pragma: no cover
    from ...network.road_network import RoadNetwork
    from ...traffic.updates import TrafficUpdate, TrafficUpdateResult
    from ..durability import DurabilityManager


class ShardedRoutingService(RoutingService):
    """Sharded multi-process serving behind the ``RoutingService`` gate."""

    def __init__(
        self,
        network: "RoadNetwork",
        shard_count: int = 2,
        *,
        transport: str = "tcp",
        cache_size: int = 0,
        durability: "DurabilityManager | None" = None,
    ) -> None:
        # Neither is an option: sockets are the only wire and workers keep no
        # answer cache.  The keywords survive because benchmarks/e2e/systems.py
        # (frozen until a benchmark change drops them) still passes
        # transport="tcp", cache_size=0.
        if transport != "tcp":
            raise ConfigurationError(
                f"transport={transport!r}: the multiprocessing-queue transport "
                "was removed; workers are always linked over TCP sockets"
            )
        if cache_size != 0:
            raise ConfigurationError(
                f"cache_size={cache_size}: the sharded deployment keeps no "
                "answer cache"
            )
        super().__init__(enable_cache=False)
        self.coordinator = ShardCoordinator(network, shard_count, durability=durability)
        for name, _ in DEFAULT_ENGINES:
            self.register(name, self.coordinator.engine(name))

    @property
    def plan(self) -> ShardPlan:
        return self.coordinator.plan

    def _compute(
        self,
        name: str,
        requests: Sequence[RouteRequest],
        together: "Callable[[Sequence[RouteRequest]], list[RouteResponse | None]] | None" = None,
    ) -> list[RouteResponse | None]:
        # The gate folds an engine's ReproError into a response; a closed
        # deployment is the caller's error, so it raises ShardingError first.
        self.coordinator.ensure_open()
        return super()._compute(name, requests, together)

    def apply_traffic(
        self, updates: Iterable["TrafficUpdate"], *, wait: bool = True
    ) -> "TrafficUpdateResult":
        """One live-traffic batch across the deployment (see
        :meth:`ShardCoordinator.apply_traffic`), counted in :meth:`stats`."""
        result = self.coordinator.apply_traffic(updates, wait=wait)
        self.on_traffic_update(result.touched_edges, cost_version=result.cost_version)
        return result

    def stats(self) -> ServiceStats:
        """The gate's snapshot plus the coordinator's shard counters."""
        return replace(super().stats(), **self.coordinator.counters())

    def reset_stats(self) -> None:
        super().reset_stats()
        self.coordinator.reset_counters()

    def close(self) -> bool:
        """Stop the workers and unlink the segment; idempotent."""
        return self.coordinator.close()

    def __enter__(self) -> "ShardedRoutingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
