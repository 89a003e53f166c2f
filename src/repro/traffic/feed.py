"""The transactional bridge between live-traffic updates and the network.

A :class:`TrafficFeed` owns the write path for one
:class:`~repro.network.road_network.RoadNetwork`: it resolves a batch of
:class:`~repro.traffic.updates.TrafficUpdate` objects against the current
edge costs, applies them in one all-or-nothing
:meth:`~repro.network.road_network.RoadNetwork.update_edge_costs` call (which
patches the live compiled view instead of dropping it), and then notifies its
subscribers with a :class:`~repro.traffic.updates.TrafficUpdateResult`
reporting the touched edges and the new cost version.

The service layer subscribes through ``TrafficFeed(network, services=[...])``
(or :meth:`TrafficFeed.subscribe`), wiring
:meth:`~repro.service.RoutingService.on_traffic_update`: after a batch that
only raised costs the cached routes that cross a touched edge are evicted and
nothing else is; a batch that lowered any cost retires the whole cache, since
a cheaper edge can improve routes that never crossed it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..network.road_network import RoadNetwork
from .updates import EdgeKey, TrafficUpdate, TrafficUpdateResult

if TYPE_CHECKING:  # pragma: no cover
    from typing import Protocol

    from ..service.service import RoutingService

    class TrafficJournal(Protocol):
        """Write-ahead sink (e.g. :class:`~repro.service.durability.manager.
        DurabilityManager`): called under the feed lock *before* a batch is
        resolved, with the pre-apply cost version it anchors to."""

        def log_traffic(
            self, updates: Sequence[TrafficUpdate], base_version: int
        ) -> None: ...


Subscriber = Callable[[TrafficUpdateResult], object]


class TrafficFeed:
    """Applies :class:`TrafficUpdate` batches to one network, transactionally.

    Batches are serialized by an internal lock, so subscribers observe
    results in strictly increasing cost-version order even when several
    producers push updates concurrently.
    """

    def __init__(
        self,
        network: RoadNetwork,
        services: "Sequence[RoutingService] | None" = None,
    ) -> None:
        self._network = network
        # Reentrant: subscribers run inside apply() and may themselves call
        # subscribe() or push a compensating apply() without deadlocking.
        self._lock = threading.RLock()
        self._subscribers: list[Subscriber] = []
        self._journal: "TrafficJournal | None" = None
        for service in services or ():
            self.subscribe(
                lambda result, _service=service: _service.on_traffic_update(
                    result.touched_edges, cost_version=result.cost_version
                )
            )

    @property
    def network(self) -> RoadNetwork:
        return self._network

    def attach_journal(self, journal: "TrafficJournal | None") -> None:
        """Write-ahead every future batch through ``journal`` (``None``
        detaches).

        The journal's ``log_traffic(batch, base_version)`` runs inside the
        feed lock before the batch is resolved or applied, so a batch whose
        log write fails is never applied — the invariant WAL recovery
        (:meth:`~repro.service.durability.manager.DurabilityManager.recover`)
        relies on: every applied batch is on disk, anchored to the exact
        version it was resolved against.
        """
        with self._lock:
            self._journal = journal

    def subscribe(self, callback: Subscriber) -> Subscriber:
        """Register a callback invoked after every applied batch.

        Returns the callback so it can be used as a decorator.  Subscribers
        run inside the feed's lock (in registration order) — keep them quick;
        the built-in service wiring only evicts cache lines and bumps
        counters.
        """
        with self._lock:
            self._subscribers.append(callback)
        return callback

    def apply(self, updates: Iterable[TrafficUpdate]) -> TrafficUpdateResult:
        """Resolve and apply one batch; the *network patch* is all-or-nothing.

        Every update is resolved against the *current* costs (updates to the
        same edge within one batch compose in batch order), then the whole
        batch is validated and applied through
        :meth:`RoadNetwork.update_edge_costs`.  A missing edge, unknown
        attribute, or non-positive resulting value raises before anything is
        touched, leaving network, compiled view, and caches unchanged.

        Subscribers run *after* the patch has landed and are isolated from
        each other: a raising subscriber never prevents the remaining ones
        from invalidating their caches.  The first subscriber exception is
        re-raised once all of them have run — by then the network update
        itself has succeeded.
        """
        batch = list(updates)
        with self._lock:
            if self._journal is not None:
                # Write-ahead: the raw batch hits the journal before any of
                # it is resolved or applied.  An append failure (disk fault,
                # crash) aborts the batch entirely — never applied, never
                # acknowledged.
                self._journal.log_traffic(tuple(batch), self._network.cost_version)
            network_edge = self._network.edge
            merged: dict[EdgeKey, dict[str, float]] = {}
            for update in batch:
                key = (update.source, update.target)
                merged[key] = update.resolve(network_edge(*key), merged.get(key))
            changed = self._network.update_edge_costs(merged)
            attributes: set[str] = set()
            for key in changed:
                attributes.update(merged[key])
            result = TrafficUpdateResult(
                touched_edges=changed,
                cost_version=self._network.cost_version,
                applied=len(batch),
                attributes=frozenset(attributes),
            )
            if changed:
                first_error: BaseException | None = None
                for callback in self._subscribers:
                    try:
                        callback(result)
                    except Exception as exc:
                        if first_error is None:
                            first_error = exc
                if first_error is not None:
                    raise first_error
        return result
