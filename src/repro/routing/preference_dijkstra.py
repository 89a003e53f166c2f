"""Algorithm 2: preference-aware modified Dijkstra.

Given a routing-preference vector ``<master, slave>`` — a travel-cost feature
and an optional road-condition feature — the algorithm behaves like Dijkstra
on the master cost, but when expanding a vertex it restricts relaxation to
edges whose road type satisfies the slave preference *whenever at least one
such edge exists*; otherwise all outgoing edges are considered.  This soft
treatment of the slave constraint is exactly the two cases in the paper's
pseudo-code.  Both cases are a property of each edge and its tail alone, so
the algorithm is plain Dijkstra over a cost view (:func:`preference_cost`)
and runs on whatever search :func:`~repro.routing.dijkstra.dijkstra` picks.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import NoPathError
from ..network.road_network import Edge, RoadNetwork, VertexId
from .costs import cost_function
from .dijkstra import dijkstra
from .path import Path

if TYPE_CHECKING:  # pragma: no cover - avoids a routing <-> preferences cycle
    from ..network.compiled import CompiledGraph
    from ..preferences.features import RoadConditionFeature
    from ..preferences.model import PreferenceVector


def preference_dijkstra(
    network: RoadNetwork,
    source: VertexId,
    destination: VertexId,
    preference: "PreferenceVector",
) -> Path:
    """Lowest-master-cost path that honours the slave road-condition feature.

    Implements Algorithm 2 of the paper.  The slave restriction can, on rare
    topologies, prune the only edges leading to the destination; in that case
    the search is retried with the master cost alone so that a path is always
    returned whenever one exists.  Raises :class:`NoPathError` only when the
    destination is unreachable even without the slave restriction.
    """
    try:
        return dijkstra(network, source, destination, preference_cost(network, preference))
    except NoPathError:
        if preference.slave is None:
            raise
    return dijkstra(network, source, destination, cost_function(preference.master))


def preference_cost(network: RoadNetwork, preference: "PreferenceVector"):
    """The cost view under which plain Dijkstra is Algorithm 2 for ``preference``.

    Without a slave that is the master cost.  With one, Algorithm 2 relaxes
    an edge when it satisfies the slave, or when no edge out of its tail does;
    Dijkstra over the master cost with ``inf`` on every other edge settles
    the same vertices at the same costs through the same parents.  A pair
    the view leaves unreachable is one whose constrained search runs dry —
    where :func:`preference_dijkstra` falls back to the master cost alone.
    The view prices one edge of ``network`` when called (the dict reference
    searches) and a whole CSR snapshot through ``build_cost_array``.
    """
    master = cost_function(preference.master)
    if preference.slave is None:
        return master
    return _SlaveMaskedCost(network, master, preference.slave)


def slave_mask(graph: "CompiledGraph", slave: "RoadConditionFeature") -> np.ndarray:
    """Per CSR slot: whether the edge's road type satisfies ``slave``.

    Road types never change under traffic, so the mask outlives cost patches.
    """
    return graph.memo(  # type: ignore[return-value]
        ("slave-mask", slave),
        lambda: np.fromiter(
            (slave.satisfied_by(edge.road_type) for edge in graph.edges),
            dtype=bool,
            count=graph.edge_count,
        ),
        cost_dependent=False,
    )


class _SlaveMaskedCost:
    """The master cost, ``inf`` on the edges Algorithm 2's Case (i) skips."""

    def __init__(self, network: RoadNetwork, master, slave: "RoadConditionFeature") -> None:
        self._network = network
        self._master = master
        self._slave = slave
        self.cost_cache_key = ("slave-masked", master.cost_attr, slave)

    def __call__(self, edge: Edge) -> float:
        satisfied = self._slave.satisfied_by
        if satisfied(edge.road_type) or not any(
            satisfied(out.road_type) for out in self._network.successors(edge.source).values()
        ):
            return self._master(edge)
        return math.inf

    def build_cost_array(self, graph: "CompiledGraph") -> np.ndarray:
        # Built from the store's own array: memo() stamps it with the cost version.
        return graph.memo(  # type: ignore[return-value]
            self.cost_cache_key, lambda: self._masked(graph)
        )

    def _masked(self, graph: "CompiledGraph") -> np.ndarray:
        allowed = slave_mask(graph, self._slave)
        tails = np.repeat(np.arange(graph.vertex_count), np.diff(graph.offsets))
        none_allowed = np.bincount(tails[allowed], minlength=graph.vertex_count) == 0
        relaxed = allowed | none_allowed[tails]
        return np.where(relaxed, graph.array(self._master.cost_attr), math.inf)


def _dict_preference_search(
    network: RoadNetwork,
    source: VertexId,
    destination: VertexId,
    preference: "PreferenceVector",
) -> Path:
    """Dict-based reference implementation of Algorithm 2."""
    master_cost = cost_function(preference.master)
    slave = preference.slave

    def satisfies_slave(edge: Edge) -> bool:
        return slave is None or slave.satisfied_by(edge.road_type)

    dist: dict[VertexId, float] = {source: 0.0}
    parent: dict[VertexId, VertexId] = {}
    settled: set[VertexId] = set()
    heap: list[tuple[float, VertexId]] = [(0.0, source)]

    while heap:
        cost_u, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == destination:
            vertices: list[VertexId] = [destination]
            current = destination
            while current != source:
                current = parent[current]
                vertices.append(current)
            vertices.reverse()
            return Path.of(vertices)

        successors = network.successors(u)
        # Case (i): at least one outgoing edge satisfies the slave preference
        # -> expand only those edges.  Case (ii): none does -> expand all.
        none_satisfies = not any(satisfies_slave(edge) for edge in successors.values())
        for v, edge in successors.items():
            if v in settled:
                continue
            if not (satisfies_slave(edge) or none_satisfies):
                continue
            candidate = cost_u + master_cost(edge)
            if candidate < dist.get(v, math.inf):
                dist[v] = candidate
                parent[v] = u
                heapq.heappush(heap, (candidate, v))

    if slave is not None:
        # The road-condition restriction pruned every route; fall back to the
        # unconstrained master-cost search (Algorithm 2 is best-effort on the
        # slave dimension).
        return dijkstra(network, source, destination, master_cost)
    raise NoPathError(source, destination, reason="preference-constrained search exhausted")
