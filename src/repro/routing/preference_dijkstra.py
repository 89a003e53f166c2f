"""Algorithm 2: preference-aware modified Dijkstra.

Given a routing-preference vector ``<master, slave>`` — a travel-cost feature
and an optional road-condition feature — the algorithm behaves like Dijkstra
on the master cost, but when expanding a vertex it restricts relaxation to
edges whose road type satisfies the slave preference *whenever at least one
such edge exists*; otherwise all outgoing edges are considered.  This soft
treatment of the slave constraint is exactly the two cases in the paper's
pseudo-code and guarantees that a path is found whenever one exists at all.
"""

from __future__ import annotations

import heapq
import math
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import NoPathError, VertexNotFoundError
from ..network.compiled import dispatch as _compiled
from ..network.road_network import Edge, RoadNetwork, VertexId
from .costs import cost_function
from .path import Path

if TYPE_CHECKING:  # pragma: no cover - avoids a routing <-> preferences cycle
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
    if source not in network:
        raise VertexNotFoundError(source)
    if destination not in network:
        raise VertexNotFoundError(destination)
    if source == destination:
        return Path.of([source])

    master_cost = cost_function(preference.master)
    slave = preference.slave

    try:
        vertices = _compiled.try_preference(network, source, destination, master_cost, slave)
    except _compiled.PreferenceSearchExhausted:
        # The compiled kernel ran and the (slave-constrained) search was
        # exhausted; apply the paper's best-effort fallback.
        if slave is not None:
            from .dijkstra import dijkstra

            return dijkstra(network, source, destination, master_cost)
        raise NoPathError(
            source, destination, reason="preference-constrained search exhausted"
        ) from None
    if vertices is not None:
        return Path.of(vertices)
    return _dict_preference_search(network, source, destination, preference)


def preference_cost(preference: "PreferenceVector"):
    """The cost view under which plain Dijkstra is Algorithm 2 for ``preference``.

    Without a slave that is the master cost.  With one, Algorithm 2 relaxes
    an edge when it satisfies the slave, or when no edge out of its tail does
    (the masks the point-to-point kernel reads); Dijkstra over the master
    cost with ``inf`` on every other slot settles the same vertices at the
    same costs through the same parents.  The batch search
    :func:`~repro.network.compiled.dispatch.try_route_many` therefore
    reconstructs Algorithm 2's paths from this view, and a pair it reports
    unreachable is one whose constrained search runs dry — where
    :func:`preference_dijkstra` falls back to the master cost alone.  The
    masked view serves the compiled searches only: it is not callable per edge.
    """
    master, slave = cost_function(preference.master), preference.slave
    if slave is None:
        return master
    key = ("slave-masked", master.cost_attr, slave)

    def build(graph) -> np.ndarray:
        allowed, none_allowed = graph.memo(
            ("slave-masks", slave), lambda: _compiled._slave_masks(graph, slave), cost_dependent=False
        )
        tails = np.repeat(np.arange(graph.vertex_count), np.diff(graph.offsets))
        relaxed = np.array(allowed, dtype=bool) | np.array(none_allowed, dtype=bool)[tails]
        return np.where(relaxed, graph.array(master.cost_attr), math.inf)

    # Built from the store's own array: memo() stamps it with the cost version.
    return SimpleNamespace(
        cost_cache_key=key, build_cost_array=lambda graph: graph.memo(key, lambda: build(graph))
    )


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
        from .dijkstra import dijkstra

        return dijkstra(network, source, destination, master_cost)
    raise NoPathError(source, destination, reason="preference-constrained search exhausted")
