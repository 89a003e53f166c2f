"""A* search: ALT on compiled cost views, the dict reference elsewhere.

A library search, off the serving path (the engines answer single-cost
queries with the corridor-bounded Dijkstra, which has the better tail): the
external routing-service simulator and the benchmark's layer table call it.
A cost view with an ALT landmark table runs the compiled kernel on the
landmark bounds, far tighter than geometric ones on road networks, so a
``heuristic`` argument only steers the dict reference: opaque costs (the
external service's), and every query under ``compiled_disabled()`` or
``alt_disabled()``.  The heuristics here are admissible lower bounds for
each travel-cost feature (straight-line distance; straight-line distance at
the maximum speed for travel time; at the most economical fuel rate for
fuel).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from ..exceptions import NoPathError, VertexNotFoundError
from ..network.compiled import dispatch as _compiled
from ..network.road_network import RoadNetwork, VertexId
from ..network.road_types import DEFAULT_SPEED_KMH, RoadType
from .costs import CostFeature, EdgeCost, cost_function
from .fuel import fuel_per_km_ml, most_economical_speed_kmh
from .path import Path
from ..network.spatial import equirectangular_m

Heuristic = Callable[[VertexId], float]


def euclidean_heuristic(network: RoadNetwork, destination: VertexId) -> Heuristic:
    """Straight-line distance (meters) to the destination."""
    goal = network.coordinates(destination)

    def h(vertex: VertexId) -> float:
        return equirectangular_m(network.coordinates(vertex), goal)

    return h


def travel_time_heuristic(network: RoadNetwork, destination: VertexId) -> Heuristic:
    """Straight-line time (seconds) at the network's maximum speed."""
    goal = network.coordinates(destination)
    max_speed_ms = DEFAULT_SPEED_KMH[RoadType.MOTORWAY] / 3.6

    def h(vertex: VertexId) -> float:
        return equirectangular_m(network.coordinates(vertex), goal) / max_speed_ms

    return h


def fuel_heuristic(network: RoadNetwork, destination: VertexId) -> Heuristic:
    """Straight-line fuel (ml) at the most economical speed."""
    goal = network.coordinates(destination)
    best_rate_per_m = fuel_per_km_ml(most_economical_speed_kmh()) / 1000.0

    def h(vertex: VertexId) -> float:
        return equirectangular_m(network.coordinates(vertex), goal) * best_rate_per_m

    return h


def heuristic_for(network: RoadNetwork, destination: VertexId, feature: CostFeature) -> Heuristic:
    """An admissible heuristic for the given travel-cost feature."""
    if feature is CostFeature.DISTANCE:
        return euclidean_heuristic(network, destination)
    if feature is CostFeature.TRAVEL_TIME:
        return travel_time_heuristic(network, destination)
    return fuel_heuristic(network, destination)


def _zero(vertex: VertexId) -> float:
    return 0.0


def astar(
    network: RoadNetwork,
    source: VertexId,
    destination: VertexId,
    edge_cost: EdgeCost,
    heuristic: Heuristic | None = None,
) -> Path:
    """A* lowest-cost path; raises :class:`NoPathError` if unreachable.

    A cost view with an ALT landmark table (a cacheable view of a compiled
    network) runs the compiled kernel with the landmark bounds as its
    heuristic; ``heuristic`` is then not consulted.  The answer is
    cost-optimal but may be a different equal-cost path than
    :func:`dict_astar`.  Everywhere else — an opaque or per-query cost, or
    under ``compiled_disabled()`` / ``alt_disabled()`` — :func:`dict_astar`
    runs with ``heuristic`` (the zero bound when omitted).
    """
    if source not in network:
        raise VertexNotFoundError(source)
    if destination not in network:
        raise VertexNotFoundError(destination)
    if source == destination:
        return Path.of([source])

    vertices = _compiled.try_astar(network, source, destination, edge_cost)
    if vertices is not None:
        return Path.of(vertices)
    return dict_astar(network, source, destination, edge_cost, heuristic)


def dict_astar(
    network: RoadNetwork,
    source: VertexId,
    destination: VertexId,
    edge_cost: EdgeCost,
    heuristic: Heuristic | None = None,
) -> Path:
    """The dict-based reference A* (no compiled dispatch); ``heuristic=None``
    is the zero bound."""
    if source not in network:
        raise VertexNotFoundError(source)
    if destination not in network:
        raise VertexNotFoundError(destination)
    if source == destination:
        return Path.of([source])
    if heuristic is None:
        heuristic = _zero

    g_score: dict[VertexId, float] = {source: 0.0}
    parent: dict[VertexId, VertexId] = {}
    closed: set[VertexId] = set()
    heap: list[tuple[float, VertexId]] = [(heuristic(source), source)]

    while heap:
        _, u = heapq.heappop(heap)
        if u in closed:
            continue
        closed.add(u)
        if u == destination:
            vertices = [destination]
            current = destination
            while current != source:
                current = parent[current]
                vertices.append(current)
            vertices.reverse()
            return Path.of(vertices)
        for v, edge in network.successors(u).items():
            if v in closed:
                continue
            tentative = g_score[u] + edge_cost(edge)
            if tentative < g_score.get(v, math.inf):
                g_score[v] = tentative
                parent[v] = u
                heapq.heappush(heap, (tentative + heuristic(v), v))

    raise NoPathError(source, destination)


def astar_by_feature(
    network: RoadNetwork,
    source: VertexId,
    destination: VertexId,
    feature: CostFeature = CostFeature.TRAVEL_TIME,
) -> Path:
    """A* using a built-in cost feature and its matching heuristic."""
    return astar(
        network,
        source,
        destination,
        cost_function(feature),
        heuristic_for(network, destination, feature),
    )
