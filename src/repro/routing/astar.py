"""A* search over the network's Edge views, with admissible heuristics.

A library search, off the serving path (the engines answer single-cost
queries with the corridor-bounded scipy Dijkstra): the external
routing-service simulator and the benchmark's layer table call it.  The
heuristics here are admissible lower bounds for each travel-cost feature
(straight-line distance; straight-line distance at the maximum speed for
travel time; zero for fuel).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from ..exceptions import NoPathError, VertexNotFoundError
from ..network.road_network import RoadNetwork, VertexId
from ..network.road_types import DEFAULT_SPEED_KMH, RoadType
from .costs import CostFeature, EdgeCost, cost_function
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


def heuristic_for(network: RoadNetwork, destination: VertexId, feature: CostFeature) -> Heuristic:
    """An admissible heuristic for the given travel-cost feature."""
    if feature is CostFeature.DISTANCE:
        return euclidean_heuristic(network, destination)
    if feature is CostFeature.TRAVEL_TIME:
        return travel_time_heuristic(network, destination)
    return _zero


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

    ``heuristic`` must be an admissible lower bound on the cost to
    ``destination``; omitted, it is the zero bound (plain Dijkstra order).
    """
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
        for edge in network.out_edges(u):
            v = edge.target
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
