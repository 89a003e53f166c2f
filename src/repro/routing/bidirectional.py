"""Bidirectional Dijkstra over the network's Edge views.

Searches simultaneously from the source (forward edges) and from the
destination (reverse edges) and stops when the frontiers provably cannot
improve the best meeting point.  An exact alternative to plain Dijkstra that
only the benchmarks call: the ``routing.bidirectional_us`` row of
``benchmarks/e2e --trace`` places it behind the bounded scipy Dijkstra.
"""

from __future__ import annotations

import heapq
import math

from ..exceptions import NoPathError, VertexNotFoundError
from ..network.road_network import RoadNetwork, VertexId
from .costs import CostFeature, EdgeCost, cost_function
from .path import Path


def bidirectional_dijkstra(
    network: RoadNetwork,
    source: VertexId,
    destination: VertexId,
    edge_cost: EdgeCost,
) -> Path:
    """Lowest-cost path via simultaneous forward and backward search."""
    if source not in network:
        raise VertexNotFoundError(source)
    if destination not in network:
        raise VertexNotFoundError(destination)
    if source == destination:
        return Path.of([source])

    dist_f: dict[VertexId, float] = {source: 0.0}
    dist_b: dict[VertexId, float] = {destination: 0.0}
    parent_f: dict[VertexId, VertexId] = {}
    parent_b: dict[VertexId, VertexId] = {}
    settled_f: set[VertexId] = set()
    settled_b: set[VertexId] = set()
    heap_f: list[tuple[float, VertexId]] = [(0.0, source)]
    heap_b: list[tuple[float, VertexId]] = [(0.0, destination)]

    best_cost = math.inf
    meeting: VertexId | None = None

    def relax_forward(u: VertexId, cost_u: float) -> None:
        nonlocal best_cost, meeting
        for edge in network.out_edges(u):
            v = edge.target
            if v in settled_f:
                continue
            candidate = cost_u + edge_cost(edge)
            if candidate < dist_f.get(v, math.inf):
                dist_f[v] = candidate
                parent_f[v] = u
                heapq.heappush(heap_f, (candidate, v))
            if v in dist_b and candidate + dist_b[v] < best_cost:
                best_cost = candidate + dist_b[v]
                meeting = v

    def relax_backward(u: VertexId, cost_u: float) -> None:
        nonlocal best_cost, meeting
        for edge in network.in_edges(u):
            v = edge.source
            if v in settled_b:
                continue
            candidate = cost_u + edge_cost(edge)
            if candidate < dist_b.get(v, math.inf):
                dist_b[v] = candidate
                parent_b[v] = u
                heapq.heappush(heap_b, (candidate, v))
            if v in dist_f and candidate + dist_f[v] < best_cost:
                best_cost = candidate + dist_f[v]
                meeting = v

    while heap_f and heap_b:
        top_f = heap_f[0][0]
        top_b = heap_b[0][0]
        if top_f + top_b >= best_cost:
            break
        if top_f <= top_b:
            cost_u, u = heapq.heappop(heap_f)
            if u in settled_f:
                continue
            settled_f.add(u)
            if u in dist_b and cost_u + dist_b[u] < best_cost:
                best_cost = cost_u + dist_b[u]
                meeting = u
            relax_forward(u, cost_u)
        else:
            cost_u, u = heapq.heappop(heap_b)
            if u in settled_b:
                continue
            settled_b.add(u)
            if u in dist_f and cost_u + dist_f[u] < best_cost:
                best_cost = cost_u + dist_f[u]
                meeting = u
            relax_backward(u, cost_u)

    if meeting is None:
        raise NoPathError(source, destination)

    forward: list[VertexId] = [meeting]
    current = meeting
    while current != source:
        current = parent_f[current]
        forward.append(current)
    forward.reverse()

    current = meeting
    backward: list[VertexId] = []
    while current != destination:
        current = parent_b[current]
        backward.append(current)

    return Path.of(forward + backward)


def bidirectional_by_feature(
    network: RoadNetwork,
    source: VertexId,
    destination: VertexId,
    feature: CostFeature = CostFeature.TRAVEL_TIME,
) -> Path:
    """Bidirectional search using a built-in cost feature."""
    return bidirectional_dijkstra(network, source, destination, cost_function(feature))
