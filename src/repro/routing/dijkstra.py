"""Dijkstra's algorithm and cost-specific convenience wrappers.

This is the workhorse single-source shortest-path routine used by the
Shortest / Fastest baselines, by preference learning (lowest-cost paths per
cost feature), and as a building block inside the L2R pipeline.

Queries whose edge cost maps onto a compiled cost array run on scipy's C
Dijkstra over the CSR view (:mod:`repro.network.compiled`); opaque edge-cost
callables, and cost views with a zero weight, fall back to
:func:`dict_dijkstra`, the dict-based reference implementation.  Both
produce identical paths.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable

from ..exceptions import NoPathError, VertexNotFoundError
from ..network.compiled import dispatch as _compiled
from ..network.road_network import RoadNetwork, VertexId
from .costs import CostFeature, EdgeCost, cost_function
from .path import Path


def dijkstra(
    network: RoadNetwork,
    source: VertexId,
    destination: VertexId,
    edge_cost: EdgeCost,
) -> Path:
    """Lowest-cost path from ``source`` to ``destination``.

    ``edge_cost`` maps an :class:`Edge` to a non-negative cost.  Raises
    :class:`NoPathError` when the destination is unreachable.
    """
    if source not in network:
        raise VertexNotFoundError(source)
    if destination not in network:
        raise VertexNotFoundError(destination)
    if source == destination:
        return Path.of([source])

    vertices = _compiled.try_dijkstra(network, source, destination, edge_cost)
    if vertices is not None:
        return Path.of(vertices)
    return dict_dijkstra(network, source, destination, edge_cost)


def dict_dijkstra(
    network: RoadNetwork,
    source: VertexId,
    destination: VertexId,
    edge_cost: EdgeCost,
) -> Path:
    """The dict-based reference implementation (no compiled dispatch).

    Kept as the fallback for opaque edge costs and zero weights, and as the
    ground truth the equivalence tests and benchmarks compare the compiled
    search against.
    """
    if source not in network:
        raise VertexNotFoundError(source)
    if destination not in network:
        raise VertexNotFoundError(destination)
    if source == destination:
        return Path.of([source])

    dist: dict[VertexId, float] = {source: 0.0}
    parent: dict[VertexId, VertexId] = {}
    visited: set[VertexId] = set()
    heap: list[tuple[float, VertexId]] = [(0.0, source)]

    while heap:
        cost_u, u = heapq.heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        if u == destination:
            return _reconstruct(parent, source, destination)
        for edge in network.out_edges(u):
            v = edge.target
            if v in visited:
                continue
            candidate = cost_u + edge_cost(edge)
            if candidate < dist.get(v, math.inf):
                dist[v] = candidate
                parent[v] = u
                heapq.heappush(heap, (candidate, v))

    raise NoPathError(source, destination)


def dict_dijkstra_costs(
    network: RoadNetwork,
    source: VertexId,
    edge_cost: EdgeCost,
    targets: Iterable[VertexId] | None = None,
) -> dict[VertexId, float]:
    """Single-source lowest costs to all (or the given) reachable vertices.

    The dict-based reference the compiled cost rows
    (:func:`repro.network.compiled.batch.dijkstra_many`) are checked against.
    When ``targets`` is given, the search stops as soon as every target has
    been settled, and only targets appear in the result.
    """
    if source not in network:
        raise VertexNotFoundError(source)
    target_set = set(targets) if targets is not None else None
    remaining = set(target_set) if target_set is not None else None
    dist: dict[VertexId, float] = {source: 0.0}
    visited: set[VertexId] = set()
    heap: list[tuple[float, VertexId]] = [(0.0, source)]
    result: dict[VertexId, float] = {}

    while heap:
        cost_u, u = heapq.heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        result[u] = cost_u
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for edge in network.out_edges(u):
            v = edge.target
            if v in visited:
                continue
            candidate = cost_u + edge_cost(edge)
            if candidate < dist.get(v, math.inf):
                dist[v] = candidate
                heapq.heappush(heap, (candidate, v))

    if target_set is not None:
        return {t: result[t] for t in result if t in target_set}
    return result


def _reconstruct(
    parent: dict[VertexId, VertexId], source: VertexId, destination: VertexId
) -> Path:
    vertices: list[VertexId] = [destination]
    current = destination
    while current != source:
        current = parent[current]
        vertices.append(current)
    vertices.reverse()
    return Path.of(vertices)


# --------------------------------------------------------------------------- #
# Convenience wrappers used throughout the library and the baselines.
# --------------------------------------------------------------------------- #
def shortest_path(network: RoadNetwork, source: VertexId, destination: VertexId) -> Path:
    """Distance-minimal path (the paper's *Shortest* baseline)."""
    return dijkstra(network, source, destination, cost_function(CostFeature.DISTANCE))


def fastest_path(network: RoadNetwork, source: VertexId, destination: VertexId) -> Path:
    """Travel-time-minimal path (the paper's *Fastest* baseline)."""
    return dijkstra(network, source, destination, cost_function(CostFeature.TRAVEL_TIME))


def lowest_cost_path(
    network: RoadNetwork,
    source: VertexId,
    destination: VertexId,
    feature: CostFeature,
) -> Path:
    """Lowest-cost path for an arbitrary travel-cost feature."""
    return dijkstra(network, source, destination, cost_function(feature))
