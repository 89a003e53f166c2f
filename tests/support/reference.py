"""Dict-based reference implementation of Algorithm 2.

The library runs Algorithm 2 as plain Dijkstra over a slave-masked cost view
(:func:`repro.routing.preference_dijkstra.preference_cost`); this is the
paper's pseudo-code transcribed directly — a heap over the dict adjacency,
Case (i) / Case (ii) decided per expanded vertex — that the equivalence
tests hold the compiled path to.
"""

from __future__ import annotations

import heapq
import math

from repro.exceptions import NoPathError
from repro.network.road_network import Edge, RoadNetwork, VertexId
from repro.preferences.model import PreferenceVector
from repro.routing import Path, cost_function, dijkstra


def edges_by_slot(network: RoadNetwork) -> list[Edge]:
    """The network's edges in CSR slot order: the per-edge side of a
    slot-for-slot check against a compiled cost array."""
    slot_of = network.compiled().topology.slot_of
    return sorted(network.edges(), key=lambda edge: slot_of[edge.key])


def dict_preference_search(
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

        out_edges = network.out_edges(u)
        # Case (i): at least one outgoing edge satisfies the slave preference
        # -> expand only those edges.  Case (ii): none does -> expand all.
        none_satisfies = not any(satisfies_slave(edge) for edge in out_edges)
        for edge in out_edges:
            v = edge.target
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
