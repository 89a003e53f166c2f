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

import math
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import NoPathError
from ..network.road_network import Edge, RoadNetwork, VertexId
from ..network.road_types import RoadType
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
    def build() -> np.ndarray:
        satisfied = np.zeros(max(RoadType) + 1, dtype=bool)
        for road_type in RoadType:
            satisfied[road_type] = slave.satisfied_by(road_type)
        return satisfied[graph.road_type_values]

    return graph.memo(("slave-mask", slave), build, cost_dependent=False)  # type: ignore[return-value]


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
            satisfied(out.road_type) for out in self._network.out_edges(edge.source)
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
        tails = graph.topology.tails
        none_allowed = np.bincount(tails[allowed], minlength=graph.vertex_count) == 0
        relaxed = allowed | none_allowed[tails]
        return np.where(relaxed, graph.array(self._master.cost_attr), math.inf)
