"""Contraction hierarchies (CH).

The paper mentions contraction hierarchies [16] as the standard query-time
speed-up for cost-centric routing and notes that such speed-ups are orthogonal
to accuracy.  This module is the routing-side handle on the library's one
hierarchy, :class:`~repro.network.compiled.ch.CompiledHierarchy`: a
customizable arc set contracted from the topology alone, queried through
elimination-tree hub labels, and re-weighted in place when live traffic moves
the edge costs.

A hierarchy is prebuilt array state, like a landmark table — not a search
with a dict twin.  :func:`build_contraction_hierarchy` pays the whole
preprocessing in the call, no query builds anything, and
:func:`~repro.network.compiled.dispatch.compiled_disabled` does not change
what a CH query runs; the oracle for CH answers is
:func:`~repro.routing.dijkstra.dict_dijkstra`.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..exceptions import NoPathError, StaleHierarchyError, VertexNotFoundError
from ..network.compiled.ch import CompiledHierarchy
from ..network.road_network import RoadNetwork, VertexId
from .costs import CostFeature, EdgeCost, cost_function
from .path import Path


class ContractionHierarchy:
    """The contraction hierarchy of one network for one edge-cost function.

    Built eagerly: the constructor runs the full preprocessing.  The arc
    weights embed the network's costs as of the last build or
    :meth:`refresh`; ``built_version`` (``network.version`` then) and
    ``built_cost_version`` (``network.cost_version``, for monitoring) record
    that moment so :meth:`shortest_path` can detect live-traffic (or
    topology) drift instead of silently answering with pre-update costs.
    Vertex ids are translated through the hierarchy's own build-time
    topology snapshot, so a frozen (``on_stale="ignore"``) hierarchy keeps
    answering for the network it was built on.
    """

    def __init__(
        self,
        network: RoadNetwork,
        feature: CostFeature = CostFeature.TRAVEL_TIME,
        edge_cost: EdgeCost | None = None,
    ) -> None:
        self.build_args = (feature, edge_cost)
        self.built_version: int | None = None
        self.built_cost_version: int | None = None
        self._compiled: CompiledHierarchy | None = None
        self._lock = threading.Lock()
        self.refresh(network)

    @property
    def weights_version(self) -> int:
        """Monotonic version of the arc weights; bumped by every re-weight
        (the service layer keys its route cache on it); 0 again after a rebuild."""
        return self._compiled.weights_version

    @property
    def reweight_count(self) -> int:
        """Live-traffic re-weights absorbed since the last (re)build."""
        return self._compiled.reweight_count

    @property
    def arc_count(self) -> int:
        """Arcs of the chordal supergraph (base edges plus every shortcut).

        The fill — ``arc_count / edge_count`` — depends on how well the
        topology-only order separates each network: measure it, do not
        assume it from degree statistics.
        """
        return self._compiled.arc_count

    def is_stale(self, network: RoadNetwork) -> bool:
        """Whether ``network`` mutated (topology or costs) since the build."""
        return network.version != self.built_version

    def refresh(self, network: RoadNetwork) -> "ContractionHierarchy":
        """Bring this hierarchy up to date with the network, *in place*.

        While the network still has the topology the hierarchy was contracted
        from, this is a re-weight: only the arcs whose base costs changed are
        re-customized, O(touched arcs x their lower triangles).  After a
        structural mutation the hierarchy is rebuilt and swapped in by one
        reference assignment, so in-flight queries finish on the old one and
        every holder of this object sees current answers afterwards.
        Concurrent callers serialize on the lock and the late ones find the
        work done.  Returns ``self`` for chaining.
        """
        with self._lock:
            # Versions are read *before* the costs: a racing cost update can
            # then only make the weights newer than the stamp — the hierarchy
            # reads as stale once more, never as current over old weights.
            version = network.version
            cost_version = network.cost_version
            if version == self.built_version:
                return self
            graph = network.compiled()
            feature, edge_cost = self.build_args
            cost_fn = edge_cost or cost_function(feature)
            resolved = graph.resolve_cost(cost_fn)
            if resolved is not None:
                weights = np.asarray(resolved[1], dtype=np.float64)
            else:  # opaque callable: price every edge through it
                weights = np.empty(graph.edge_count, dtype=np.float64)
                weights[graph.topology.row_slots] = [cost_fn(edge) for edge in network.edges()]
            topology = graph.topology
            compiled = self._compiled
            if compiled is not None and compiled.topology is topology:
                compiled.reweight(weights)
            else:
                points = [network.vertex(vertex) for vertex in topology.vertex_ids]
                coordinates = ([p.lon for p in points], [p.lat for p in points])
                self._compiled = CompiledHierarchy(topology, weights, coordinates)
            self.built_version = version
            self.built_cost_version = cost_version
        return self

    def query_cost(self, source: VertexId, destination: VertexId) -> float:
        """Shortest-path cost between two vertices (``inf`` if unreachable)."""
        compiled = self._compiled
        index_of = compiled.topology.index_of
        s, d = index_of.get(source), index_of.get(destination)
        if s is None or d is None:
            return math.inf
        return compiled.query_cost(s, d)

    def query(self, source: VertexId, destination: VertexId) -> Path:
        """Shortest path between two vertices with shortcuts unpacked."""
        compiled = self._compiled
        topology = compiled.topology
        s, d = topology.index_of.get(source), topology.index_of.get(destination)
        indices = compiled.query_indices(s, d) if s is not None and d is not None else None
        if indices is None:
            raise NoPathError(source, destination)
        ids = topology.vertex_ids
        return Path.of([ids[i] for i in indices])

    def shortest_path(
        self,
        network: RoadNetwork,
        source: VertexId,
        destination: VertexId,
        on_stale: str = "raise",
    ) -> Path:
        """:meth:`query` guarded against drift between hierarchy and network.

        A network that mutated since the last build or refresh (live-traffic
        cost updates included) would silently get pre-update routes.
        ``on_stale`` picks the remedy: ``"raise"`` (default) raises
        :class:`~repro.exceptions.StaleHierarchyError`, ``"rebuild"`` runs
        :meth:`refresh` and then answers, ``"ignore"`` knowingly answers
        from the frozen structure.
        """
        if source not in network:
            raise VertexNotFoundError(source)
        if destination not in network:
            raise VertexNotFoundError(destination)
        if on_stale not in ("raise", "rebuild", "ignore"):
            raise ValueError(f"on_stale must be 'raise', 'rebuild', or 'ignore', not {on_stale!r}")
        if self.is_stale(network):
            if on_stale == "raise":
                raise StaleHierarchyError(self.built_version, network.version)
            if on_stale == "rebuild":
                self.refresh(network)
        return self.query(source, destination)


def build_contraction_hierarchy(
    network: RoadNetwork,
    feature: CostFeature = CostFeature.TRAVEL_TIME,
    edge_cost: EdgeCost | None = None,
) -> ContractionHierarchy:
    """Preprocess ``network`` into a :class:`ContractionHierarchy`.

    All of the preprocessing happens here — a fill-reducing order from the
    topology, the contraction, the customization of every arc weight — so
    the first query is as fast as any other.  ``edge_cost`` overrides
    ``feature``; a callable the compiled cost store cannot resolve to an
    array is applied edge by edge.
    """
    return ContractionHierarchy(network, feature, edge_cost)


def ch_shortest_path(
    network: RoadNetwork,
    source: VertexId,
    destination: VertexId,
    hierarchy: ContractionHierarchy,
    on_stale: str = "raise",
) -> Path:
    """:meth:`ContractionHierarchy.shortest_path`, in the argument order of the
    other :mod:`repro.routing` search functions (see there for ``on_stale``)."""
    return hierarchy.shortest_path(network, source, destination, on_stale)
