"""Routing on the region graph (Section VI).

Case 1: both endpoints lie inside regions.  Same-region requests are answered
from inner-region paths (most traversed first) with a fastest-path fallback.
Cross-region requests first find a *region path* on the region graph — the
search greedily follows region edges that bring it geometrically closer to the
destination region, using a direct edge whenever one exists — and then map
the region path back to a road-network path: the trajectory paths stored on
its region edges form a *corridor*, and one search over corridor-discounted
costs connects the request's exact endpoints through it.

Case 2: at least one endpoint is outside all regions.  A fastest path between
the endpoints is computed; the first and last region-covered vertices on it
select the source / destination regions, and the final answer is the fastest
prefix + the Case-1 path + the fastest suffix.  When no or only one candidate
region is touched, the fastest path itself is returned.

The router reads the fitted region graph once, when it is constructed, into
:class:`_RegionTables`: every region edge's and every region's trajectory
paths as CSR slot arrays of the road network, next to the region-level values
a request looks up (neighbour sets, centroids, modal preferences).  A request
then assembles its corridor with two array operations instead of re-walking
the stored paths in Python.  Build a new router after changing the region
graph; a change of the road network's *topology* is noticed by itself.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from ..exceptions import NoPathError
from ..network.road_network import Edge, VertexId
from ..network.spatial import LonLat, equirectangular_m
from ..regions.region import RegionId
from ..regions.region_graph import RegionEdge, RegionGraph
from ..routing.costs import CostFeature, cost_function
from ..routing.dijkstra import dijkstra, fastest_path
from ..routing.path import Path
from ..routing.preference_dijkstra import preference_dijkstra, slave_mask

if TYPE_CHECKING:  # pragma: no cover
    from ..network.compiled import CompiledGraph
    from ..preferences.model import PreferenceVector

PathCount = tuple[tuple[VertexId, ...], int]
"""One stored trajectory path: its vertices and how often it was driven."""


@dataclass(frozen=True)
class RouteDiagnostics:
    """How a routing request was answered (used in evaluation breakdowns)."""

    case: str
    """``"in-region-same"``, ``"in-region"``, ``"in-out-region"``, ``"out-region"``,
    ``"fallback-fastest"``, ``"cost-override"`` (service-level override), or
    ``"degraded-stale"`` (resilience layer served a stale cached route)."""
    region_hops: int = 0
    used_b_edges: int = 0
    served_cost_version: int | None = None
    """For ``"degraded-stale"`` answers: the network cost version the served
    path was computed under (``None`` elsewhere) — consumers can tell exactly
    how stale a degraded route is."""


def _hop_counts(path_counts: Iterable[PathCount]) -> dict[tuple[VertexId, VertexId], int]:
    """How often the given trajectory paths traversed each road-network edge.

    Every hop counts for both directions: drivers used the road, whichever
    way the request now travels along it.
    """
    corridor: dict[tuple[VertexId, VertexId], int] = {}
    for vertices, count in path_counts:
        for hop in zip(vertices, vertices[1:]):
            corridor[hop] = corridor.get(hop, 0) + count
            reverse = (hop[1], hop[0])
            corridor[reverse] = corridor.get(reverse, 0) + count
    return corridor


class _Hops(NamedTuple):
    """The trajectory paths of one region edge (or inside one region)."""

    paths: tuple[PathCount, ...]
    slots: np.ndarray
    """CSR slots of :func:`_hop_counts` of ``paths`` (int64, distinct); hops
    whose reverse direction is not a road-network edge have no slot."""
    counts: np.ndarray
    """Traversal count per entry of ``slots`` (float64, whole numbers)."""


@dataclass(frozen=True)
class _RegionTables:
    """What a request reads of the region graph; immutable once built."""

    topology_version: int
    """``network.topology_version`` the slots were looked up under."""
    edge_count: int
    discount: np.ndarray
    """``discount[k] = 1 + log1p(k)`` from ``math.log1p``, so array and dict
    corridor costs agree to the bit (``np.log1p`` differs in the last place)."""
    steps: dict[tuple[RegionId, RegionId], tuple[RegionEdge, _Hops]]
    """Per ordered pair of adjacent regions: the region edge that joins them
    (the reverse edge where only that one exists) and its compiled paths."""
    inner: dict[RegionId, _Hops]
    neighbors: dict[RegionId, frozenset[RegionId]]
    centroids: dict[RegionId, LonLat]
    preferences: dict[RegionId, "PreferenceVector"]
    """The most common preference among each region's region edges."""


def _compile_tables(graph: RegionGraph) -> _RegionTables:
    network = graph.network
    # Read the stamp first: a mutation racing the build leaves it stale.
    topology_version = network.topology_version
    topology = network.compiled().topology
    slot_of = topology.slot_of
    totals = np.zeros(topology.edge_count, dtype=np.float64)

    def hops(paths: tuple[PathCount, ...]) -> _Hops:
        found = [
            (slot_of[hop], count) for hop, count in _hop_counts(paths).items() if hop in slot_of
        ]
        slots = np.array([slot for slot, _ in found], dtype=np.int64)
        counts = np.array([count for _, count in found], dtype=np.float64)
        totals[slots] += counts
        return _Hops(paths, slots, counts)

    votes: dict[RegionId, Counter] = defaultdict(Counter)
    edges: dict[tuple[RegionId, RegionId], tuple[RegionEdge, _Hops]] = {}
    for edge in graph.edges():
        edges[edge.key] = (edge, hops(tuple(edge.path_counts.items())))
        if edge.preference is not None:
            for region_id in {edge.region_a, edge.region_b}:
                votes[region_id][edge.preference] += 1
    neighbors = graph.adjacency()
    inner = {r: hops(graph.inner_path_counts(r)) for r in neighbors}
    # No request counts an edge more often than all stored paths together do.
    most = int(totals.max()) if totals.size else 0
    return _RegionTables(
        topology_version=topology_version,
        edge_count=topology.edge_count,
        steps={
            (a, b): edges.get((a, b)) or edges[(b, a)]
            for a, adjacent in neighbors.items()
            for b in adjacent
        },
        inner=inner,
        neighbors=neighbors,
        centroids={r: graph.region_centroid(r) for r in neighbors},
        preferences={r: counter.most_common(1)[0][0] for r, counter in votes.items()},
        discount=np.array([1.0 + math.log1p(k) for k in range(most + 1)], dtype=np.float64),
    )


class _CorridorCost:
    """Edge cost of one cross-region request: hug the trajectory corridor.

    The master cost of the (learned or transferred) preference is used,
    discounted on corridor edges — the more trajectories traversed an edge,
    the stronger the discount — so the answer follows the roads local drivers
    chose while still adapting to the query's exact endpoints; edges violating
    the slave road-condition preference outside the corridor are mildly
    penalized.  The compiled search asks for :meth:`build_cost_array`; called
    per edge (``compiled_disabled()``), the ``{hop: count}`` reference is used.
    """

    def __init__(
        self, preference: "PreferenceVector | None", tables: _RegionTables, hops: list[_Hops]
    ) -> None:
        feature = preference.master if preference is not None else CostFeature.TRAVEL_TIME
        self._master = cost_function(feature)
        self._slave = preference.slave if preference is not None else None
        self._tables = tables
        self._hops = hops
        self._corridor: dict[tuple[VertexId, VertexId], int] | None = None

    def __call__(self, edge: Edge) -> float:
        if self._corridor is None:
            self._corridor = _hop_counts(chain.from_iterable(h.paths for h in self._hops))
        cost = self._master(edge)
        count = self._corridor.get(edge.key, 0)
        if count > 0:
            return cost / (1.0 + math.log1p(count))
        if self._slave is not None and not self._slave.satisfied_by(edge.road_type):
            return cost * 1.5
        return cost

    def slot_counts(self) -> np.ndarray:
        """The corridor per CSR slot: traversal counts, zero off the corridor."""
        return np.bincount(
            np.concatenate([h.slots for h in self._hops]),
            weights=np.concatenate([h.counts for h in self._hops]),
            minlength=self._tables.edge_count,
        )

    def build_cost_array(self, graph: "CompiledGraph") -> np.ndarray:
        attr = self._master.cost_attr  # type: ignore[attr-defined]
        slave = self._slave

        def base() -> tuple[np.ndarray, np.ndarray]:
            raw = graph.array(attr)
            if slave is None:
                return raw, raw
            penalized = raw.copy()
            penalized[~slave_mask(graph, slave)] *= 1.5
            return raw, penalized

        # Stamped with the cost version: live traffic rebuilds it.
        raw, penalized = graph.memo(("corridor-base", attr, slave), base)
        counts = self.slot_counts()
        on_corridor = np.flatnonzero(counts)
        weights = penalized.copy()
        discount = self._tables.discount[counts[on_corridor].astype(np.intp)]
        weights[on_corridor] = raw[on_corridor] / discount
        return weights


class RegionRouter:
    """Answers (source, destination) requests using a fitted region graph."""

    _tables: _RegionTables | None = None  # models pickled before the tables existed

    def __init__(self, region_graph: RegionGraph, max_region_hops: int = 64) -> None:
        self._graph = region_graph
        self._network = region_graph.network
        self._max_region_hops = max_region_hops
        self._tables = _compile_tables(region_graph)

    def __getstate__(self) -> dict:
        # Slots index one process's CSR layout; a loaded model compiles anew.
        return {**self.__dict__, "_tables": None}

    def _current_tables(self) -> _RegionTables:
        tables = self._tables
        if tables is None or tables.topology_version != self._network.topology_version:
            # Unlocked on purpose: racing requests at worst both compile, and
            # either result is whole before it is published.
            tables = self._tables = _compile_tables(self._graph)
        return tables

    # ------------------------------------------------------------------ #
    def route(self, source: VertexId, destination: VertexId) -> Path:
        """Recommend a path; see :meth:`route_with_diagnostics`."""
        path, _ = self.route_with_diagnostics(source, destination)
        return path

    def route_with_diagnostics(
        self, source: VertexId, destination: VertexId
    ) -> tuple[Path, RouteDiagnostics]:
        """Recommend a path and report which routing case applied."""
        if source == destination:
            return Path.of([source]), RouteDiagnostics(case="in-region-same")

        region_s = self._graph.region_of(source)
        region_d = self._graph.region_of(destination)

        if region_s is not None and region_d is not None:
            if region_s == region_d:
                return self._route_same_region(source, destination, region_s)
            return self._route_between_regions(source, destination, region_s, region_d)
        return self._route_case2(source, destination, region_s, region_d)

    # ------------------------------------------------------------------ #
    # Case 1 — same region
    # ------------------------------------------------------------------ #
    def _route_same_region(
        self, source: VertexId, destination: VertexId, region_id: RegionId
    ) -> tuple[Path, RouteDiagnostics]:
        tables = self._current_tables()
        best: tuple[VertexId, ...] | None = None
        best_count = 0
        for vertices, count in tables.inner[region_id].paths:
            if count > best_count and source in vertices and destination in vertices:
                si = vertices.index(source)
                di = vertices.index(destination, si) if destination in vertices[si:] else -1
                if di > si:
                    best = vertices[si : di + 1]
                    best_count = count
        if best is not None:
            return Path(vertices=best), RouteDiagnostics(case="in-region-same")
        return (
            self._connector(source, destination, tables.preferences.get(region_id)),
            RouteDiagnostics(case="in-region-same"),
        )

    def _connector(
        self, source: VertexId, destination: VertexId, preference: "PreferenceVector | None"
    ) -> Path:
        """A short connecting path, preference-aware when a preference is known."""
        if source == destination:
            return Path.of([source])
        if preference is not None:
            try:
                return preference_dijkstra(self._network, source, destination, preference)
            except NoPathError:
                pass
        return fastest_path(self._network, source, destination)

    # ------------------------------------------------------------------ #
    # Case 1 — different regions
    # ------------------------------------------------------------------ #
    def _route_between_regions(
        self,
        source: VertexId,
        destination: VertexId,
        region_s: RegionId,
        region_d: RegionId,
        case_label: str = "in-region",
    ) -> tuple[Path, RouteDiagnostics]:
        tables = self._current_tables()
        # Greedy geometric walk on the region graph with a BFS fallback.
        region_path = self._greedy_region_walk(tables, region_s, region_d)
        if region_path is None:
            region_path = self._bfs_region_path(tables, region_s, region_d)
        if region_path is None:
            return (
                fastest_path(self._network, source, destination),
                RouteDiagnostics(case="fallback-fastest"),
            )

        # The region edges along the region path define the *corridor*: the
        # road-network edges that local drivers actually used when traveling
        # between these regions, plus the preference that explains them.
        # Inner-region paths of the endpoint regions belong to it too.
        steps = [tables.steps[pair] for pair in zip(region_path, region_path[1:])]
        preferences = [edge.preference for edge, _ in steps if edge.preference is not None]
        preference = Counter(preferences).most_common(1)[0][0] if preferences else None
        hops = [hops for _, hops in steps]
        hops += (tables.inner[region_s], tables.inner[region_d])
        try:
            path = dijkstra(
                self._network, source, destination, _CorridorCost(preference, tables, hops)
            )
        except NoPathError:
            path = fastest_path(self._network, source, destination)
        return path, RouteDiagnostics(
            case=case_label,
            region_hops=len(steps),
            used_b_edges=sum(edge.is_b_edge for edge, _ in steps),
        )

    def _greedy_region_walk(
        self, tables: _RegionTables, region_s: RegionId, region_d: RegionId
    ) -> list[RegionId] | None:
        centroids = tables.centroids
        goal = centroids[region_d]

        def distance_to_goal(region: RegionId) -> float:
            return equirectangular_m(centroids[region], goal)

        current = region_s
        path = [current]
        visited = {current}
        for _ in range(self._max_region_hops):
            if current == region_d:
                return path
            neighbors = tables.neighbors[current]
            if region_d in neighbors:
                path.append(region_d)
                return path
            candidates = [n for n in neighbors if n not in visited]
            if not candidates:
                return None
            # Prefer the neighbour whose centroid is closest to the goal, and
            # only move if it actually makes geometric progress.
            best = min(candidates, key=distance_to_goal)
            if len(path) > 1 and distance_to_goal(best) >= distance_to_goal(current):
                return None
            path.append(best)
            visited.add(best)
            current = best
        return None

    def _bfs_region_path(
        self, tables: _RegionTables, region_s: RegionId, region_d: RegionId
    ) -> list[RegionId] | None:
        """Fewest-region-edge path (the paper prefers few region edges)."""
        parent: dict[RegionId, RegionId] = {}
        seen = {region_s}
        queue: deque[RegionId] = deque([region_s])
        while queue:
            current = queue.popleft()
            if current == region_d:
                path = [current]
                while current != region_s:
                    current = parent[current]
                    path.append(current)
                path.reverse()
                return path
            for neighbor in tables.neighbors[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    parent[neighbor] = current
                    queue.append(neighbor)
        return None

    # ------------------------------------------------------------------ #
    # Case 2 — endpoints outside regions
    # ------------------------------------------------------------------ #
    def _route_case2(
        self,
        source: VertexId,
        destination: VertexId,
        region_s: RegionId | None,
        region_d: RegionId | None,
    ) -> tuple[Path, RouteDiagnostics]:
        case_label = "out-region" if region_s is None and region_d is None else "in-out-region"
        baseline = fastest_path(self._network, source, destination)
        # The first and last region-covered vertices on the fastest path.
        region_of = self._graph.region_of
        covered = [
            (index, region)
            for index, vertex in enumerate(baseline.vertices)
            if (region := region_of(vertex)) is not None
        ]
        if len(covered) < 2 or covered[0][1] == covered[-1][1]:
            return baseline, RouteDiagnostics(case=case_label)

        (first_idx, first_region), (last_idx, last_region) = covered[0], covered[-1]
        anchor_s = baseline.vertices[first_idx]
        anchor_d = baseline.vertices[last_idx]
        prefix = Path(vertices=baseline.vertices[: first_idx + 1])
        suffix = Path(vertices=baseline.vertices[last_idx:])
        middle, diagnostics = self._route_between_regions(
            anchor_s, anchor_d, first_region, last_region, case_label=case_label
        )
        combined = prefix.splice(middle).splice(suffix)
        return _remove_cycles(combined), RouteDiagnostics(
            case=case_label,
            region_hops=diagnostics.region_hops,
            used_b_edges=diagnostics.used_b_edges,
        )


def _remove_cycles(path: Path) -> Path:
    """Remove loops (repeated vertices) that stitching may introduce."""
    seen: dict[VertexId, int] = {}
    vertices: list[VertexId] = []
    for vertex in path.vertices:
        if vertex in seen:
            # Cut the loop: drop everything after the first occurrence.
            cut = seen[vertex]
            for removed in vertices[cut + 1 :]:
                seen.pop(removed, None)
            vertices = vertices[: cut + 1]
        else:
            seen[vertex] = len(vertices)
            vertices.append(vertex)
    if len(vertices) < 1:
        return path
    return Path.of(vertices)
