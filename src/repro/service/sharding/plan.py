"""Partitioning a road network into serving shards.

A :class:`ShardPlan` assigns every vertex to exactly one shard and records
the *boundary* structure the cross-shard overlay needs: the directed cut
edges (endpoints in different shards) and, per shard, the boundary vertices
— every endpoint of a cut edge.  Any s-t walk decomposes into maximal
intra-shard segments whose endpoints are boundary vertices (or s / t
themselves) joined by cut edges, which is exactly the decomposition the
overlay router exploits for exact cross-shard answers.

The default partitioner reuses the paper's Algorithm 1 modularity
clustering (:mod:`repro.regions`): the road network itself is treated as a
uniform-popularity trajectory graph, the resulting clusters are packed into
``shard_count`` balanced bins, and any stragglers (isolated vertices the
clustering never saw) join the smallest bin.  A plain BFS partitioner is
the fallback when clustering cannot produce enough usable units.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from ...exceptions import NetworkError
from ...network.road_network import RoadNetwork
from ...regions.clustering import cluster_trajectory_graph
from ...regions.trajectory_graph import TrajectoryGraph

if TYPE_CHECKING:  # pragma: no cover
    from ...network.road_network import VertexId


@dataclass(frozen=True)
class ShardPlan:
    """An immutable vertex partition plus its boundary structure.

    Picklable: shipped to every worker over the spawn pickle, so workers
    and the coordinator agree on shard membership byte for byte.
    """

    shard_count: int
    assignment: Mapping["VertexId", int]
    shards: tuple[tuple["VertexId", ...], ...]
    boundary: tuple[tuple["VertexId", ...], ...]
    """Per shard, the sorted boundary vertices (endpoints of cut edges)."""
    cut_edges: tuple[tuple["VertexId", "VertexId"], ...]
    """Directed edges whose endpoints live in different shards."""
    method: str = "regions"
    boundary_vertices: frozenset["VertexId"] = field(init=False, repr=False, compare=False)
    """Every shard's boundary vertices together (derived from ``boundary``)."""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "boundary_vertices", frozenset(v for shard in self.boundary for v in shard)
        )

    def shard_of(self, vertex: "VertexId") -> int | None:
        """The shard a vertex belongs to, or ``None`` for unknown vertices."""
        return self.assignment.get(vertex)

    def subnetwork(self, network: RoadNetwork, shard_id: int) -> RoadNetwork:
        """The induced sub-network of one shard (both endpoints inside)."""
        members = self.shards[shard_id]
        sub = RoadNetwork(name=f"{network.name}-shard{shard_id}")
        for vertex_id in members:
            vertex = network.vertex(vertex_id)
            sub.add_vertex(vertex_id, vertex.lon, vertex.lat)
        member_set = frozenset(members)
        for vertex_id in members:
            for target, edge in network.successors(vertex_id).items():
                if target in member_set:
                    sub.add_edge(
                        vertex_id,
                        target,
                        road_type=edge.road_type,
                        distance_m=edge.distance_m,
                        speed_kmh=edge.speed_kmh,
                        travel_time_s=edge.travel_time_s,
                        fuel_ml=edge.fuel_ml,
                    )
        return sub


def _pack_units(
    units: list[list["VertexId"]], shard_count: int
) -> dict["VertexId", int] | None:
    """Greedily pack partition units into balanced bins; ``None`` if any
    bin would come out empty (too few units for the requested shards)."""
    if len(units) < shard_count:
        return None
    loads = [0] * shard_count
    assignment: dict["VertexId", int] = {}
    for unit in sorted(units, key=len, reverse=True):
        bin_id = loads.index(min(loads))
        loads[bin_id] += len(unit)
        for vertex in unit:
            assignment[vertex] = bin_id
    if min(loads) == 0:
        return None
    return assignment


def _cluster_units(network: RoadNetwork) -> list[list["VertexId"]]:
    """Partition units from the paper's modularity clustering.

    The network's own edges stand in as a uniform-popularity trajectory
    graph: structure (not demand) drives the partition, which is exactly
    what shard balance wants.
    """
    trajectory_graph = TrajectoryGraph()
    for edge in network.edges():
        trajectory_graph.add_traversal(edge.source, edge.target, edge.road_type)
    result = cluster_trajectory_graph(trajectory_graph, enforce_road_types=False)
    return [sorted(cluster) for cluster in result.clusters if cluster]


def _bfs_units(network: RoadNetwork, shard_count: int) -> list[list["VertexId"]]:
    """Contiguous chunks of roughly equal size via BFS over the undirected
    adjacency — the deterministic fallback partitioner."""
    vertices = sorted(network.vertex_ids())
    if not vertices:
        return []
    target = max(1, (len(vertices) + shard_count - 1) // shard_count)
    unassigned = set(vertices)
    units: list[list["VertexId"]] = []
    for seed in vertices:
        if seed not in unassigned:
            continue
        unit: list["VertexId"] = []
        queue: deque["VertexId"] = deque([seed])
        unassigned.discard(seed)
        while queue and len(unit) < target:
            vertex = queue.popleft()
            unit.append(vertex)
            for neighbor in sorted(network.neighbors(vertex)):
                if neighbor in unassigned:
                    unassigned.discard(neighbor)
                    queue.append(neighbor)
        # Vertices pulled into the queue but not placed return to the pool.
        for vertex in queue:
            unassigned.add(vertex)
        units.append(sorted(unit))
    return units


def _boundary_structure(
    network: RoadNetwork, assignment: Mapping["VertexId", int], shard_count: int
) -> tuple[tuple[tuple["VertexId", ...], ...], tuple[tuple["VertexId", "VertexId"], ...]]:
    boundary_sets: list[set["VertexId"]] = [set() for _ in range(shard_count)]
    cut_edges: list[tuple["VertexId", "VertexId"]] = []
    for edge in network.edges():
        shard_u = assignment[edge.source]
        shard_v = assignment[edge.target]
        if shard_u != shard_v:
            cut_edges.append((edge.source, edge.target))
            boundary_sets[shard_u].add(edge.source)
            boundary_sets[shard_v].add(edge.target)
    return (
        tuple(tuple(sorted(vertices)) for vertices in boundary_sets),
        tuple(sorted(cut_edges)),
    )


def build_shard_plan(
    network: RoadNetwork, shard_count: int, *, method: str = "regions"
) -> ShardPlan:
    """Partition ``network`` into ``shard_count`` shards.

    ``method="regions"`` (default) packs Algorithm-1 clusters into balanced
    bins, falling back to BFS chunks when clustering yields fewer usable
    units than shards; ``method="bfs"`` forces the fallback partitioner.
    """
    vertex_count = network.vertex_count
    if shard_count < 1:
        raise NetworkError(f"shard_count must be >= 1, got {shard_count}")
    if vertex_count == 0:
        raise NetworkError("cannot shard an empty network")
    if shard_count > vertex_count:
        raise NetworkError(
            f"cannot split {vertex_count} vertices into {shard_count} shards"
        )

    chosen = method
    if shard_count == 1:
        assignment = {vertex: 0 for vertex in network.vertex_ids()}
    else:
        if method == "regions":
            units = _cluster_units(network)
            covered = {vertex for unit in units for vertex in unit}
            stragglers = sorted(set(network.vertex_ids()) - covered)
            if stragglers:
                units.append(stragglers)
            assignment = _pack_units(units, shard_count)
            if assignment is None:
                chosen = "bfs"
        elif method == "bfs":
            assignment = None
            chosen = "bfs"
        else:
            raise NetworkError(f"unknown shard-plan method {method!r}")
        if chosen == "bfs":
            units = _bfs_units(network, shard_count)
            # BFS chunking can come up one unit short on tiny networks;
            # halving the largest unit always restores feasibility.
            while len(units) < shard_count and any(len(unit) > 1 for unit in units):
                largest = max(units, key=len)
                units.remove(largest)
                mid = len(largest) // 2
                units.append(largest[:mid])
                units.append(largest[mid:])
            assignment = _pack_units(units, shard_count)
        if assignment is None:
            raise NetworkError(
                f"could not produce {shard_count} non-empty shards for "
                f"{vertex_count} vertices"
            )

    shards = tuple(
        tuple(sorted(v for v, shard in assignment.items() if shard == k))
        for k in range(shard_count)
    )
    boundary, cut_edges = _boundary_structure(network, assignment, shard_count)
    return ShardPlan(
        shard_count=shard_count,
        assignment=assignment,
        shards=shards,
        boundary=boundary,
        cut_edges=cut_edges,
        method=chosen,
    )
