"""Algorithm 1: bottom-up, modularity-based, road-type-constrained clustering.

The algorithm works on a *working graph* whose nodes start as the simple
vertices of the trajectory graph and become aggregate vertices as merges
happen.  A priority queue ordered by popularity repeatedly pops the most
popular node ``vk``; adjacent nodes pass the qualification check
(:func:`check_qualification`, Table I) when the modularity gain is positive
and the road types are consistent; the merge selection
(:func:`select_for_merge`) keeps the largest same-road-type subset when ``vk``
is simple; edges to rejected neighbours are cut; the selected neighbours are
merged into a new aggregate vertex that goes back into the queue.  Nodes that
end up with no neighbours become regions.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from ..exceptions import ClusteringError
from ..network.road_types import RoadType
from ..network.road_network import VertexId
from .modularity import modularity_gain
from .trajectory_graph import TrajectoryGraph


@dataclass
class ClusterNode:
    """A node of the working graph: a simple vertex or an aggregate vertex."""

    node_id: int
    members: set[VertexId]
    popularity: float
    road_type: RoadType | None = None
    """``None`` for simple vertices; the aggregate's road type otherwise."""

    @property
    def is_aggregate(self) -> bool:
        return self.road_type is not None or len(self.members) > 1


@dataclass
class ClusteringResult:
    """The output of Algorithm 1."""

    clusters: list[set[VertexId]]
    cluster_road_types: list[RoadType | None]
    merges: int = 0
    iterations: int = 0

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)


@dataclass
class _WorkingGraph:
    """Mutable popularity/road-type adjacency used during clustering."""

    nodes: dict[int, ClusterNode] = field(default_factory=dict)
    popularity: dict[tuple[int, int], float] = field(default_factory=dict)
    road_type: dict[tuple[int, int], RoadType] = field(default_factory=dict)
    adjacency: dict[int, set[int]] = field(default_factory=dict)
    total_popularity: float = 0.0

    @staticmethod
    def _key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def edge_popularity(self, a: int, b: int) -> float:
        return self.popularity.get(self._key(a, b), 0.0)

    def edge_road_type(self, a: int, b: int) -> RoadType:
        return self.road_type[self._key(a, b)]

    def remove_edge(self, a: int, b: int) -> None:
        key = self._key(a, b)
        self.popularity.pop(key, None)
        self.road_type.pop(key, None)
        self.adjacency.get(a, set()).discard(b)
        self.adjacency.get(b, set()).discard(a)

    def add_edge(self, a: int, b: int, popularity: float, road_type: RoadType) -> None:
        key = self._key(a, b)
        if key in self.popularity:
            # Parallel edges after a merge: popularities accumulate, the road
            # type of the more popular constituent wins.
            if popularity > self.popularity[key]:
                self.road_type[key] = road_type
            self.popularity[key] += popularity
        else:
            self.popularity[key] = popularity
            self.road_type[key] = road_type
        self.adjacency.setdefault(a, set()).add(b)
        self.adjacency.setdefault(b, set()).add(a)

    def remove_node(self, node_id: int) -> None:
        for neighbor in list(self.adjacency.get(node_id, ())):
            self.remove_edge(node_id, neighbor)
        self.adjacency.pop(node_id, None)
        self.nodes.pop(node_id, None)


def check_qualification(
    graph: _WorkingGraph, vk: ClusterNode, vj: ClusterNode
) -> bool:
    """``CheckQ(vk, vj)``: positive modularity gain plus Table I road-type rules."""
    edge_pop = graph.edge_popularity(vk.node_id, vj.node_id)
    gain = modularity_gain(edge_pop, vk.popularity, vj.popularity, graph.total_popularity)
    if gain <= 0.0:
        return False
    edge_rt = graph.edge_road_type(vk.node_id, vj.node_id)
    k_simple = not vk.is_aggregate
    j_simple = not vj.is_aggregate
    if k_simple and j_simple:
        return True
    if not k_simple and j_simple:
        return vk.road_type == edge_rt
    if k_simple and not j_simple:
        return vj.road_type == edge_rt
    return vk.road_type == vj.road_type


def select_for_merge(
    graph: _WorkingGraph, vk: ClusterNode, qualified: list[ClusterNode]
) -> list[ClusterNode]:
    """``SelectM(vk, VB)``: the subset of qualified neighbours to merge.

    If ``vk`` is an aggregate vertex all qualified neighbours are selected
    (Table I already forced their road types to match).  If ``vk`` is simple,
    the largest subset whose connecting edges share a single road type wins.
    """
    if not qualified:
        return []
    if vk.is_aggregate:
        return list(qualified)
    by_road_type: dict[RoadType, list[ClusterNode]] = {}
    for node in qualified:
        road_type = graph.edge_road_type(vk.node_id, node.node_id)
        by_road_type.setdefault(road_type, []).append(node)
    best_type = max(by_road_type, key=lambda rt: (len(by_road_type[rt]), -int(rt)))
    return by_road_type[best_type]


class BottomUpClustering:
    """Runs Algorithm 1 over a :class:`TrajectoryGraph`."""

    def __init__(self, enforce_road_types: bool = True) -> None:
        self._enforce_road_types = enforce_road_types
        self._id_counter = itertools.count()

    # ------------------------------------------------------------------ #
    def cluster(self, trajectory_graph: TrajectoryGraph) -> ClusteringResult:
        """Cluster the trajectory graph into regions."""
        if trajectory_graph.vertex_count == 0:
            raise ClusteringError("cannot cluster an empty trajectory graph")

        graph = self._build_working_graph(trajectory_graph)
        # Priority queue of (-popularity, tiebreak, node_id); stale entries are
        # skipped when popped (lazy deletion).
        heap: list[tuple[float, int, int]] = []
        alive: set[int] = set(graph.nodes)
        for node in graph.nodes.values():
            heapq.heappush(heap, (-node.popularity, node.node_id, node.node_id))

        clusters: list[set[VertexId]] = []
        cluster_types: list[RoadType | None] = []
        merges = 0
        iterations = 0

        while heap:
            _, _, node_id = heapq.heappop(heap)
            if node_id not in alive:
                continue
            vk = graph.nodes[node_id]
            iterations += 1

            adjacent_ids = list(graph.adjacency.get(node_id, set()))
            if not adjacent_ids:
                clusters.append(set(vk.members))
                cluster_types.append(vk.road_type)
                alive.discard(node_id)
                graph.remove_node(node_id)
                continue

            adjacent = [graph.nodes[a] for a in adjacent_ids]
            qualified = [vj for vj in adjacent if self._check(graph, vk, vj)]
            selected = select_for_merge(graph, vk, qualified)
            selected_ids = {vj.node_id for vj in selected}

            # Cut the graph between vk and the rejected neighbours.
            for vj in adjacent:
                if vj.node_id not in selected_ids:
                    graph.remove_edge(node_id, vj.node_id)

            if not selected:
                # Nothing to merge; vk will be popped again and either merge
                # later (if new edges appear - they cannot) or become a
                # cluster because all its edges were just removed.
                heapq.heappush(heap, (-vk.popularity, vk.node_id, vk.node_id))
                continue

            merged = self._merge(graph, vk, selected)
            merges += len(selected)
            alive.discard(node_id)
            for vj in selected:
                alive.discard(vj.node_id)
            alive.add(merged.node_id)
            heapq.heappush(heap, (-merged.popularity, merged.node_id, merged.node_id))

        return ClusteringResult(
            clusters=clusters,
            cluster_road_types=cluster_types,
            merges=merges,
            iterations=iterations,
        )

    # ------------------------------------------------------------------ #
    def _check(self, graph: _WorkingGraph, vk: ClusterNode, vj: ClusterNode) -> bool:
        if self._enforce_road_types:
            return check_qualification(graph, vk, vj)
        edge_pop = graph.edge_popularity(vk.node_id, vj.node_id)
        gain = modularity_gain(edge_pop, vk.popularity, vj.popularity, graph.total_popularity)
        return gain > 0.0

    def _build_working_graph(self, trajectory_graph: TrajectoryGraph) -> _WorkingGraph:
        graph = _WorkingGraph()
        vertex_to_node: dict[VertexId, int] = {}
        for vertex in trajectory_graph.vertices():
            node_id = next(self._id_counter)
            vertex_to_node[vertex] = node_id
            graph.nodes[node_id] = ClusterNode(
                node_id=node_id,
                members={vertex},
                popularity=float(trajectory_graph.vertex_popularity(vertex)),
                road_type=None,
            )
            graph.adjacency[node_id] = set()
        for edge in trajectory_graph.edges():
            graph.add_edge(
                vertex_to_node[edge.u],
                vertex_to_node[edge.v],
                popularity=float(edge.popularity),
                road_type=edge.road_type,
            )
        graph.total_popularity = float(trajectory_graph.total_popularity())
        return graph

    def _merge(
        self, graph: _WorkingGraph, vk: ClusterNode, selected: list[ClusterNode]
    ) -> ClusterNode:
        """Merge ``vk`` with all selected neighbours into one aggregate node."""
        new_id = next(self._id_counter)
        members = set(vk.members)
        popularity = vk.popularity
        # The aggregate road type: for a simple vk it is the road type of the
        # merging edges (all selected edges share it by SelectM); an aggregate
        # vk keeps its own road type (Table I forced consistency).
        if vk.is_aggregate:
            road_type = vk.road_type
        else:
            road_type = graph.edge_road_type(vk.node_id, selected[0].node_id)

        merged_ids = {vk.node_id} | {vj.node_id for vj in selected}
        for vj in selected:
            members |= vj.members
            popularity += vj.popularity

        new_node = ClusterNode(
            node_id=new_id, members=members, popularity=popularity, road_type=road_type
        )
        graph.nodes[new_id] = new_node
        graph.adjacency[new_id] = set()

        # Re-wire edges from the merged nodes to the outside world.
        for old_id in merged_ids:
            for neighbor in list(graph.adjacency.get(old_id, set())):
                if neighbor in merged_ids:
                    continue
                pop = graph.edge_popularity(old_id, neighbor)
                rt = graph.edge_road_type(old_id, neighbor)
                graph.add_edge(new_id, neighbor, pop, rt)
            graph.remove_node(old_id)
        return new_node


def cluster_trajectory_graph(
    trajectory_graph: TrajectoryGraph, enforce_road_types: bool = True
) -> ClusteringResult:
    """Convenience wrapper: run Algorithm 1 with default settings."""
    return BottomUpClustering(enforce_road_types=enforce_road_types).cluster(trajectory_graph)
