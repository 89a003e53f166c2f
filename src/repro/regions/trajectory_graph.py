"""The trajectory graph (Section IV-A setting).

The trajectory graph is the sub-graph of the road network induced by the
vertices and edges that are traversed by at least one trajectory.  Each edge
carries a *popularity* ``s_ij`` — the number of trajectories that traversed it
— and a road type; each vertex carries popularity ``S_i = sum_j s_ij``.  The
graph is undirected (travel in either direction counts toward the same edge),
matching the modularity formulation of the clustering step.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..network.road_network import RoadNetwork, VertexId
from ..network.road_types import RoadType
from ..trajectories.models import MatchedTrajectory


@dataclass(frozen=True)
class TrajectoryGraphEdge:
    """An undirected trajectory-graph edge with its popularity and road type."""

    u: VertexId
    v: VertexId
    popularity: int
    road_type: RoadType


def _ordered(u: VertexId, v: VertexId) -> tuple[VertexId, VertexId]:
    return (u, v) if u <= v else (v, u)


class TrajectoryGraph:
    """Undirected popularity-weighted graph of trajectory-covered roads."""

    def __init__(self) -> None:
        self._popularity: dict[tuple[VertexId, VertexId], int] = {}
        self._road_type: dict[tuple[VertexId, VertexId], RoadType] = {}
        self._adjacency: dict[VertexId, set[VertexId]] = defaultdict(set)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_trajectories(
        cls,
        network: RoadNetwork,
        trajectories: Sequence[MatchedTrajectory],
    ) -> "TrajectoryGraph":
        """Build the trajectory graph of a matched trajectory set."""
        graph = cls()
        for trajectory in trajectories:
            for source, target in trajectory.path.edge_keys:
                road_type = network.w_rt(source, target)
                graph.add_traversal(source, target, road_type)
        return graph

    def add_traversal(self, u: VertexId, v: VertexId, road_type: RoadType, count: int = 1) -> None:
        """Record ``count`` trajectory traversals of the edge ``(u, v)``."""
        key = _ordered(u, v)
        self._popularity[key] = self._popularity.get(key, 0) + count
        self._road_type.setdefault(key, road_type)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    # ------------------------------------------------------------------ #
    @property
    def vertex_count(self) -> int:
        return len(self._adjacency)

    def vertices(self) -> Iterator[VertexId]:
        return iter(self._adjacency.keys())

    def edges(self) -> Iterator[TrajectoryGraphEdge]:
        for (u, v), popularity in self._popularity.items():
            yield TrajectoryGraphEdge(
                u=u, v=v, popularity=popularity, road_type=self._road_type[(u, v)]
            )

    def edge_popularity(self, u: VertexId, v: VertexId) -> int:
        """``s_ij`` — the number of trajectories that traversed the edge."""
        return self._popularity.get(_ordered(u, v), 0)

    def vertex_popularity(self, vertex: VertexId) -> int:
        """``S_i = sum_j s_ij`` over edges incident to ``vertex``."""
        return sum(self.edge_popularity(vertex, other) for other in self._adjacency.get(vertex, ()))

    def total_popularity(self) -> int:
        """``S`` — the sum of popularities of all edges in the graph."""
        return sum(self._popularity.values())
