"""The region graph (Section IV-B).

Region vertices are the clusters produced by Algorithm 1.  Region edges come
from two sources:

* **T-edges** — for every trajectory that visits vertices of two regions, a
  region edge between those regions carries the concrete road-network path the
  trajectory used between leaving the first region and entering the second
  (plus the corresponding *transfer centers*);
* **B-edges** — added by a BFS-based procedure on the original road network so
  that the region graph becomes connected; B-edges initially carry no paths
  and later receive paths materialized from transferred preferences (Step 3).

The region graph also maintains *inner-region paths* — the sub-paths
trajectories used inside a region — which serve same-region routing requests.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..exceptions import RegionGraphError
from ..network.road_network import RoadNetwork, VertexId
from ..network.road_types import RoadType
from ..network.spatial import equirectangular_m
from ..routing.path import Path
from ..trajectories.models import MatchedTrajectory
from .clustering import ClusteringResult
from .region import Region, RegionId

if TYPE_CHECKING:  # pragma: no cover
    from ..preferences.model import PreferenceVector

MAX_REGION_PAIRS_PER_TRAJECTORY = 200
"""Cap on the T-edges one trajectory produces: a trajectory through ``m``
regions yields up to ``m(m-1)/2`` of them."""


@dataclass
class RegionEdge:
    """An edge of the region graph (either a T-edge or a B-edge)."""

    region_a: RegionId
    region_b: RegionId
    kind: str
    """``"T"`` for trajectory-derived edges, ``"B"`` for BFS-derived edges."""
    centroid_distance_m: float = 0.0
    functionality: frozenset[tuple[RoadType, RoadType]] = frozenset()
    """Cartesian product of the two regions' top-k road-type sets (``re.F``)."""
    path_counts: Counter = field(default_factory=Counter)
    """Multiset of paths (keyed by vertex tuple) used by trajectories."""
    transfer_pairs: set[tuple[VertexId, VertexId]] = field(default_factory=set)
    """``(exit transfer center in region_a, entry transfer center in region_b)``."""
    preference: "PreferenceVector | None" = None
    """Learned (T-edge) or transferred (B-edge) routing preference."""
    preference_transferred: bool = False
    """True when the preference came from the transfer step rather than learning."""

    @property
    def key(self) -> tuple[RegionId, RegionId]:
        return (self.region_a, self.region_b)

    @property
    def is_t_edge(self) -> bool:
        return self.kind == "T"

    @property
    def is_b_edge(self) -> bool:
        return self.kind == "B"

    def add_path(self, path: Path, count: int = 1) -> None:
        self.path_counts[path.vertices] += count

    def paths(self) -> list[Path]:
        """All distinct paths associated with this edge."""
        return [Path(vertices=vertices) for vertices in self.path_counts]


class RegionGraph:
    """The region graph ``G_R = (V_R, E_R)`` with T-edges and B-edges."""

    def __init__(self, network: RoadNetwork, regions: Sequence[Region]) -> None:
        self._network = network
        self._regions: dict[RegionId, Region] = {r.region_id: r for r in regions}
        self._vertex_to_region: dict[VertexId, RegionId] = {}
        for region in regions:
            for vertex in region.vertices:
                self._vertex_to_region[vertex] = region.region_id
        self._edges: dict[tuple[RegionId, RegionId], RegionEdge] = {}
        self._adjacency: dict[RegionId, set[RegionId]] = defaultdict(set)
        self._inner_paths: dict[RegionId, Counter] = defaultdict(Counter)
        self._transfer_centers: dict[RegionId, set[VertexId]] = defaultdict(set)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def region_count(self) -> int:
        return len(self._regions)

    def regions(self) -> Iterator[Region]:
        return iter(self._regions.values())

    def region(self, region_id: RegionId) -> Region:
        try:
            return self._regions[region_id]
        except KeyError:
            raise RegionGraphError(f"unknown region id {region_id}") from None

    def region_of(self, vertex: VertexId) -> RegionId | None:
        """The region containing ``vertex`` or ``None`` if it is uncovered."""
        return self._vertex_to_region.get(vertex)

    def edges(self) -> Iterator[RegionEdge]:
        return iter(self._edges.values())

    def t_edges(self) -> list[RegionEdge]:
        return [e for e in self._edges.values() if e.is_t_edge]

    def b_edges(self) -> list[RegionEdge]:
        return [e for e in self._edges.values() if e.is_b_edge]

    def has_edge(self, region_a: RegionId, region_b: RegionId) -> bool:
        return (region_a, region_b) in self._edges

    def edge(self, region_a: RegionId, region_b: RegionId) -> RegionEdge:
        try:
            return self._edges[(region_a, region_b)]
        except KeyError:
            raise RegionGraphError(f"no region edge ({region_a}, {region_b})") from None

    def transfer_centers(self, region_id: RegionId) -> set[VertexId]:
        """Vertices where trajectories entered or left the region."""
        centers = self._transfer_centers.get(region_id, set())
        if centers:
            return set(centers)
        # Regions never traversed across their boundary fall back to all of
        # their vertices as potential connection points.
        return set(self.region(region_id).vertices)

    def adjacency(self) -> dict[RegionId, frozenset[RegionId]]:
        """Every region's neighbours as one immutable snapshot.

        For consumers that compile the graph once (the online router):
        unlike :meth:`neighbors` nothing is copied per lookup afterwards.
        """
        return {
            region_id: frozenset(self._adjacency.get(region_id, ()))
            for region_id in self._regions
        }

    def inner_path_counts(self, region_id: RegionId) -> tuple[tuple[tuple[VertexId, ...], int], ...]:
        """Inner-region paths as raw ``(vertex tuple, count)`` pairs.

        The stored form behind :meth:`inner_paths`, without a fresh
        :class:`Path` object per entry.
        """
        return tuple(self._inner_paths.get(region_id, {}).items())

    def region_centroid(self, region_id: RegionId) -> tuple[float, float]:
        return self.region(region_id).centroid(self._network)

    def centroid_distance_m(self, region_a: RegionId, region_b: RegionId) -> float:
        return equirectangular_m(self.region_centroid(region_a), self.region_centroid(region_b))

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _edge_functionality(
        self, region_a: RegionId, region_b: RegionId
    ) -> frozenset[tuple[RoadType, RoadType]]:
        fa = self.region(region_a).functionality(self._network)
        fb = self.region(region_b).functionality(self._network)
        return frozenset((a, b) for a in fa for b in fb)

    def _get_or_create_edge(self, region_a: RegionId, region_b: RegionId, kind: str) -> RegionEdge:
        key = (region_a, region_b)
        edge = self._edges.get(key)
        if edge is None:
            edge = RegionEdge(
                region_a=region_a,
                region_b=region_b,
                kind=kind,
                centroid_distance_m=self.centroid_distance_m(region_a, region_b),
                functionality=self._edge_functionality(region_a, region_b),
            )
            self._edges[key] = edge
            self._adjacency[region_a].add(region_b)
            self._adjacency[region_b].add(region_a)
        elif kind == "T" and edge.kind == "B":
            # A trajectory traversal upgrades a B-edge to a T-edge.
            edge.kind = "T"
        return edge

    def add_trajectory(self, trajectory: MatchedTrajectory) -> int:
        """Register one trajectory: T-edges, transfer centers, inner paths.

        Returns the number of region edges this trajectory touched, at most
        :data:`MAX_REGION_PAIRS_PER_TRAJECTORY`.
        """
        visits = self._region_visits(trajectory)
        touched = 0

        # Inner-region paths.
        for region_id, enter_idx, exit_idx in visits:
            if exit_idx > enter_idx:
                inner = trajectory.path.vertices[enter_idx : exit_idx + 1]
                self._inner_paths[region_id][inner] += 1

        # T-edges for each ordered pair of visited regions.
        for i in range(len(visits)):
            for j in range(i + 1, len(visits)):
                if touched >= MAX_REGION_PAIRS_PER_TRAJECTORY:
                    return touched
                region_i, _, exit_i = visits[i]
                region_j, enter_j, _ = visits[j]
                if region_i == region_j:
                    continue
                exit_vertex = trajectory.path.vertices[exit_i]
                enter_vertex = trajectory.path.vertices[enter_j]
                connecting = Path(vertices=trajectory.path.vertices[exit_i : enter_j + 1])
                edge = self._get_or_create_edge(region_i, region_j, kind="T")
                edge.add_path(connecting)
                edge.transfer_pairs.add((exit_vertex, enter_vertex))
                self._transfer_centers[region_i].add(exit_vertex)
                self._transfer_centers[region_j].add(enter_vertex)
                touched += 1
        return touched

    def _region_visits(self, trajectory: MatchedTrajectory) -> list[tuple[RegionId, int, int]]:
        """Consecutive runs of the trajectory inside regions.

        Returns ``(region_id, enter_index, exit_index)`` triples in traversal
        order; vertices not belonging to any region break the runs.
        """
        visits: list[tuple[RegionId, int, int]] = []
        current: RegionId | None = None
        start_idx = 0
        for idx, vertex in enumerate(trajectory.path.vertices):
            region_id = self._vertex_to_region.get(vertex)
            if region_id != current:
                if current is not None:
                    visits.append((current, start_idx, idx - 1))
                current = region_id
                start_idx = idx
        if current is not None:
            visits.append((current, start_idx, len(trajectory.path.vertices) - 1))
        return visits

    def connect_with_bfs(self) -> int:
        """Add B-edges until every region is connected to a nearby region.

        Implements the BFS construction of Section IV-B: for each region a
        multi-source BFS on the original road network starts from all the
        region's vertices; when the frontier reaches a vertex of a different
        region that vertex is not expanded further; region pairs discovered
        this way that have no region edge yet get a B-edge (both directions).
        Returns the number of (undirected) B-edges added.
        """
        added = 0
        for region in self._regions.values():
            reached = self._bfs_reachable_regions(region)
            for other in reached:
                if other == region.region_id:
                    continue
                if self.has_edge(region.region_id, other) or self.has_edge(other, region.region_id):
                    continue
                self._get_or_create_edge(region.region_id, other, kind="B")
                self._get_or_create_edge(other, region.region_id, kind="B")
                added += 1
        return added

    def _bfs_reachable_regions(self, region: Region) -> set[RegionId]:
        """Regions whose vertices a BFS from ``region`` reaches first."""
        visited: set[VertexId] = set(region.vertices)
        queue: deque[VertexId] = deque(region.vertices)
        reached: set[RegionId] = set()
        while queue:
            vertex = queue.popleft()
            # iter_neighbors avoids materializing a fresh set per BFS pop.
            for neighbor in self._network.iter_neighbors(vertex):
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                other_region = self._vertex_to_region.get(neighbor)
                if other_region is None:
                    queue.append(neighbor)
                elif other_region != region.region_id:
                    reached.add(other_region)
                    # Do not expand beyond a foreign region's vertex.
                else:
                    queue.append(neighbor)
        return reached

    # ------------------------------------------------------------------ #
    # Analysis helpers
    # ------------------------------------------------------------------ #
    def is_connected(self) -> bool:
        """True if the region graph is connected (ignoring edge direction)."""
        if not self._regions:
            return True
        start = next(iter(self._regions))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbor in self._adjacency.get(current, ()):  # undirected adjacency
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(self._regions)


def build_region_graph(
    network: RoadNetwork,
    clustering: ClusteringResult,
    trajectories: Iterable[MatchedTrajectory],
) -> RegionGraph:
    """Build the full region graph from a clustering and a trajectory set:
    T-edges from the trajectories, then B-edges until it is connected."""
    regions = [
        Region(region_id=i, vertices=frozenset(members), road_type=road_type)
        for i, (members, road_type) in enumerate(
            zip(clustering.clusters, clustering.cluster_road_types)
        )
    ]
    graph = RegionGraph(network, regions)
    for trajectory in trajectories:
        graph.add_trajectory(trajectory)
    graph.connect_with_bfs()
    return graph
