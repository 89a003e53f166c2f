"""Tests for the trajectory graph, modularity, Algorithm 1, and regions."""

from __future__ import annotations

import pytest

from repro.exceptions import ClusteringError
from repro.network import RoadNetwork, RoadType
from repro.regions import (
    BottomUpClustering,
    Region,
    TrajectoryGraph,
    cluster_trajectory_graph,
    format_region_size_table,
    modularity_gain,
    region_size_table,
)
from repro.routing import Path
from repro.trajectories import MatchedTrajectory


def _matched(trajectory_id: int, vertices: list[int], driver_id: int = 0) -> MatchedTrajectory:
    return MatchedTrajectory(
        trajectory_id=trajectory_id,
        driver_id=driver_id,
        path=Path.of(vertices),
        departure_time=0.0,
        duration_s=60.0,
    )


@pytest.fixture()
def figure3_network() -> RoadNetwork:
    """A small network reproducing the flavour of the paper's Figure 3.

    Vertices 0-3 form a dense type-1 core (D, K, X, Y analogue); vertices 4-6
    hang off it via type-2 edges; vertices 7-8 are a separate small component.
    """
    network = RoadNetwork(name="figure3")
    coords = {
        0: (10.000, 56.000),
        1: (10.004, 56.000),
        2: (10.000, 56.004),
        3: (10.004, 56.004),
        4: (10.010, 56.000),
        5: (10.010, 56.004),
        6: (10.014, 56.002),
        7: (10.030, 56.000),
        8: (10.034, 56.000),
    }
    for vid, (lon, lat) in coords.items():
        network.add_vertex(vid, lon, lat)
    core_edges = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]
    for u, v in core_edges:
        network.add_edge(u, v, road_type=RoadType.PRIMARY, bidirectional=True)
    network.add_edge(1, 4, road_type=RoadType.RESIDENTIAL, bidirectional=True)
    network.add_edge(3, 5, road_type=RoadType.RESIDENTIAL, bidirectional=True)
    network.add_edge(4, 6, road_type=RoadType.RESIDENTIAL, bidirectional=True)
    network.add_edge(5, 6, road_type=RoadType.RESIDENTIAL, bidirectional=True)
    network.add_edge(7, 8, road_type=RoadType.RESIDENTIAL, bidirectional=True)
    network.add_edge(6, 7, road_type=RoadType.SECONDARY, bidirectional=True)
    return network


@pytest.fixture()
def figure3_trajectories() -> list[MatchedTrajectory]:
    """Trajectories that heavily cover the core and lightly cover the rest."""
    trajectories = []
    tid = 0
    for _ in range(10):
        trajectories.append(_matched(tid, [0, 1, 3, 2]))
        tid += 1
        trajectories.append(_matched(tid, [2, 3, 1, 0]))
        tid += 1
    for _ in range(2):
        trajectories.append(_matched(tid, [1, 4, 6]))
        tid += 1
        trajectories.append(_matched(tid, [3, 5, 6]))
        tid += 1
    trajectories.append(_matched(tid, [7, 8]))
    return trajectories


class TestTrajectoryGraph:
    def test_counts(self, figure3_network, figure3_trajectories):
        graph = TrajectoryGraph.from_trajectories(figure3_network, figure3_trajectories)
        assert graph.vertex_count == 9
        assert len(list(graph.edges())) >= 8

    def test_popularity_counts_traversals(self, figure3_network, figure3_trajectories):
        graph = TrajectoryGraph.from_trajectories(figure3_network, figure3_trajectories)
        # Edge (0, 1) is traversed by 20 core trajectories (both directions
        # count toward the same undirected edge).
        assert graph.edge_popularity(0, 1) == 20
        assert graph.edge_popularity(1, 0) == 20
        assert graph.edge_popularity(7, 8) == 1

    def test_vertex_popularity_is_sum(self, figure3_network, figure3_trajectories):
        graph = TrajectoryGraph.from_trajectories(figure3_network, figure3_trajectories)
        neighbors = {
            edge.v if edge.u == 1 else edge.u for edge in graph.edges() if 1 in (edge.u, edge.v)
        }
        expected = sum(graph.edge_popularity(1, other) for other in neighbors)
        assert graph.vertex_popularity(1) == expected

    def test_total_popularity(self, figure3_network, figure3_trajectories):
        graph = TrajectoryGraph.from_trajectories(figure3_network, figure3_trajectories)
        assert graph.total_popularity() == sum(e.popularity for e in graph.edges())

    def test_road_types_recorded(self, figure3_network, figure3_trajectories):
        graph = TrajectoryGraph.from_trajectories(figure3_network, figure3_trajectories)
        road_types = {(edge.u, edge.v): edge.road_type for edge in graph.edges()}
        assert road_types[(0, 1)] is RoadType.PRIMARY
        assert road_types[(1, 4)] is RoadType.RESIDENTIAL

    def test_uncovered_edges_absent(self, figure3_network, figure3_trajectories):
        graph = TrajectoryGraph.from_trajectories(figure3_network, figure3_trajectories)
        assert graph.edge_popularity(6, 7) == 0  # no trajectory used the connector


class TestModularity:
    def test_gain_positive_for_strong_edge(self):
        # Strong edge between two moderately popular vertices.
        assert modularity_gain(50, 100, 100, 1000) > 0

    def test_gain_negative_for_weak_edge_between_hubs(self):
        assert modularity_gain(1, 500, 500, 1000) < 0

    def test_gain_zero_without_edge(self):
        assert modularity_gain(0, 100, 100, 1000) == 0.0

    def test_gain_zero_for_empty_graph(self):
        assert modularity_gain(10, 10, 10, 0) == 0.0


def _assignment(result):
    """Vertex id -> the index of its cluster in ``result.clusters``."""
    return {vertex: index for index, members in enumerate(result.clusters) for vertex in members}


class TestClustering:
    def test_empty_graph_rejected(self):
        with pytest.raises(ClusteringError):
            BottomUpClustering().cluster(TrajectoryGraph())

    def test_clusters_partition_vertices(self, figure3_network, figure3_trajectories):
        graph = TrajectoryGraph.from_trajectories(figure3_network, figure3_trajectories)
        result = cluster_trajectory_graph(graph)
        all_members = [v for cluster in result.clusters for v in cluster]
        assert sorted(all_members) == sorted(graph.vertices())
        assert len(all_members) == len(set(all_members))

    def test_popular_vertices_merge_with_their_strongest_neighbour(
        self, figure3_network, figure3_trajectories
    ):
        graph = TrajectoryGraph.from_trajectories(figure3_network, figure3_trajectories)
        result = cluster_trajectory_graph(graph)
        assignment = _assignment(result)
        # The popular primary-road chain 0-1-3-2 merges pairwise (merging the
        # two hubs 1 and 3 directly gives a negative modularity gain, exactly
        # as the gain formula prescribes), and never mixes with the
        # residential branch.
        assert assignment[0] == assignment[1]
        assert assignment[2] == assignment[3]
        assert result.merges > 0

    def test_isolated_component_becomes_own_cluster(self, figure3_network, figure3_trajectories):
        graph = TrajectoryGraph.from_trajectories(figure3_network, figure3_trajectories)
        result = cluster_trajectory_graph(graph)
        assignment = _assignment(result)
        assert assignment[7] != assignment[0]

    def test_road_type_constraint_separates_types(self, figure3_network, figure3_trajectories):
        graph = TrajectoryGraph.from_trajectories(figure3_network, figure3_trajectories)
        constrained = cluster_trajectory_graph(graph, enforce_road_types=True)
        assignment = _assignment(constrained)
        # Vertex 4 connects to the core only via a residential edge; the
        # road-type constraint must keep it out of the primary-road core.
        assert assignment[4] != assignment[0]

    def test_unconstrained_clustering_merges_more(self, tiny, tiny_split):
        graph = TrajectoryGraph.from_trajectories(tiny.network, tiny_split.train)
        constrained = cluster_trajectory_graph(graph, enforce_road_types=True)
        unconstrained = cluster_trajectory_graph(graph, enforce_road_types=False)
        assert unconstrained.cluster_count <= constrained.cluster_count

    def test_cluster_road_types_assigned_to_aggregates(self, figure3_network, figure3_trajectories):
        graph = TrajectoryGraph.from_trajectories(figure3_network, figure3_trajectories)
        result = cluster_trajectory_graph(graph)
        assignment = _assignment(result)
        core_cluster = assignment[0]
        assert result.cluster_road_types[core_cluster] is RoadType.PRIMARY

    def test_clustering_terminates_on_larger_instance(self, tiny, tiny_split):
        graph = TrajectoryGraph.from_trajectories(tiny.network, tiny_split.train)
        result = cluster_trajectory_graph(graph)
        assert result.cluster_count >= 1
        assert result.iterations > 0

    def test_singleton_graph(self):
        graph = TrajectoryGraph()
        graph.add_traversal(1, 2, RoadType.RESIDENTIAL)
        result = cluster_trajectory_graph(graph)
        all_members = {v for cluster in result.clusters for v in cluster}
        assert all_members == {1, 2}


class TestRegion:
    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            Region(region_id=0, vertices=frozenset())

    def test_centroid_and_area(self, grid_network):
        region = Region(region_id=0, vertices=frozenset({0, 1, 10, 11}))
        lon, lat = region.centroid(grid_network)
        box = grid_network.bounding_box()
        assert box.min_lon <= lon <= box.max_lon
        assert region.area_km2(grid_network) >= 0.0
        assert region.diameter_km(grid_network) > 0.0

    def test_functionality_top_k(self, grid_network):
        region = Region(region_id=1, vertices=frozenset(range(10)))
        functionality = region.functionality(grid_network)
        assert 1 <= len(functionality) <= 2
        assert all(isinstance(rt, RoadType) for rt in functionality)

    def test_functionality_is_memoized_for_a_single_road_type(self):
        """A region whose edges share one road type has a one-entry
        functionality; the second call returns the memoized tuple."""
        network = RoadNetwork(name="one-road-type")
        for vertex in range(3):
            network.add_vertex(vertex, lon=10.0 + vertex * 0.01, lat=56.0)
        network.add_edge(0, 1, road_type=RoadType.RESIDENTIAL, bidirectional=True)
        network.add_edge(1, 2, road_type=RoadType.RESIDENTIAL, bidirectional=True)
        region = Region(region_id=3, vertices=frozenset({0, 1, 2}))
        first = region.functionality(network)
        assert first == (RoadType.RESIDENTIAL,)
        assert region.functionality(network) is first

    def test_region_size_table_counts_all_regions(self, grid_network):
        regions = [
            Region(region_id=0, vertices=frozenset({0, 1, 2})),
            Region(region_id=1, vertices=frozenset({50, 51, 61, 60})),
        ]
        rows = region_size_table(regions, grid_network)
        assert sum(row.count for row in rows) == len(regions)
        assert sum(row.percentage for row in rows) == pytest.approx(100.0)

    def test_format_region_size_table(self, grid_network):
        regions = [Region(region_id=0, vertices=frozenset({0, 1, 2}))]
        text = format_region_size_table(region_size_table(regions, grid_network), title="T4")
        assert "T4" in text
        assert "Max diameter" in text
