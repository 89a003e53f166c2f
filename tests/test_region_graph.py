"""Tests for region-graph construction: T-edges, B-edges, transfer centers."""

from __future__ import annotations

import pytest

from repro.exceptions import RegionGraphError
from repro.network import RoadType
from repro.regions import Region, RegionGraph, TrajectoryGraph, build_region_graph, cluster_trajectory_graph
from repro.regions import region_graph as region_graph_module
from repro.routing import Path
from repro.trajectories import MatchedTrajectory


def _matched(trajectory_id: int, vertices: list[int]) -> MatchedTrajectory:
    return MatchedTrajectory(
        trajectory_id=trajectory_id,
        driver_id=0,
        path=Path.of(vertices),
        departure_time=0.0,
        duration_s=60.0,
    )


@pytest.fixture()
def manual_region_graph(grid_network):
    """A region graph with hand-picked regions on the 10x10 grid.

    Region 0 = top-left 2x2 block, region 1 = vertices 4-5/14-15, region 2 =
    bottom-right 2x2 block (far away, not trajectory-connected).
    """
    regions = [
        Region(region_id=0, vertices=frozenset({0, 1, 10, 11})),
        Region(region_id=1, vertices=frozenset({4, 5, 14, 15})),
        Region(region_id=2, vertices=frozenset({88, 89, 98, 99})),
    ]
    graph = RegionGraph(grid_network, regions)
    # One trajectory from region 0 through the gap to region 1.
    graph.add_trajectory(_matched(0, [0, 1, 2, 3, 4, 5]))
    graph.add_trajectory(_matched(1, [11, 1, 2, 3, 4]))
    return graph


class TestRegionGraphBasics:
    def test_region_of(self, manual_region_graph):
        assert manual_region_graph.region_of(0) == 0
        assert manual_region_graph.region_of(4) == 1
        assert manual_region_graph.region_of(50) is None

    def test_unknown_region_raises(self, manual_region_graph):
        with pytest.raises(RegionGraphError):
            manual_region_graph.region(99)

    def test_unknown_edge_raises(self, manual_region_graph):
        with pytest.raises(RegionGraphError):
            manual_region_graph.edge(0, 2)

    def test_t_edge_created_with_path(self, manual_region_graph):
        edge = manual_region_graph.edge(0, 1)
        assert edge.is_t_edge
        assert sum(edge.path_counts.values()) == 2
        popular, _ = edge.path_counts.most_common(1)[0]
        assert popular[0] in (1, 11)
        assert popular[-1] == 4

    def test_transfer_centers_recorded(self, manual_region_graph):
        centers_0 = manual_region_graph.transfer_centers(0)
        centers_1 = manual_region_graph.transfer_centers(1)
        assert 1 in centers_0 or 11 in centers_0
        assert 4 in centers_1

    def test_inner_paths_recorded(self, manual_region_graph):
        inner = manual_region_graph.inner_path_counts(0)
        assert any(vertices in ((0, 1), (11, 1)) for vertices, _ in inner)

    def test_region_without_trajectories_has_vertex_fallback_centers(self, manual_region_graph):
        centers = manual_region_graph.transfer_centers(2)
        assert centers == {88, 89, 98, 99}

    def test_centroid_distance_positive(self, manual_region_graph):
        assert manual_region_graph.centroid_distance_m(0, 2) > 0

    def test_edge_functionality_is_cartesian_product(self, manual_region_graph):
        edge = manual_region_graph.edge(0, 1)
        assert edge.functionality
        assert all(isinstance(a, RoadType) and isinstance(b, RoadType) for a, b in edge.functionality)


class TestBFSConnection:
    def test_bfs_connects_isolated_region(self, manual_region_graph):
        assert not manual_region_graph.is_connected()
        added = manual_region_graph.connect_with_bfs()
        assert added >= 1
        assert manual_region_graph.is_connected()

    def test_b_edges_have_no_paths_initially(self, manual_region_graph):
        manual_region_graph.connect_with_bfs()
        for edge in manual_region_graph.b_edges():
            assert edge.paths() == []

    def test_bfs_does_not_duplicate_existing_t_edges(self, manual_region_graph):
        before = len(manual_region_graph.t_edges())
        manual_region_graph.connect_with_bfs()
        assert len(manual_region_graph.t_edges()) == before


class TestBuildRegionGraph:
    def test_full_build_is_connected(self, tiny_region_graph):
        assert tiny_region_graph.is_connected()
        assert tiny_region_graph.region_count > 1
        assert tiny_region_graph.t_edges()

    def test_every_covered_vertex_in_some_region(self, tiny, tiny_split, tiny_region_graph):
        graph = TrajectoryGraph.from_trajectories(tiny.network, tiny_split.train)
        for vertex in graph.vertices():
            assert tiny_region_graph.region_of(vertex) is not None

    def test_t_edge_paths_are_valid_network_paths(self, tiny, tiny_region_graph):
        for edge in tiny_region_graph.t_edges()[:25]:
            for path in edge.paths()[:3]:
                assert path.is_valid(tiny.network)

    def test_statistics_keys(self, tiny_region_graph):
        assert tiny_region_graph.region_count > 0
        assert tiny_region_graph.t_edges()
        assert tiny_region_graph.is_connected()

    def test_region_pair_cap_limits_edges(self, tiny, tiny_split, monkeypatch):
        graph = TrajectoryGraph.from_trajectories(tiny.network, tiny_split.train)
        clustering = cluster_trajectory_graph(graph)

        def t_edges_under(cap):
            monkeypatch.setattr(region_graph_module, "MAX_REGION_PAIRS_PER_TRAJECTORY", cap)
            built = build_region_graph(tiny.network, clustering, tiny_split.train)
            return len(built.t_edges())

        assert t_edges_under(1) <= t_edges_under(10**9)
