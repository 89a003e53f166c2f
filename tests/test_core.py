"""Tests for the L2R pipeline, the region-graph router, and the configuration."""

from __future__ import annotations

import pytest

from repro.core import L2RConfig, LearnToRoute, RegionRouter
from repro.core.router import _remove_cycles
from repro.exceptions import ConfigurationError, NotFittedError
from repro.network import RoadNetwork, RoadType
from repro.preferences import TransferConfig, path_similarity
from repro.regions.region import Region
from repro.regions.region_graph import RegionGraph
from repro.routing import Path, fastest_path


class TestConfig:
    def test_defaults_valid(self):
        config = L2RConfig()
        assert config.transfer.amr == pytest.approx(0.7)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            L2RConfig(transfer=TransferConfig(amr=3.0))


class TestLearnToRoute:
    def test_unfitted_raises(self, tiny):
        pipeline = LearnToRoute()
        with pytest.raises(NotFittedError):
            pipeline.route(0, 1)
        with pytest.raises(NotFittedError):
            _ = pipeline.region_graph
        with pytest.raises(NotFittedError):
            _ = pipeline.network

    def test_fit_produces_connected_region_graph(self, fitted_l2r):
        assert fitted_l2r.is_fitted
        assert fitted_l2r.region_graph.is_connected()
        assert fitted_l2r.region_graph.region_count > 1

    def test_t_edges_have_learned_preferences(self, fitted_l2r):
        for edge in fitted_l2r.region_graph.t_edges():
            assert edge.preference is not None

    def test_offline_timings_recorded(self, fitted_l2r):
        timings = fitted_l2r.offline_timings
        assert timings.region_graph_s >= 0.0
        assert timings.total_s > 0.0

    def test_routes_are_valid_paths(self, tiny, tiny_split, fitted_l2r):
        for trajectory in tiny_split.test[:20]:
            path = fitted_l2r.route(trajectory.source, trajectory.destination)
            assert path.source == trajectory.source
            assert path.destination == trajectory.destination
            assert path.is_valid(tiny.network)

    def test_route_same_vertex(self, fitted_l2r, tiny_split):
        vertex = tiny_split.test[0].source
        assert fitted_l2r.route(vertex, vertex).vertices == (vertex,)

    def test_diagnostics_reported(self, fitted_l2r, tiny_split):
        trajectory = tiny_split.test[0]
        path, diagnostics = fitted_l2r.route_with_diagnostics(
            trajectory.source, trajectory.destination
        )
        assert diagnostics.case in {
            "in-region-same",
            "in-region",
            "in-out-region",
            "out-region",
            "fallback-fastest",
        }
        assert path.source == trajectory.source

    def test_l2r_competitive_with_cost_centric_baselines(self, tiny, tiny_split, fitted_l2r):
        """L2R tracks driver paths at least as well as the weaker cost-centric
        baseline and stays within a small margin of the better one (the tiny
        grid scenario is close to the degenerate regime where many equal-cost
        alternatives exist; the full benchmark scenarios carry the paper-style
        comparison)."""
        from repro.routing import fastest_path, shortest_path

        l2r_total, shortest_total, fastest_total, count = 0.0, 0.0, 0.0, 0
        for trajectory in tiny_split.test[:40]:
            try:
                l2r_path = fitted_l2r.route(trajectory.source, trajectory.destination)
                short = shortest_path(tiny.network, trajectory.source, trajectory.destination)
                fast = fastest_path(tiny.network, trajectory.source, trajectory.destination)
            except Exception:
                continue
            l2r_total += path_similarity(tiny.network, trajectory.path, l2r_path)
            shortest_total += path_similarity(tiny.network, trajectory.path, short)
            fastest_total += path_similarity(tiny.network, trajectory.path, fast)
            count += 1
        assert count > 10
        assert l2r_total >= min(shortest_total, fastest_total) * 0.95
        assert l2r_total >= max(shortest_total, fastest_total) * 0.85

    def test_region_of_passthrough(self, fitted_l2r, tiny_split):
        source = tiny_split.train[0].source
        assert fitted_l2r.region_of(source) == fitted_l2r.region_graph.region_of(source)


class TestRegionRouter:
    def test_router_handles_out_of_region_endpoints(self, tiny, fitted_l2r):
        region_graph = fitted_l2r.region_graph
        uncovered = [
            v for v in tiny.network.vertex_ids() if region_graph.region_of(v) is None
        ]
        covered = [v for v in tiny.network.vertex_ids() if region_graph.region_of(v) is not None]
        if not uncovered:
            pytest.skip("all vertices covered in this scenario")
        router = RegionRouter(region_graph)
        path, diagnostics = router.route_with_diagnostics(uncovered[0], covered[0])
        assert path.is_valid(tiny.network)
        assert diagnostics.case in {"in-out-region", "out-region", "fallback-fastest"}

    def test_router_path_endpoints_always_match_request(self, tiny, fitted_l2r, tiny_split):
        router = RegionRouter(fitted_l2r.region_graph)
        for trajectory in tiny_split.test[:30]:
            path = router.route(trajectory.source, trajectory.destination)
            assert path.source == trajectory.source
            assert path.destination == trajectory.destination

    def test_router_output_has_no_repeated_vertices(self, tiny, fitted_l2r, tiny_split):
        router = RegionRouter(fitted_l2r.region_graph)
        for trajectory in tiny_split.test[:30]:
            path = router.route(trajectory.source, trajectory.destination)
            assert len(set(path.vertices)) == len(path.vertices)

    def test_router_not_wildly_longer_than_fastest(self, tiny, fitted_l2r, tiny_split):
        router = RegionRouter(fitted_l2r.region_graph)
        for trajectory in tiny_split.test[:20]:
            path = router.route(trajectory.source, trajectory.destination)
            reference = fastest_path(tiny.network, trajectory.source, trajectory.destination)
            assert path.distance_m(tiny.network) <= 4.0 * max(
                reference.distance_m(tiny.network), 1.0
            )


class TestRemoveCycles:
    def test_single_vertex_path_unchanged(self):
        path = Path.of([5])
        assert _remove_cycles(path).vertices == (5,)

    def test_acyclic_path_unchanged(self):
        path = Path.of([0, 1, 2, 3])
        assert _remove_cycles(path).vertices == (0, 1, 2, 3)

    def test_simple_loop_removed(self):
        path = Path.of([0, 1, 2, 1, 3])
        assert _remove_cycles(path).vertices == (0, 1, 3)

    def test_revisits_after_cut_are_kept(self):
        # Vertex 2 appears inside the removed loop and again later; the second
        # appearance is legitimate once the loop is gone.
        path = Path.of([0, 1, 2, 3, 1, 4, 2, 5])
        cleaned = _remove_cycles(path)
        assert cleaned.vertices == (0, 1, 4, 2, 5)
        assert len(set(cleaned.vertices)) == len(cleaned.vertices)

    def test_idempotent(self):
        path = Path.of([0, 1, 2, 1, 3, 4, 3, 5])
        once = _remove_cycles(path)
        assert _remove_cycles(once).vertices == once.vertices

    def test_endpoints_preserved(self):
        path = Path.of([7, 8, 9, 8, 10])
        cleaned = _remove_cycles(path)
        assert cleaned.source == 7
        assert cleaned.destination == 10


def _line_network(n: int = 5) -> RoadNetwork:
    """A plain residential line 0 - 1 - ... - (n-1), no shortcut."""
    network = RoadNetwork(name="case2-line")
    for i in range(n):
        network.add_vertex(i, lon=10.0 + i * 0.012, lat=56.0)
    for i in range(n - 1):
        network.add_edge(
            i, i + 1, road_type=RoadType.RESIDENTIAL, distance_m=1_000.0, bidirectional=True
        )
    return network


class TestCase2Stitching:
    def test_falls_back_when_candidate_regions_coincide(self):
        # The fastest path 1 -> 3 only touches the single region {2}: Case 2
        # cannot pick distinct source / destination regions and must return
        # the fastest path itself.
        network = _line_network()
        graph = RegionGraph(network, [Region(region_id=0, vertices=frozenset({2}))])
        router = RegionRouter(graph)
        path, diagnostics = router.route_with_diagnostics(1, 3)
        assert path.vertices == (1, 2, 3)
        assert diagnostics.case == "out-region"
        assert diagnostics.region_hops == 0

    def test_no_region_touched_returns_fastest(self):
        network = _line_network()
        graph = RegionGraph(network, [Region(region_id=0, vertices=frozenset({4}))])
        router = RegionRouter(graph)
        path, diagnostics = router.route_with_diagnostics(0, 2)
        assert path.vertices == (0, 1, 2)
        assert diagnostics.case == "out-region"

    def test_prefix_middle_suffix_stitching(self):
        # Endpoints 0 and 4 are uncovered; the fastest path crosses region
        # {1} first and region {3} last, so Case 2 stitches fastest prefix +
        # Case-1 middle + fastest suffix back into one valid path.
        network = _line_network()
        regions = [
            Region(region_id=0, vertices=frozenset({1})),
            Region(region_id=1, vertices=frozenset({3})),
        ]
        graph = RegionGraph(network, regions)
        graph.connect_with_bfs()  # B-edge between the two regions
        router = RegionRouter(graph)
        path, diagnostics = router.route_with_diagnostics(0, 4)
        assert path.source == 0
        assert path.destination == 4
        assert path.is_valid(network)
        assert len(set(path.vertices)) == len(path.vertices)
        assert diagnostics.case == "out-region"

    def test_one_covered_endpoint_reports_in_out_region(self):
        network = _line_network()
        graph = RegionGraph(network, [Region(region_id=0, vertices=frozenset({0, 1}))])
        router = RegionRouter(graph)
        path, diagnostics = router.route_with_diagnostics(1, 4)
        assert path.source == 1
        assert path.destination == 4
        assert diagnostics.case == "in-out-region"
