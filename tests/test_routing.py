"""Tests for the routing substrate: costs, Path, Dijkstra, A*, bidirectional, CH."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, NetworkError, NoPathError, VertexNotFoundError
from repro.network import RoadNetwork
from repro.routing import (
    CostFeature,
    Path,
    astar_by_feature,
    bidirectional_by_feature,
    build_contraction_hierarchy,
    ch_shortest_path,
    cost_function,
    dict_dijkstra_costs,
    fastest_path,
    fuel_consumption_ml,
    lowest_cost_path,
    shortest_path,
    weighted_cost,
)


class TestCosts:
    def test_cost_function_distance(self, line_network):
        edge = line_network.edge(0, 1)
        assert cost_function(CostFeature.DISTANCE)(edge) == edge.distance_m

    def test_cost_function_travel_time(self, line_network):
        edge = line_network.edge(0, 1)
        assert cost_function(CostFeature.TRAVEL_TIME)(edge) == edge.travel_time_s

    def test_cost_function_fuel(self, line_network):
        edge = line_network.edge(0, 1)
        assert cost_function(CostFeature.FUEL)(edge) == edge.fuel_ml

    def test_weighted_cost_combines(self, line_network):
        edge = line_network.edge(0, 1)
        combined = weighted_cost({CostFeature.DISTANCE: 1.0, CostFeature.TRAVEL_TIME: 2.0})
        assert combined(edge) == pytest.approx(edge.distance_m + 2.0 * edge.travel_time_s)

    @pytest.mark.parametrize("weight", [-0.5, float("nan"), float("inf")])
    def test_weighted_cost_rejects_negative_or_non_finite_weights(self, weight):
        with pytest.raises(ConfigurationError, match="TRAVEL_TIME"):
            weighted_cost({CostFeature.DISTANCE: 1.0, CostFeature.TRAVEL_TIME: weight})

    def test_short_names(self):
        assert CostFeature.DISTANCE.short_name == "DI"
        assert CostFeature.TRAVEL_TIME.short_name == "TT"
        assert CostFeature.FUEL.short_name == "FC"


def _most_economical_speed_kmh() -> float:
    return min(range(20, 131), key=lambda speed: fuel_consumption_ml(1000.0, speed))


class TestFuelModel:
    def test_fuel_positive(self):
        assert fuel_consumption_ml(1000.0, 50.0) > 0

    def test_fuel_per_km_convex(self):
        # Fuel per km should be high at very low and very high speeds.
        slow = fuel_consumption_ml(1000.0, 10.0)
        optimal = fuel_consumption_ml(1000.0, _most_economical_speed_kmh())
        fast = fuel_consumption_ml(1000.0, 130.0)
        assert optimal < slow
        assert optimal < fast

    def test_economical_speed_in_sensible_range(self):
        assert 40.0 <= _most_economical_speed_kmh() <= 90.0

    def test_more_distance_more_fuel(self):
        assert fuel_consumption_ml(2000.0, 60.0) > fuel_consumption_ml(1000.0, 60.0)


class TestPath:
    def test_empty_path_rejected(self):
        with pytest.raises(NetworkError):
            Path(vertices=())

    def test_single_vertex_path_is_trivial(self):
        path = Path.of([7])
        assert path.vertices == (7,)
        assert path.source == path.destination == 7

    def test_edge_keys(self):
        path = Path.of([1, 2, 3])
        assert path.edge_keys == ((1, 2), (2, 3))

    def test_costs(self, line_network):
        path = Path.of([0, 1, 2])
        assert path.distance_m(line_network) == pytest.approx(2_000.0)
        assert path.travel_time_s(line_network) > 0

    def test_is_valid(self, line_network):
        assert Path.of([0, 1, 2]).is_valid(line_network)
        assert not Path.of([0, 2]).is_valid(line_network)

    def test_splice(self):
        combined = Path.of([1, 2, 3]).splice(Path.of([3, 4]))
        assert combined.vertices == (1, 2, 3, 4)

    def test_splice_mismatch_raises(self):
        with pytest.raises(NetworkError):
            Path.of([1, 2]).splice(Path.of([3, 4]))

    def test_contains_edge(self):
        path = Path.of([1, 2, 3])
        assert path.contains_edge(1, 2)
        assert not path.contains_edge(2, 1)

    def test_coordinates(self, line_network):
        coords = Path.of([0, 1]).coordinates(line_network)
        assert coords[0] == line_network.coordinates(0)


class TestDijkstra:
    def test_shortest_prefers_local_chain(self, line_network):
        # Residential chain 0-1-2-3-4 is 4 km; the motorway detour is 5.2 km.
        path = shortest_path(line_network, 0, 4)
        assert path.vertices == (0, 1, 2, 3, 4)

    def test_fastest_prefers_motorway(self, line_network):
        path = fastest_path(line_network, 0, 4)
        assert path.vertices == (0, 9, 4)

    def test_same_source_destination(self, line_network):
        assert shortest_path(line_network, 2, 2).vertices == (2,)

    def test_unknown_vertex_raises(self, line_network):
        with pytest.raises(VertexNotFoundError):
            shortest_path(line_network, 0, 999)

    def test_no_path_raises(self):
        network = RoadNetwork()
        network.add_vertex(1, 10.0, 56.0)
        network.add_vertex(2, 10.1, 56.0)
        with pytest.raises(NoPathError):
            shortest_path(network, 1, 2)

    def test_dijkstra_costs_all(self, line_network):
        costs = dict_dijkstra_costs(line_network, 0, cost_function(CostFeature.DISTANCE))
        assert costs[0] == 0.0
        assert costs[4] == pytest.approx(4_000.0)

    def test_dijkstra_costs_targets_early_stop(self, line_network):
        costs = dict_dijkstra_costs(
            line_network, 0, cost_function(CostFeature.DISTANCE), targets={1}
        )
        assert costs == {1: pytest.approx(1_000.0)}

    def test_dijkstra_costs_targets_one_shot_iterable(self, line_network):
        costs = dict_dijkstra_costs(
            line_network, 0, cost_function(CostFeature.DISTANCE), targets=iter([1, 2])
        )
        assert costs == {1: pytest.approx(1_000.0), 2: pytest.approx(2_000.0)}

    def test_lowest_cost_path_matches_per_feature(self, line_network):
        assert lowest_cost_path(line_network, 0, 4, CostFeature.DISTANCE).vertices == (0, 1, 2, 3, 4)
        assert lowest_cost_path(line_network, 0, 4, CostFeature.TRAVEL_TIME).vertices == (0, 9, 4)

    def test_path_is_valid_on_grid(self, grid_network):
        path = shortest_path(grid_network, 0, 99)
        assert path.is_valid(grid_network)
        assert path.source == 0 and path.destination == 99


class TestAlternativeAlgorithms:
    @pytest.mark.parametrize("feature", [CostFeature.DISTANCE, CostFeature.TRAVEL_TIME, CostFeature.FUEL])
    def test_astar_matches_dijkstra_cost(self, grid_network, feature):
        source, destination = 0, 99
        dijkstra_path = lowest_cost_path(grid_network, source, destination, feature)
        astar_path = astar_by_feature(grid_network, source, destination, feature)
        cost = cost_function(feature)
        dijkstra_cost = sum(cost(e) for e in grid_network.path_edges(dijkstra_path.vertices))
        astar_cost = sum(cost(e) for e in grid_network.path_edges(astar_path.vertices))
        assert astar_cost == pytest.approx(dijkstra_cost, rel=1e-9)

    @pytest.mark.parametrize("feature", [CostFeature.DISTANCE, CostFeature.TRAVEL_TIME])
    def test_bidirectional_matches_dijkstra_cost(self, grid_network, feature):
        source, destination = 5, 87
        reference = lowest_cost_path(grid_network, source, destination, feature)
        candidate = bidirectional_by_feature(grid_network, source, destination, feature)
        cost = cost_function(feature)
        ref_cost = sum(cost(e) for e in grid_network.path_edges(reference.vertices))
        cand_cost = sum(cost(e) for e in grid_network.path_edges(candidate.vertices))
        assert cand_cost == pytest.approx(ref_cost, rel=1e-9)
        assert candidate.is_valid(grid_network)

    def test_bidirectional_trivial(self, grid_network):
        assert bidirectional_by_feature(grid_network, 3, 3).vertices == (3,)

    def test_astar_trivial(self, grid_network):
        assert astar_by_feature(grid_network, 3, 3).vertices == (3,)


class TestContractionHierarchy:
    @pytest.fixture()
    def hierarchy(self, line_network):
        return build_contraction_hierarchy(line_network, CostFeature.TRAVEL_TIME)

    def test_query_cost_matches_dijkstra(self, line_network, hierarchy):
        reference = fastest_path(line_network, 0, 4).travel_time_s(line_network)
        assert hierarchy.query_cost(0, 4) == pytest.approx(reference, rel=1e-9)

    def test_query_path_valid_and_optimal(self, line_network, hierarchy):
        path = ch_shortest_path(line_network, 0, 4, hierarchy)
        assert path.is_valid(line_network)
        assert path.travel_time_s(line_network) == pytest.approx(
            fastest_path(line_network, 0, 4).travel_time_s(line_network), rel=1e-9
        )

    def test_query_same_vertex(self, line_network, hierarchy):
        assert hierarchy.query_cost(2, 2) == 0.0
        assert ch_shortest_path(line_network, 2, 2, hierarchy).vertices == (2,)

    def test_grid_queries_match_dijkstra(self, demo_network):
        hierarchy = build_contraction_hierarchy(demo_network, CostFeature.DISTANCE)
        pairs = [(0, 35), (5, 30), (7, 28), (0, 11)]
        for source, destination in pairs:
            reference = shortest_path(demo_network, source, destination)
            candidate = hierarchy.query(source, destination)
            assert candidate.distance_m(demo_network) == pytest.approx(
                reference.distance_m(demo_network), rel=1e-6
            )
            assert candidate.is_valid(demo_network)
