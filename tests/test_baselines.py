"""Tests for the baseline routing algorithms and the external-service simulator."""

from __future__ import annotations

import pytest

from repro.baselines import (
    DomBaseline,
    ExternalRoutingService,
    ExternalServiceConfig,
    FastestBaseline,
    L2RAlgorithm,
    ShortestBaseline,
    TripBaseline,
    waypoint_accuracy,
)
from repro.baselines import dom as dom_module
from repro.routing import CostFeature, fastest_path, shortest_path


class TestCostCentricBaselines:
    def test_shortest_matches_dijkstra(self, tiny, tiny_split):
        baseline = ShortestBaseline(tiny.network)
        trajectory = tiny_split.test[0]
        expected = shortest_path(tiny.network, trajectory.source, trajectory.destination)
        assert baseline.route(trajectory.source, trajectory.destination).vertices == expected.vertices

    def test_fastest_matches_dijkstra(self, tiny, tiny_split):
        baseline = FastestBaseline(tiny.network)
        trajectory = tiny_split.test[0]
        expected = fastest_path(tiny.network, trajectory.source, trajectory.destination)
        assert baseline.route(trajectory.source, trajectory.destination).vertices == expected.vertices

    def test_names(self, tiny):
        assert ShortestBaseline(tiny.network).name == "Shortest"
        assert FastestBaseline(tiny.network).name == "Fastest"


class TestDom:
    @pytest.fixture(scope="class")
    def dom(self, tiny, tiny_split):
        return DomBaseline(tiny.network, tiny_split.train, max_trajectories_per_driver=5)

    def test_learns_weights_per_driver(self, dom, tiny_split):
        driver_ids = {t.driver_id for t in tiny_split.train}
        for driver_id in list(driver_ids)[:5]:
            weights = dom.driver_weights(driver_id)
            assert set(weights) == {CostFeature.DISTANCE, CostFeature.TRAVEL_TIME, CostFeature.FUEL}
            assert sum(weights.values()) == pytest.approx(1.0, abs=1e-6)

    def test_unknown_driver_gets_uniform_weights(self, dom):
        weights = dom.driver_weights(10_000)
        assert all(w == pytest.approx(1 / 3) for w in weights.values())

    def test_routes_are_valid(self, dom, tiny, tiny_split):
        for trajectory in tiny_split.test[:10]:
            path = dom.route(
                trajectory.source, trajectory.destination, driver_id=trajectory.driver_id
            )
            assert path.is_valid(tiny.network)
            assert path.source == trajectory.source
            assert path.destination == trajectory.destination

    def test_search_errors_other_than_no_path_propagate(self, dom, tiny, tiny_split, monkeypatch):
        """Only NoPathError means "this feature has no optimum here"."""

        def broken(*args):
            raise RuntimeError("search bug")

        monkeypatch.setattr(dom_module, "lowest_cost_path", broken)
        with pytest.raises(RuntimeError, match="search bug"):
            DomBaseline(tiny.network, tiny_split.train, max_trajectories_per_driver=1)
        trajectory = tiny_split.test[0]
        with pytest.raises(RuntimeError, match="search bug"):
            dom.route(trajectory.source, trajectory.destination)


class TestTrip:
    @pytest.fixture(scope="class")
    def trip(self, tiny, tiny_split):
        return TripBaseline(tiny.network, tiny_split.train)

    def test_ratios_bounded(self, trip, tiny_split):
        for trajectory in tiny_split.train[:10]:
            ratios = trip.driver_ratios(trajectory.driver_id)
            assert all(0.25 <= r <= 4.0 for r in ratios.values())

    def test_unknown_driver_ratio_is_one(self, trip):
        assert all(r == 1.0 for r in trip.driver_ratios(None).values())

    def test_routes_are_valid(self, trip, tiny, tiny_split):
        for trajectory in tiny_split.test[:10]:
            path = trip.route(
                trajectory.source, trajectory.destination, driver_id=trajectory.driver_id
            )
            assert path.is_valid(tiny.network)

    def test_unknown_driver_route_equals_fastest(self, trip, tiny, tiny_split):
        trajectory = tiny_split.test[0]
        expected = fastest_path(tiny.network, trajectory.source, trajectory.destination)
        path = trip.route(trajectory.source, trajectory.destination, driver_id=None)
        assert path.travel_time_s(tiny.network) == pytest.approx(
            expected.travel_time_s(tiny.network), rel=1e-9
        )


class TestL2RAdapter:
    def test_adapter_delegates(self, fitted_l2r, tiny_split):
        adapter = L2RAlgorithm(fitted_l2r)
        trajectory = tiny_split.test[0]
        direct = fitted_l2r.route(trajectory.source, trajectory.destination)
        via_adapter = adapter.route(trajectory.source, trajectory.destination)
        assert via_adapter.vertices == direct.vertices
        assert adapter.name == "L2R"


class TestExternalService:
    @pytest.fixture(scope="class")
    def service(self, tiny):
        return ExternalRoutingService(tiny.network)

    def test_route_valid(self, service, tiny, tiny_split):
        trajectory = tiny_split.test[0]
        path = service.route(trajectory.source, trajectory.destination)
        assert path.is_valid(tiny.network)

    def test_directions_returns_waypoints(self, service, tiny, tiny_split):
        trajectory = tiny_split.test[0]
        waypoints = service.directions(trajectory.source, trajectory.destination)
        assert len(waypoints) >= 2
        assert all(len(point) == 2 for point in waypoints)

    def test_directions_deterministic(self, service, tiny_split):
        trajectory = tiny_split.test[0]
        a = service.directions(trajectory.source, trajectory.destination)
        b = service.directions(trajectory.source, trajectory.destination)
        assert a == b

    def test_waypoint_accuracy_perfect_for_own_path(self, service, tiny, tiny_split):
        trajectory = tiny_split.test[0]
        config = ExternalServiceConfig(waypoint_jitter_m=0.0, waypoint_stride=1)
        exact_service = ExternalRoutingService(tiny.network, config)
        path = exact_service.route(trajectory.source, trajectory.destination)
        waypoints = exact_service.directions(trajectory.source, trajectory.destination)
        assert waypoint_accuracy(tiny.network, path, waypoints) > 0.95

    def test_waypoint_accuracy_zero_for_far_waypoints(self, tiny, tiny_split):
        trajectory = tiny_split.test[0]
        accuracy = waypoint_accuracy(tiny.network, trajectory.path, [(0.0, 0.0), (1.0, 1.0)])
        assert accuracy == 0.0

    def test_service_prefers_major_roads(self, tiny):
        """The simulated service's major-road bias shows up in its routes."""
        config = ExternalServiceConfig(major_road_bias=0.5, speed_perturbation=0.0)
        biased = ExternalRoutingService(tiny.network, config)
        config_neutral = ExternalServiceConfig(major_road_bias=1.0, speed_perturbation=0.0)
        neutral = ExternalRoutingService(tiny.network, config_neutral)

        def major_share(path):
            edges = tiny.network.path_edges(path.vertices)
            if not edges:
                return 0.0
            return sum(1 for e in edges if e.road_type.is_major) / len(edges)

        vertices = list(tiny.network.vertex_ids())
        pairs = [(vertices[0], vertices[-1]), (vertices[3], vertices[-5])]
        biased_share = sum(major_share(biased.route(s, d)) for s, d in pairs)
        neutral_share = sum(major_share(neutral.route(s, d)) for s, d in pairs)
        assert biased_share >= neutral_share
