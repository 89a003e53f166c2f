"""Tests for Algorithm 2 (preference-aware modified Dijkstra)."""

from __future__ import annotations

import pytest

from repro.exceptions import NoPathError
from repro.network import RoadNetwork, RoadType
from repro.preferences import MAJOR_ROADS, PreferenceVector, single_type_feature
from repro.routing import CostFeature, fastest_path, preference_dijkstra, shortest_path


class TestPreferenceDijkstra:
    def test_master_only_matches_plain_dijkstra(self, line_network):
        preference = PreferenceVector(master=CostFeature.DISTANCE, slave=None)
        path = preference_dijkstra(line_network, 0, 4, preference)
        assert path.vertices == shortest_path(line_network, 0, 4).vertices

    def test_travel_time_master_matches_fastest(self, line_network):
        preference = PreferenceVector(master=CostFeature.TRAVEL_TIME, slave=None)
        path = preference_dijkstra(line_network, 0, 4, preference)
        assert path.vertices == fastest_path(line_network, 0, 4).vertices

    def test_slave_preference_pulls_route_onto_preferred_roads(self, line_network):
        # Distance-minimal route is the residential chain; preferring
        # motorways must steer the route onto the motorway detour.
        preference = PreferenceVector(master=CostFeature.DISTANCE, slave=MAJOR_ROADS)
        path = preference_dijkstra(line_network, 0, 4, preference)
        assert path.vertices == (0, 9, 4)

    def test_unsatisfiable_slave_falls_back_to_all_edges(self, line_network):
        # No secondary roads exist; the search must still find a path.
        preference = PreferenceVector(
            master=CostFeature.DISTANCE, slave=single_type_feature(RoadType.SECONDARY)
        )
        path = preference_dijkstra(line_network, 0, 4, preference)
        assert path.source == 0 and path.destination == 4

    def test_same_source_destination(self, line_network):
        preference = PreferenceVector(master=CostFeature.DISTANCE)
        assert preference_dijkstra(line_network, 2, 2, preference).vertices == (2,)

    def test_disconnected_raises(self):
        network = RoadNetwork()
        network.add_vertex(1, 10.0, 56.0)
        network.add_vertex(2, 10.2, 56.0)
        preference = PreferenceVector(master=CostFeature.TRAVEL_TIME)
        with pytest.raises(NoPathError):
            preference_dijkstra(network, 1, 2, preference)

    def test_result_is_valid_path_on_grid(self, grid_network):
        preference = PreferenceVector(master=CostFeature.FUEL, slave=MAJOR_ROADS)
        path = preference_dijkstra(grid_network, 0, 99, preference)
        assert path.is_valid(grid_network)

    def test_slave_preference_never_disconnects(self, grid_network):
        # Residential-only preference still reaches any destination.
        preference = PreferenceVector(
            master=CostFeature.DISTANCE, slave=single_type_feature(RoadType.RESIDENTIAL)
        )
        path = preference_dijkstra(grid_network, 0, 55, preference)
        assert path.source == 0 and path.destination == 55

    def test_major_road_share_increases_with_major_preference(self, grid_network):
        free = preference_dijkstra(
            grid_network, 0, 99, PreferenceVector(master=CostFeature.DISTANCE, slave=None)
        )
        biased = preference_dijkstra(
            grid_network, 0, 99, PreferenceVector(master=CostFeature.DISTANCE, slave=MAJOR_ROADS)
        )

        def major_share(path):
            edges = grid_network.path_edges(path.vertices)
            if not edges:
                return 0.0
            return sum(1 for e in edges if e.road_type.is_major) / len(edges)

        assert major_share(biased) >= major_share(free)
