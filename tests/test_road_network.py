"""Tests for the RoadNetwork graph, road types, and network statistics."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import EdgeNotFoundError, NetworkError, VertexNotFoundError
from repro.network import RoadNetwork, RoadType
from repro.network.compiled import EDGE_COST_ATTRIBUTES
from repro.routing import Path


@pytest.fixture()
def small_network() -> RoadNetwork:
    network = RoadNetwork(name="small")
    network.add_vertex(1, 10.00, 56.00)
    network.add_vertex(2, 10.01, 56.00)
    network.add_vertex(3, 10.01, 56.01)
    network.add_edge(1, 2, road_type=RoadType.PRIMARY, bidirectional=True)
    network.add_edge(2, 3, road_type=RoadType.RESIDENTIAL)
    return network


class TestRoadType:
    def test_is_major(self):
        assert RoadType.MOTORWAY.is_major
        assert RoadType.PRIMARY.is_major
        assert not RoadType.RESIDENTIAL.is_major

    def test_speed_decreases_with_importance(self):
        speeds = [rt.default_speed_kmh for rt in RoadType]
        assert speeds == sorted(speeds, reverse=True)

    def test_osm_tag_is_the_lowercase_name(self):
        for road_type in RoadType:
            assert road_type.osm_tag == road_type.name.lower()


class TestConstruction:
    def test_counts(self, small_network):
        assert small_network.vertex_count == 3
        assert small_network.edge_count == 3  # one bidirectional pair + one oneway

    def test_add_edge_with_unknown_vertex_raises(self, small_network):
        with pytest.raises(VertexNotFoundError):
            small_network.add_edge(1, 99)

    def test_self_loop_rejected(self, small_network):
        with pytest.raises(NetworkError):
            small_network.add_edge(1, 1)

    @pytest.mark.parametrize("name", ["travel_time_s", "fuel_ml", "speed_kmh"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_cost_rejected(self, small_network, name, value):
        with pytest.raises(NetworkError, match=name):
            small_network.add_edge(3, 1, **{name: value})
        assert 1 not in small_network.successors(3)

    def test_derived_distance_positive(self, small_network):
        assert small_network.w_di(1, 2) > 0

    def test_travel_time_consistent_with_speed(self, small_network):
        edge = small_network.edge(1, 2)
        expected = edge.distance_m / (edge.speed_kmh / 3.6)
        assert edge.travel_time_s == pytest.approx(expected)

    def test_fuel_positive(self, small_network):
        assert small_network.edge(1, 2).fuel_ml > 0

    def test_bidirectional_creates_reverse_edge(self, small_network):
        assert 1 in small_network.successors(2)
        assert 2 not in small_network.successors(3)

    def test_contains(self, small_network):
        assert 1 in small_network
        assert 99 not in small_network


class TestQueries:
    def test_edge_lookup_missing_raises(self, small_network):
        with pytest.raises(EdgeNotFoundError):
            small_network.edge(3, 1)

    def test_vertex_lookup_missing_raises(self, small_network):
        with pytest.raises(VertexNotFoundError):
            small_network.vertex(99)

    def test_successors_and_predecessors(self, small_network):
        assert set(small_network.successors(2)) == {1, 3}
        assert set(small_network.predecessors(3)) == {2}

    def test_neighbors_union(self, small_network):
        assert set(small_network.iter_neighbors(3)) == {2}
        assert set(small_network.iter_neighbors(2)) == {1, 3}

    def test_incident_edges(self, small_network):
        incident = list(small_network.iter_incident_edges(2))
        assert sorted(edge.key for edge in incident) == [(1, 2), (2, 1), (2, 3)]

    def test_road_type_weight(self, small_network):
        assert small_network.w_rt(1, 2) is RoadType.PRIMARY
        assert small_network.w_rt(2, 3) is RoadType.RESIDENTIAL

    def test_bounding_box_covers_vertices(self, small_network):
        box = small_network.bounding_box()
        for vertex in small_network.vertices():
            lon, lat = vertex.lonlat
            assert box.min_lon <= lon <= box.max_lon and box.min_lat <= lat <= box.max_lat


class TestPathHelpers:
    def test_is_path(self, small_network):
        assert Path.of([1, 2, 3]).is_valid(small_network)
        assert not Path.of([1, 3]).is_valid(small_network)
        assert not Path.of([3, 2]).is_valid(small_network)  # 2 -> 3 is one-way

    def test_path_costs_are_sums(self, small_network):
        distance = small_network.path_distance_m([1, 2, 3])
        assert distance == pytest.approx(small_network.w_di(1, 2) + small_network.w_di(2, 3))
        time = small_network.path_travel_time_s([1, 2, 3])
        assert time == pytest.approx(
            small_network.edge(1, 2).travel_time_s + small_network.edge(2, 3).travel_time_s
        )

    def test_path_edges_missing_hop_raises(self, small_network):
        with pytest.raises(EdgeNotFoundError):
            small_network.path_edges([1, 3])


class TestGeneratedNetworks:
    def test_demo_network_shape(self, demo_network):
        assert demo_network.vertex_count == 36
        assert demo_network.edge_count > 100  # bidirectional grid edges

    def test_grid_network_has_multiple_road_types(self, grid_network):
        types = {edge.road_type for edge in grid_network.edges()}
        assert RoadType.RESIDENTIAL in types
        assert any(t.is_major for t in types)

    def test_grid_network_strongly_connected_enough(self, grid_network):
        # Every vertex must have at least one outgoing and one incoming edge.
        for vertex in grid_network.vertex_ids():
            assert grid_network.successors(vertex)
            assert grid_network.predecessors(vertex)

    def test_generator_is_deterministic(self):
        from repro.network import grid_city_network

        a = grid_city_network(rows=5, cols=5, seed=13)
        b = grid_city_network(rows=5, cols=5, seed=13)
        assert a.vertex_count == b.vertex_count
        coords_a = [v.lonlat for v in a.vertices()]
        coords_b = [v.lonlat for v in b.vertices()]
        assert coords_a == coords_b

    def test_country_network_contains_motorway_corridor(self):
        from repro.network import denmark_like_network

        network = denmark_like_network(seed=2)
        motorway_edges = [e for e in network.edges() if e.road_type is RoadType.MOTORWAY]
        assert motorway_edges
        assert network.vertex_count > 200


# --------------------------------------------------------------------------- #
# The arrays against a plain-dict model of the graph
# --------------------------------------------------------------------------- #
_FACTORS = st.sampled_from([0.5, 1.0, 2.0])  # falls, no-op writes, rises
_ADD_EDGE = st.tuples(
    st.just("edge"),
    st.sampled_from([(s, t) for s in range(4) for t in range(4) if s != t]),
    st.sampled_from(list(RoadType)),
    st.one_of(st.none(), st.floats(10.0, 500.0)),
)
_OPERATIONS = st.lists(
    st.one_of(
        _ADD_EDGE,  # listed three times: most steps add (or re-add) an edge
        _ADD_EDGE,
        _ADD_EDGE,
        st.tuples(st.just("vertex"), st.integers(0, 3), st.floats(-1.0, 1.0)),
        st.tuples(st.just("costs"), st.lists(st.tuples(st.integers(0, 30), _FACTORS, _FACTORS))),
        st.tuples(st.just("restore"), _FACTORS, _FACTORS, st.integers(0, 30)),
        st.tuples(st.just("pickle")),
        st.tuples(st.just("read")),
    ),
    min_size=4,
    max_size=40,
)


def _assert_matches(network: RoadNetwork, edges: dict) -> None:
    """Every reader agrees with ``edges`` (key -> Edge, in insertion order)."""
    assert list(network.edges()) == list(edges.values())
    graph = network.compiled()
    for key, edge in edges.items():
        assert network.edge(*key) == edge
        slot = graph.topology.slot_of[key]
        for attr in EDGE_COST_ATTRIBUTES:
            assert graph.array(attr)[slot] == getattr(edge, attr)
    for vertex in network.vertex_ids():
        out = [(t, e) for (s, t), e in edges.items() if s == vertex]
        into = [(s, e) for (s, t), e in edges.items() if t == vertex]
        assert list(network.successors(vertex).items()) == out
        assert list(network.predecessors(vertex).items()) == into


class TestArraysMatchADictModel:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_OPERATIONS)
    def test_every_reader_agrees_with_the_model_through_any_history(self, operations):
        """Edges added (again), traffic rises and falls, whole cost states
        adopted and pickle round trips, interleaved: the views read off the
        arrays stay what a dict of edges in insertion order says — a re-added
        edge keeps its place and takes its new values, and every other edge
        keeps its patched costs across the rebuild."""
        network, edges = RoadNetwork(name="model"), {}
        for vertex in range(3):
            network.add_vertex(vertex, 10.0 + 0.01 * vertex, 56.0)
        for operation in operations:
            kind, *args = operation
            if kind == "vertex":
                vertex, shift = args
                network.add_vertex(vertex, 10.0 + 0.01 * vertex, 56.0 + 0.01 * shift)
            elif kind == "edge":
                (source, target), road_type, distance = args
                if not {source, target} <= set(network.vertex_ids()):
                    continue
                edges[source, target] = network.add_edge(
                    source, target, road_type=road_type, distance_m=distance
                )
            elif kind == "costs" and edges:
                keys = list(edges)
                updates, expected = {}, {}
                for index, time_factor, fuel_factor in args[0]:
                    key = keys[index % len(keys)]
                    edge = expected.get(key, edges[key])
                    changes = {
                        "travel_time_s": edge.travel_time_s * time_factor,
                        "fuel_ml": edge.fuel_ml * fuel_factor,
                    }
                    updates[key] = changes
                    expected[key] = edges[key]._replace(**changes)
                touched = network.update_edge_costs(updates)
                assert touched == {key for key, edge in expected.items() if edge != edges[key]}
                edges.update(expected)
            elif kind == "restore" and edges:
                distance_factor, time_factor, every = args
                slot_of = network.compiled().topology.slot_of
                arrays = {attr: np.empty(len(edges)) for attr in EDGE_COST_ATTRIBUTES}
                adopted = {}
                for position, (key, edge) in enumerate(edges.items()):
                    if every and position % (every + 1) == 0:
                        edge = edge._replace(
                            distance_m=edge.distance_m * distance_factor,
                            travel_time_s=edge.travel_time_s * time_factor,
                        )
                    adopted[key] = edge
                    for attr in EDGE_COST_ATTRIBUTES:
                        arrays[attr][slot_of[key]] = getattr(edge, attr)
                changed = network.restore_cost_state(arrays, network.cost_version + 1)
                assert changed == {key for key, edge in adopted.items() if edge != edges[key]}
                edges = adopted
            elif kind == "pickle":
                network = pickle.loads(pickle.dumps(network))
            elif kind == "read":  # else writes land on staged rows, unread
                _assert_matches(network, edges)
        _assert_matches(network, edges)
