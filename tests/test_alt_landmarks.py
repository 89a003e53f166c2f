"""ALT landmark bounds, batched SSSP, and the goal-directed service plumbing.

Property-based contracts:

* landmark lower bounds are admissible (never exceed true distances) on
  randomized grids — including after randomized ``TrafficUpdate`` sequences
  that move costs both up and down (the table rescales or rebuilds);
* A* and bidirectional answers stay cost-identical to the dict-based
  reference Dijkstra on networks whose landmark tables are built;
* ``dijkstra_many`` (and the batched ``route_many``) produce results
  identical to per-query compiled Dijkstra;
* contraction hierarchies detect staleness instead of silently answering
  with pre-update costs.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, NoPathError, StaleHierarchyError
from repro.network import grid_city_network
from repro.network.compiled import batch as compiled_batch
from repro.network.compiled import dispatch as compiled_dispatch
from repro.network.compiled.landmarks import REBUILD_RATIO
from repro.routing import (
    CostFeature,
    astar,
    bidirectional_dijkstra,
    build_contraction_hierarchy,
    ch_shortest_path,
    cost_function,
    dict_dijkstra,
    dict_dijkstra_costs,
    dijkstra,
)
from repro.service import AlgorithmEngine, RouteRequest, RoutingService
from repro.baselines import FastestBaseline, ShortestBaseline
from repro.traffic import TrafficFeed, TrafficUpdate

HYPOTHESIS_SETTINGS = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

COST = cost_function(CostFeature.TRAVEL_TIME)


def _grid(seed: int, rows: int = 6, cols: int = 6):
    return grid_city_network(rows=rows, cols=cols, seed=seed)


def _resolved(network, cost=COST):
    graph = network.compiled()
    key, array, version = graph.resolve_cost(cost)
    return graph, key, array, version


def _true_costs_from(network, source):
    return dict_dijkstra_costs(network, source, COST)


def _assert_admissible(network, table, sample_targets):
    graph = network.compiled()
    ids = sorted(network.vertex_ids())
    for target in sample_targets:
        for source in ids:
            true = _true_costs_from(network, source).get(target, math.inf)
            bound = table.pair_bounds(graph.index_of[source], graph.index_of[target])[0]
            assert bound <= true + 1e-6 * max(1.0, abs(true)) or (
                math.isinf(bound) and math.isinf(true)
            ), f"bound {bound} exceeds true distance {true} for {source}->{target}"


def _path_cost(network, path):
    return sum(e.travel_time_s for e in network.path_edges(path.vertices))


class TestAdmissibility:
    @HYPOTHESIS_SETTINGS
    @given(st.integers(min_value=0, max_value=500))
    def test_bounds_are_admissible_on_random_grids(self, seed):
        network = _grid(seed)
        table = network.prepare_landmarks(count=4)
        assert table is not None
        rng = random.Random(seed)
        ids = sorted(network.vertex_ids())
        _assert_admissible(network, table, rng.sample(ids, 3))

    @HYPOTHESIS_SETTINGS
    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=4))
    def test_bounds_stay_admissible_after_traffic_updates(self, seed, batches):
        """Random up/down cost moves: the table rescales and stays a bound."""
        network = _grid(seed)
        table = network.prepare_landmarks(count=4)
        feed = TrafficFeed(network)
        rng = random.Random(seed + 99)
        edges = list(network.edges())
        for _ in range(batches):
            touched = rng.sample(edges, min(6, len(edges)))
            feed.apply(
                TrafficUpdate.scale_by(
                    e.source, e.target, travel_time_s=rng.uniform(0.6, 3.0)
                )
                for e in touched
            )
        graph, key, array, version = _resolved(network)
        table = graph.landmark_table(key, array, version)
        assert table is not None
        ids = sorted(network.vertex_ids())
        _assert_admissible(network, table, rng.sample(ids, 3))

    def test_table_rescales_on_cost_decrease_and_rebuilds_past_ratio(self):
        network = _grid(11)
        table = network.prepare_landmarks(count=4)
        assert table.scale == 1.0
        feed = TrafficFeed(network)
        edge = next(network.edges())
        # A mild decrease rescales the same table object.
        feed.apply([TrafficUpdate.scale_by(edge.source, edge.target, travel_time_s=0.8)])
        graph, key, array, version = _resolved(network)
        revalidated = graph.landmark_table(key, array, version)
        # Copy-on-write: the served table is never mutated — a twin sharing
        # the distance matrices carries the new scale (no rebuild).
        assert revalidated is not table
        assert revalidated.rows is table.rows
        assert revalidated.low is table.low and revalidated.slot_cell is table.slot_cell
        assert table.scale == 1.0
        assert revalidated.scale == pytest.approx(0.8)
        # A collapse below REBUILD_RATIO evicts and rebuilds at scale 1.
        feed.apply(
            [
                TrafficUpdate.scale_by(
                    edge.source, edge.target, travel_time_s=REBUILD_RATIO / 2
                )
            ]
        )
        graph, key, array, version = _resolved(network)
        rebuilt = graph.landmark_table(key, array, version)
        assert rebuilt is not table
        assert rebuilt.scale == 1.0

    def test_rebuild_preserves_operator_configuration(self):
        network = _grid(13)
        tuned = network.prepare_landmarks(count=6)
        assert tuned.count == 6
        feed = TrafficFeed(network)
        edge = next(network.edges())
        feed.apply(
            [
                TrafficUpdate.scale_by(
                    edge.source, edge.target, travel_time_s=REBUILD_RATIO / 3
                )
            ]
        )
        # Plain query-path access (no explicit config) triggers the rebuild:
        # the tuned count must survive the self-eviction.
        graph, key, array, version = _resolved(network)
        rebuilt = graph.landmark_table(key, array, version)
        assert rebuilt is not tuned
        assert rebuilt.count == 6
        assert rebuilt.scale == 1.0

    def test_increases_keep_buildtime_bounds_unscaled(self):
        network = _grid(12)
        table = network.prepare_landmarks(count=4)
        feed = TrafficFeed(network)
        edge = next(network.edges())
        feed.apply([TrafficUpdate.scale_by(edge.source, edge.target, travel_time_s=2.5)])
        graph, key, array, version = _resolved(network)
        assert graph.landmark_table(key, array, version) is table
        assert table.scale == 1.0


class TestGoalDirectedCostIdentity:
    @HYPOTHESIS_SETTINGS
    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=1000))
    def test_alt_astar_matches_reference_dijkstra_cost(self, seed, pair_seed):
        network = _grid(seed)
        rng = random.Random(pair_seed)
        ids = sorted(network.vertex_ids())
        source, destination = rng.sample(ids, 2)
        reference = dict_dijkstra(network, source, destination, COST)
        alt_path = astar(network, source, destination, COST)
        assert alt_path.is_valid(network)
        assert _path_cost(network, alt_path) == pytest.approx(
            _path_cost(network, reference), rel=1e-9
        )
        bidi = bidirectional_dijkstra(network, source, destination, COST)
        assert bidi.is_valid(network)
        assert _path_cost(network, bidi) == pytest.approx(
            _path_cost(network, reference), rel=1e-9
        )

    @HYPOTHESIS_SETTINGS
    @given(st.integers(min_value=0, max_value=300))
    def test_alt_astar_cost_identity_survives_traffic(self, seed):
        network = _grid(seed)
        network.prepare_landmarks(count=4)
        feed = TrafficFeed(network)
        rng = random.Random(seed)
        edges = list(network.edges())
        feed.apply(
            TrafficUpdate.scale_by(e.source, e.target, travel_time_s=rng.uniform(0.7, 2.5))
            for e in rng.sample(edges, min(8, len(edges)))
        )
        ids = sorted(network.vertex_ids())
        for _ in range(4):
            source, destination = rng.sample(ids, 2)
            reference = dict_dijkstra(network, source, destination, COST)
            alt_path = astar(network, source, destination, COST)
            assert _path_cost(network, alt_path) == pytest.approx(
                _path_cost(network, reference), rel=1e-9
            )

    def test_unreachable_raises_with_alt(self):
        network = _grid(5)
        isolated = max(network.vertex_ids()) + 1
        network.add_vertex(isolated, lon=0.0, lat=0.0)
        with pytest.raises(NoPathError):
            astar(network, sorted(network.vertex_ids())[0], isolated, COST)

    def test_selection_survives_sink_at_lowest_index(self):
        """A sink vertex at compiled index 0 must not collapse selection."""
        network = _grid(22)
        lowest = min(network.vertex_ids())
        sink = lowest - 1  # sorts first -> compiled index 0, no outgoing edges
        network.add_vertex(sink, lon=10.0, lat=56.0)
        network.add_edge(lowest, sink)  # reachable, but a dead end
        table = network.prepare_landmarks(count=4)
        assert table.count == 4
        # Repeated explicit-count preparation reuses the cached table even
        # when selection could not satisfy the request exactly.
        assert network.prepare_landmarks(count=4) is table

    def test_repeated_prepare_with_capped_count_does_not_rebuild(self):
        network = _grid(23, rows=2, cols=2)  # 4 vertices: count=9 is capped
        table = network.prepare_landmarks(count=9)
        assert table.count <= 4
        assert network.prepare_landmarks(count=9) is table

    @pytest.mark.parametrize("count", [0, -2])
    def test_prepare_rejects_count_below_one(self, count):
        network = _grid(21)
        with pytest.raises(ConfigurationError):
            network.prepare_landmarks(count=count)


class TestDijkstraMany:
    @HYPOTHESIS_SETTINGS
    @given(st.integers(min_value=0, max_value=500))
    def test_distances_match_reference(self, seed):
        network = _grid(seed)
        graph, key, array, version = _resolved(network)
        rng = random.Random(seed)
        ids = sorted(network.vertex_ids())
        sources = rng.sample(ids, 4)
        matrix = compiled_batch.dijkstra_many(
            graph, key, array, version, [graph.index_of[s] for s in sources]
        )
        for row, source in enumerate(sources):
            truth = _true_costs_from(network, source)
            for vid in ids:
                expected = truth.get(vid, math.inf)
                got = matrix[row, graph.index_of[vid]]
                if math.isinf(expected):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(expected, rel=1e-12)

    @HYPOTHESIS_SETTINGS
    @given(st.integers(min_value=0, max_value=500))
    def test_batch_paths_identical_to_compiled_dijkstra(self, seed):
        network = _grid(seed)
        rng = random.Random(seed + 1)
        ids = sorted(network.vertex_ids())
        pairs = [tuple(rng.sample(ids, 2)) for _ in range(8)]
        answers = compiled_dispatch.try_route_many(network, pairs, COST)
        assert answers is not None
        for (source, destination), answer in zip(pairs, answers):
            per_query = dijkstra(network, source, destination, COST)
            assert tuple(answer) == per_query.vertices


class TestBatchedRouteMany:
    @pytest.fixture()
    def network(self):
        return _grid(31, rows=8, cols=8)

    @pytest.fixture()
    def service(self, network):
        service = RoutingService()
        service.register("Fastest", AlgorithmEngine(FastestBaseline(network)))
        service.register("Shortest", AlgorithmEngine(ShortestBaseline(network)))
        return service

    def _requests(self, network, count, seed=7):
        rng = random.Random(seed)
        ids = sorted(network.vertex_ids())
        return [
            RouteRequest(source=a, destination=b)
            for a, b in (rng.sample(ids, 2) for _ in range(count))
        ]

    def test_batched_answers_match_serial(self, network, service):
        requests = self._requests(network, 40)
        batched = service.route_many(requests, engine="Fastest")
        service.clear_cache()
        serial = [service.route(request, engine="Fastest") for request in requests]
        for a, b in zip(batched, serial):
            assert a.ok and b.ok
            assert a.path.vertices == b.path.vertices
        assert any(r.batched for r in batched)
        assert not any(r.batched for r in serial)

    def test_batched_responses_populate_cache_and_stats(self, network, service):
        requests = self._requests(network, 24)
        first = service.route_many(requests, engine="Fastest")
        assert all(r.ok for r in first)
        again = service.route_many(requests, engine="Fastest")
        assert all(r.cache_hit for r in again)
        stats = service.stats()
        assert stats.batched_requests == sum(1 for r in first if r.batched) > 0
        assert stats.requests == len(requests) * 2
        assert stats.batched_latency_p95_s >= stats.batched_latency_p50_s >= 0.0

    def test_small_groups_stay_unbatched(self, network, service):
        """A source asked for one destination has no search to share."""
        ids = sorted(network.vertex_ids())
        requests = [RouteRequest(source=a, destination=ids[-1]) for a in ids[:12]]
        responses = service.route_many(requests, engine="Fastest")
        assert all(r.ok for r in responses)
        assert not any(r.batched for r in responses)

    def test_unreachable_requests_fall_back_per_request(self, network, service):
        requests = self._requests(network, 12)
        isolated = max(network.vertex_ids()) + 1
        network.add_vertex(isolated, lon=0.0, lat=0.0)
        requests[3] = RouteRequest(source=requests[3].source, destination=isolated)
        responses = service.route_many(requests, engine="Fastest")
        assert not responses[3].ok
        assert responses[3].error is not None
        assert all(r.ok for i, r in enumerate(responses) if i != 3)

    def test_mixed_engines_partition_by_cost_view(self, network, service):
        requests = self._requests(network, 24)
        fastest = service.route_many(requests, engine="Fastest")
        shortest = service.route_many(requests, engine="Shortest")
        for a, b in zip(fastest, shortest):
            assert a.engine == "Fastest" and b.engine == "Shortest"


class TestHierarchyStaleness:
    def test_stale_hierarchy_raises_by_default(self):
        network = _grid(41)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        assert ch_shortest_path(network, ids[0], ids[-1], hierarchy).vertices
        edge = next(network.edges())
        network.update_edge_costs({(edge.source, edge.target): {"travel_time_s": 999.0}})
        assert hierarchy.is_stale(network)
        with pytest.raises(StaleHierarchyError):
            ch_shortest_path(network, ids[0], ids[-1], hierarchy)

    def test_stale_hierarchy_rebuild_answers_with_current_costs(self):
        network = _grid(42, rows=4, cols=4)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        source, destination = ids[0], ids[-1]
        before = ch_shortest_path(network, source, destination, hierarchy)
        for edge in list(network.path_edges(before.vertices)):
            network.update_edge_costs(
                {(edge.source, edge.target): {"travel_time_s": edge.travel_time_s * 50}}
            )
        path = ch_shortest_path(network, source, destination, hierarchy, on_stale="rebuild")
        assert not hierarchy.is_stale(network)
        reference = dijkstra(network, source, destination, COST)
        assert _path_cost(network, path) == pytest.approx(
            _path_cost(network, reference), rel=1e-9
        )

    def test_stale_hierarchy_ignore_keeps_frozen_answers(self):
        network = _grid(43, rows=4, cols=4)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        edge = next(network.edges())
        network.update_edge_costs({(edge.source, edge.target): {"travel_time_s": 999.0}})
        path = ch_shortest_path(network, ids[0], ids[-1], hierarchy, on_stale="ignore")
        assert path.vertices  # answered from the frozen structure, knowingly

    def test_invalid_on_stale_value_rejected(self):
        network = _grid(44, rows=3, cols=3)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        with pytest.raises(ValueError):
            ch_shortest_path(network, 0, 1, hierarchy, on_stale="nope")
