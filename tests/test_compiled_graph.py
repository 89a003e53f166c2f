"""Equivalence and invalidation tests for the compiled CSR graph kernels.

The compiled kernels (:mod:`repro.network.compiled`) must be drop-in
replacements for the dict-based reference implementations: identical paths
(not merely cost-identical), identical exceptions, across random graphs, all
cost features, weighted combinations, and unreachable pairs.
"""

from __future__ import annotations

import math
import pickle
import random
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.exceptions import NoPathError
from repro.network import (
    RoadNetwork,
    RoadType,
    compiled_disabled,
    grid_city_network,
)
from repro.network.compiled import CompiledGraph, batch
from repro.network.compiled.dispatch import try_cost_rows, try_dijkstra, try_route_many
from repro.network.compiled.graph import MEMO_SIZE
from repro.preferences import PreferenceVector
from repro.preferences.features import MAJOR_ROADS, LOCAL_ROADS, single_type_feature
from repro.routing import (
    ALL_COST_FEATURES,
    CostFeature,
    astar,
    bidirectional_dijkstra,
    cost_function,
    dict_dijkstra,
    dict_dijkstra_costs,
    dijkstra,
    heuristic_for,
    preference_dijkstra,
    weighted_cost,
)
from repro.routing.preference_dijkstra import preference_cost
from repro.traffic import TrafficFeed, synthetic_congestion

from support.reference import dict_preference_search, edges_by_slot


# --------------------------------------------------------------------------- #
# Random-graph strategy
# --------------------------------------------------------------------------- #
@st.composite
def random_networks(draw) -> RoadNetwork:
    """Small random directed networks with mixed road types.

    Built from a drawn seed so hypothesis explores many topologies, including
    disconnected ones (unreachable pairs are part of the contract).
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=2, max_value=12))
    density = draw(st.floats(min_value=0.1, max_value=0.6))
    rng = random.Random(seed)
    network = RoadNetwork(name=f"random-{seed}")
    for i in range(n):
        network.add_vertex(i, lon=10.0 + rng.random() * 0.1, lat=56.0 + rng.random() * 0.1)
    road_types = list(RoadType)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                network.add_edge(u, v, road_type=rng.choice(road_types))
    return network


def _pair(network: RoadNetwork, seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    ids = sorted(network.vertex_ids())
    return rng.choice(ids), rng.choice(ids)


def _both(fn_compiled, fn_dict):
    """Run the compiled and dict variants, normalizing NoPathError."""
    try:
        compiled_result = fn_compiled()
    except NoPathError:
        compiled_result = "no-path"
    try:
        dict_result = fn_dict()
    except NoPathError:
        dict_result = "no-path"
    return compiled_result, dict_result


#: Algorithm 2's slave road-condition features under test.
SLAVES = [MAJOR_ROADS, LOCAL_ROADS] + [single_type_feature(rt) for rt in RoadType]


HYPOTHESIS_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestDijkstraEquivalence:
    @HYPOTHESIS_SETTINGS
    @given(random_networks(), st.integers(min_value=0, max_value=1_000))
    def test_all_cost_features(self, network, pair_seed):
        source, destination = _pair(network, pair_seed)
        for feature in ALL_COST_FEATURES:
            cost = cost_function(feature)
            compiled_path, dict_path = _both(
                lambda: dijkstra(network, source, destination, cost),
                lambda: dict_dijkstra(network, source, destination, cost),
            )
            if compiled_path == "no-path":
                assert dict_path == "no-path"
            else:
                assert compiled_path.vertices == dict_path.vertices

    @HYPOTHESIS_SETTINGS
    @given(
        random_networks(),
        st.integers(min_value=0, max_value=1_000),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.sampled_from([1.0, 0.0]),
    )
    @example(grid_city_network(rows=4, cols=4, seed=1), 2, 0.0, 0.0, 0.0)
    def test_weighted_combination(self, network, pair_seed, w_distance, w_time, w_fuel):
        """All-zero weights included: the backward walk could cycle on zero
        costs, so the view is answered by the dict reference and the batch
        backend declines it."""
        source, destination = _pair(network, pair_seed)
        cost = weighted_cost(
            {
                CostFeature.DISTANCE: w_distance,
                CostFeature.TRAVEL_TIME: w_time,
                CostFeature.FUEL: w_fuel,
            }
        )
        compiled_path, dict_path = _both(
            lambda: dijkstra(network, source, destination, cost),
            lambda: dict_dijkstra(network, source, destination, cost),
        )
        if compiled_path == "no-path":
            assert dict_path == "no-path"
        else:
            assert compiled_path.vertices == dict_path.vertices
        if w_distance == w_time == w_fuel == 0.0 and network.edge_count:
            assert try_dijkstra(network, source, destination, cost) is None
            assert try_route_many(network, [(source, destination)], cost) is None

    @HYPOTHESIS_SETTINGS
    @given(random_networks(), st.integers(min_value=0, max_value=1_000), st.booleans())
    def test_dijkstra_costs(self, network, pair_seed, reverse):
        """The compiled cost rows against the dict-based single-source costs,
        and the path each row's predecessors hold against the row's cost."""
        source, _ = _pair(network, pair_seed)
        cost = cost_function(CostFeature.TRAVEL_TIME)
        rows = try_cost_rows(network, [source], cost, reverse=reverse)
        assert rows.predecessors.dtype == np.int32 and rows.reverse is reverse
        reference = dict_dijkstra_costs(network, source, cost)
        for vertex, column in rows.column_of.items():
            got = rows.costs[0, column]
            path = rows.path(source, vertex)
            if reverse:
                into = dict_dijkstra_costs(network, vertex, cost, targets=[source])
                assert got == pytest.approx(into.get(source, math.inf), rel=1e-12)
            else:
                assert got == reference.get(vertex, math.inf)
            if math.isinf(got):
                assert path == ()  # one-way streets and pockets: not reached, not an error
                continue
            assert (path[0], path[-1]) == ((vertex, source) if reverse else (source, vertex))
            # Priced the way the search summed it — outwards from the source —
            # the path costs the row's float exactly.
            hops = list(zip(path, path[1:]))
            total = 0.0
            for hop in reversed(hops) if reverse else hops:
                total += cost(network.edge(*hop))
            assert total == got

    def test_a_predecessor_row_that_is_no_tree_gives_none(self, demo_network):
        """A chain that loops, or stops short of the source, is ``None`` —
        the caller searches — never a wrong path and never an endless walk."""
        cost = cost_function(CostFeature.DISTANCE)
        rows = try_cost_rows(demo_network, [0], cost)
        path = rows.path(0, 35)
        assert len(path) > 3
        before_last, last = (rows.column_of[v] for v in path[-2:])
        kept = rows.predecessors[0, before_last]
        rows.predecessors[0, before_last] = last  # a two-vertex loop
        assert rows.path(0, 35) is None
        rows.predecessors[0, before_last] = batch.NO_PREDECESSOR  # the chain breaks off
        assert rows.path(0, 35) is None
        rows.predecessors[0, before_last] = kept
        assert rows.path(0, 35) == path

    def test_opaque_cost_falls_back_to_dict(self, demo_network):
        """Un-tagged callables still work (dict fallback) and agree."""

        def quirky(edge):
            return edge.distance_m + 7.0

        path = dijkstra(demo_network, 0, 35, quirky)
        reference = dict_dijkstra(demo_network, 0, 35, quirky)
        assert path.vertices == reference.vertices


def _assert_same_cost(network, cost, found, reference) -> None:
    """``found`` is a path as cheap as ``reference`` (both ``"no-path"`` when
    the pair is unreachable)."""
    if reference == "no-path":
        assert found == "no-path"
        return
    assert found.is_valid(network)
    assert (found.source, found.destination) == (reference.source, reference.destination)

    def priced(path):
        return sum(cost(edge) for edge in network.path_edges(path.vertices))

    assert priced(found) == pytest.approx(priced(reference), rel=1e-9)


class TestOtherKernels:
    @HYPOTHESIS_SETTINGS
    @given(random_networks(), st.integers(min_value=0, max_value=1_000))
    def test_astar(self, network, pair_seed):
        """A* with each feature's geometric heuristic against dict Dijkstra,
        cost for cost, unreachable pairs included."""
        source, destination = _pair(network, pair_seed)
        for feature in ALL_COST_FEATURES:
            cost = cost_function(feature)
            heuristic = heuristic_for(network, destination, feature)
            found, reference = _both(
                lambda: astar(network, source, destination, cost, heuristic),
                lambda: dict_dijkstra(network, source, destination, cost),
            )
            _assert_same_cost(network, cost, found, reference)

    @HYPOTHESIS_SETTINGS
    @given(random_networks(), st.integers(min_value=0, max_value=1_000))
    def test_bidirectional(self, network, pair_seed):
        """The bidirectional search against dict Dijkstra, cost for cost."""
        source, destination = _pair(network, pair_seed)
        cost = cost_function(CostFeature.TRAVEL_TIME)
        found, reference = _both(
            lambda: bidirectional_dijkstra(network, source, destination, cost),
            lambda: dict_dijkstra(network, source, destination, cost),
        )
        _assert_same_cost(network, cost, found, reference)

    @HYPOTHESIS_SETTINGS
    @given(
        random_networks(),
        st.integers(min_value=0, max_value=1_000),
        st.integers(0, 7),
        st.booleans(),
    )
    def test_preference_dijkstra(self, network, pair_seed, slave_index, compiled):
        """Algorithm 2 against its dict reference: on the compiled search and,
        under ``compiled_disabled()``, on ``dict_dijkstra`` pricing the masked
        view one edge at a time."""
        source, destination = _pair(network, pair_seed)
        slave = ([None] + SLAVES)[slave_index % (len(SLAVES) + 1)]
        preference = PreferenceVector(master=CostFeature.TRAVEL_TIME, slave=slave)
        if source == destination:
            return
        with nullcontext() if compiled else compiled_disabled():
            compiled_path, dict_path = _both(
                lambda: preference_dijkstra(network, source, destination, preference),
                lambda: dict_preference_search(network, source, destination, preference),
            )
        if compiled_path == "no-path":
            assert dict_path == "no-path"
        else:
            assert compiled_path.vertices == dict_path.vertices

    @HYPOTHESIS_SETTINGS
    @given(random_networks(), st.integers(0, 7), st.integers(min_value=0, max_value=1_000))
    def test_masked_view_prices_each_slot_like_its_array(self, network, slave_index, seed):
        """The two forms of Algorithm 2's cost view agree slot for slot, ``inf``
        where Case (i) skips the edge included — and again after traffic."""
        if network.edge_count == 0:
            return
        slave = SLAVES[slave_index % len(SLAVES)]
        view = preference_cost(network, PreferenceVector(CostFeature.TRAVEL_TIME, slave))
        graph = network.compiled()

        def assert_forms_agree():
            per_edge = [view(edge) for edge in edges_by_slot(network)]
            assert per_edge == view.build_cost_array(graph).tolist()

        assert_forms_agree()
        feed = TrafficFeed(network)
        for updates in synthetic_congestion(network, seed=seed, fraction=0.5, steps=1):
            feed.apply(updates)
        assert graph.costs.version > 0 and network.compiled() is graph
        assert_forms_agree()

    def test_custom_heuristic_steers_only_the_dict_reference(self):
        """A* is the dict search on every cost view: the caller's heuristic
        steers it, and the answer is cost-identical to Dijkstra's."""
        network = grid_city_network(rows=8, cols=8, seed=3)
        cost = cost_function(CostFeature.TRAVEL_TIME)
        plain_heuristic = heuristic_for(network, 63, CostFeature.TRAVEL_TIME)
        network.prepare_landmarks(cost)  # a landmark table changes nothing
        calls = []

        def counting_heuristic(vertex):
            calls.append(vertex)
            return plain_heuristic(vertex)

        def path_cost(path):
            return sum(cost(edge) for edge in network.path_edges(path.vertices))

        for source in (0, 7, 56, 27):
            steered = astar(network, source, 63, cost, counting_heuristic)
            assert calls
            calls.clear()
            optimal = dict_dijkstra(network, source, 63, cost)
            assert path_cost(steered) == pytest.approx(path_cost(optimal), rel=1e-12)
            assert steered.vertices == astar(network, source, 63, cost, plain_heuristic).vertices

    def test_workspace_reuse_is_stateless(self, grid_network):
        """Interleaved queries on the shared per-graph state stay reproducible."""
        cost = cost_function(CostFeature.TRAVEL_TIME)
        rng = random.Random(4)
        ids = sorted(grid_network.vertex_ids())
        pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(25)]
        first = [dijkstra(grid_network, a, b, cost).vertices for a, b in pairs]
        second = [dijkstra(grid_network, a, b, cost).vertices for a, b in pairs]
        with compiled_disabled():
            reference = [dijkstra(grid_network, a, b, cost).vertices for a, b in pairs]
        assert first == second == reference


class TestCompiledView:
    def test_lazy_and_cached(self, demo_network):
        view = demo_network.compiled()
        assert view is demo_network.compiled()
        assert isinstance(view, CompiledGraph)
        assert view.vertex_count == demo_network.vertex_count
        assert view.edge_count == demo_network.edge_count

    def test_mutation_during_compilation_serves_uncached_snapshot(self, monkeypatch):
        """A topology mutation racing a compile must not poison the cache.

        The builder thread is paused *after* the CSR snapshot is built but
        before ``compiled()`` decides whether to cache it; a concurrent
        ``add_edge`` then invalidates it.  The stale snapshot is served to
        the builder uncached, and the next accessor gets a fresh, correct
        one (previously only the comment in ``road_network.py`` promised
        this).
        """
        import threading

        from repro.network.compiled import graph as graph_module

        network = grid_city_network(rows=5, cols=5, seed=2)
        original_init = graph_module.CompiledGraph.__init__
        build_done = threading.Event()
        mutated = threading.Event()
        first_build = []

        def racy_init(self, net, *args, **kwargs):
            original_init(self, net, *args, **kwargs)
            if not first_build:
                first_build.append(True)
                build_done.set()
                assert mutated.wait(timeout=10.0)

        monkeypatch.setattr(graph_module.CompiledGraph, "__init__", racy_init)
        results = {}
        builder = threading.Thread(target=lambda: results.update(view=network.compiled()))
        builder.start()
        assert build_done.wait(timeout=10.0)
        network.add_edge(0, 6, road_type=RoadType.MOTORWAY)  # mid-build mutation
        mutated.set()
        builder.join(timeout=10.0)
        assert not builder.is_alive()

        stale = results["view"]
        assert (0, 6) not in stale.topology.slot_of  # predates the mutation
        assert network._compiled is None  # ... and was not cached
        fresh = network.compiled()
        assert fresh is not stale
        assert (0, 6) in fresh.topology.slot_of
        assert fresh.edge_count == network.edge_count
        assert network.compiled() is fresh  # the fresh snapshot is cached
        path = dijkstra(network, 0, 6, cost_function(CostFeature.DISTANCE))
        assert path.vertices == (0, 6)

    def test_cost_update_blocks_until_concurrent_build_caches(self):
        """update_edge_costs serializes with compiled() builds on the same
        lock, so a patch can never land in the middle of a build: the build
        caches first, then the patch updates the cached snapshot."""
        import threading

        network = grid_city_network(rows=6, cols=6, seed=3)
        errors = []

        def hammer_costs():
            try:
                for i in range(30):
                    network.update_edge_costs(
                        {(0, 1): {"travel_time_s": 10.0 + i}}
                    )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=hammer_costs) for _ in range(3)]
        for thread in threads:
            thread.start()
        views = [network.compiled() for _ in range(10)]
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        assert network.cost_version == 90
        final = network.compiled()
        slot = final.topology.slot_of[0, 1]
        assert final.array("travel_time_s")[slot] == network.edge(0, 1).travel_time_s
        assert views  # builds interleaved with patches never crashed

    def test_mutation_invalidates_compiled_view(self):
        network = grid_city_network(rows=4, cols=4, seed=1)
        before = network.compiled()
        version = network.version
        network.add_edge(0, 5, road_type=RoadType.MOTORWAY)
        assert network.version > version
        after = network.compiled()
        assert after is not before
        assert after.edge_count == before.edge_count + 1

    def test_mutation_changes_routes(self):
        network = RoadNetwork()
        for i in range(4):
            network.add_vertex(i, lon=10.0 + i * 0.01, lat=56.0)
        for i in range(3):
            network.add_edge(i, i + 1, distance_m=1_000.0)
        long_way = dijkstra(network, 0, 3, cost_function(CostFeature.DISTANCE))
        assert long_way.vertices == (0, 1, 2, 3)
        network.add_edge(0, 3, distance_m=10.0)  # drops the compiled view
        direct = dijkstra(network, 0, 3, cost_function(CostFeature.DISTANCE))
        assert direct.vertices == (0, 3)

    def test_add_vertex_invalidates_bounding_box(self):
        network = RoadNetwork()
        network.add_vertex(0, lon=10.0, lat=56.0)
        network.add_vertex(1, lon=10.1, lat=56.1)
        box = network.bounding_box()
        assert box is network.bounding_box()  # cached
        network.add_vertex(2, lon=11.0, lat=57.0)
        grown = network.bounding_box()
        assert grown.max_lon == pytest.approx(11.0)
        assert grown.max_lat == pytest.approx(57.0)

    def test_workspace_sized_to_graph(self, demo_network):
        view = demo_network.compiled()
        # Pooled corridor buffers are reused per thread once released...
        with view.borrowed_scratch() as first:
            assert first.pruned.shape == (view.edge_count,)
            assert first.costs.shape == (view.edge_count,)
        with view.borrowed_scratch() as second:
            assert second is first
        # ... but nested borrows get their own instance.
        with view.borrowed_scratch() as outer:
            with view.borrowed_scratch() as inner:
                assert inner is not outer

    def test_memo_cache_is_bounded(self, demo_network):
        view = demo_network.compiled()
        store = view.costs
        for i in range(MEMO_SIZE + 50):
            view.memo(("stress", i), lambda: object())
        assert len(store._memo) <= MEMO_SIZE

    def test_pickle_drops_compiled_view(self, demo_network):
        demo_network.compiled()
        clone = pickle.loads(pickle.dumps(demo_network))
        assert clone._compiled is None
        assert clone.vertex_count == demo_network.vertex_count
        # ... and rebuilds on demand with identical structure.
        assert clone.compiled().edge_count == demo_network.compiled().edge_count

    def test_iter_neighbors_matches_neighbors(self, demo_network):
        for vertex in demo_network.vertex_ids():
            lazy = list(demo_network.iter_neighbors(vertex))
            assert len(lazy) == len(set(lazy))  # no duplicates
            assert set(lazy) == set(demo_network.successors(vertex)) | set(
                demo_network.predecessors(vertex)
            )

    def test_iter_incident_edges_matches_incident_edges(self, demo_network):
        for vertex in demo_network.vertex_ids():
            expected = [demo_network.edge(vertex, t) for t in demo_network.successors(vertex)]
            expected += [demo_network.edge(s, vertex) for s in demo_network.predecessors(vertex)]
            assert list(demo_network.iter_incident_edges(vertex)) == expected


class TestPipelineEquivalence:
    """The acceptance bar: identical routes through the full stack."""

    def test_l2r_and_baselines_identical_routes(self, tiny, tiny_split, fitted_l2r):
        from repro.baselines import (
            DomBaseline,
            FastestBaseline,
            ShortestBaseline,
            TripBaseline,
        )

        network = tiny.network
        algorithms = [
            fitted_l2r,
            ShortestBaseline(network),
            FastestBaseline(network),
            DomBaseline(network, tiny_split.train, max_trajectories_per_driver=4),
            TripBaseline(network, tiny_split.train),
        ]
        rng = random.Random(11)
        ids = sorted(network.vertex_ids())
        queries = [(rng.choice(ids), rng.choice(ids)) for _ in range(12)]

        def run_all():
            routes = {}
            for algorithm in algorithms:
                for source, destination in queries:
                    try:
                        path = algorithm.route(source, destination)
                        routes[(type(algorithm).__name__, source, destination)] = path.vertices
                    except NoPathError:
                        routes[(type(algorithm).__name__, source, destination)] = "no-path"
            return routes

        compiled_routes = run_all()
        with compiled_disabled():
            dict_routes = run_all()
        assert compiled_routes == dict_routes
