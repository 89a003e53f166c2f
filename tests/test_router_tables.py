"""The region router's compiled corridors (``core/router.py``).

A cross-region request reads its trajectory corridor from the plan of its
region pair, built from CSR slot arrays compiled once per router.  That path
must give the paths and diagnostics of the dict-based reference
(``compiled_disabled()``) to the last vertex, follow live traffic and
topology changes, survive ``save``/``load``, and be safe to share between the
service's worker threads.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

from repro.analysis.sanitizer import sanitize
from repro.core import LearnToRoute, RegionRouter
from repro.core.router import _CorridorCost, _hop_counts, _plan
from repro.datasets import d1_like_scenario, d2_like_scenario, tiny_scenario
from repro.datasets.splits import split_by_id
from repro.network import RoadNetwork, RoadType
from repro.network.compiled import compiled_disabled
from repro.regions import TrajectoryGraph, build_region_graph, cluster_trajectory_graph
from repro.regions.region import Region
from repro.regions.region_graph import RegionGraph
from repro.routing import CostFeature, Path, cost_function
from repro.routing.preference_dijkstra import slave_mask
from repro.service import L2REngine, RouteRequest, RoutingService, load_model, save_model
from repro.traffic import TrafficFeed, synthetic_congestion
from repro.trajectories import MatchedTrajectory

from support.reference import edges_by_slot

ALL_CASES = {"in-region-same", "in-region", "in-out-region", "out-region", "fallback-fastest"}


def _fit(scenario) -> LearnToRoute:
    split = split_by_id(scenario.trajectories, train_fraction=0.75)
    return LearnToRoute().fit(scenario.network, split.train)


def _random_ods(network: RoadNetwork, count: int, seed: int) -> list[tuple[int, int]]:
    ids = sorted(network.vertex_ids())
    rng = np.random.default_rng(seed)
    return [(int(s), int(d)) for s, d in rng.choice(ids, size=(count, 2))]


def _answers(router, ods):
    return [router.route_with_diagnostics(s, d) for s, d in ods]


@pytest.fixture()
def own_tiny():
    """A tiny scenario of this test's own: its network gets mutated."""
    scenario = tiny_scenario(seed=3, n_trajectories=120)
    return scenario, _fit(scenario)


class TestPathIdentity:
    def test_compiled_corridor_equals_dict_reference_in_every_case(self, monkeypatch):
        cases = set()
        for scenario in (
            tiny_scenario(seed=3, n_trajectories=120),
            d2_like_scenario(scale=0.05, seed=7),
        ):
            network = scenario.network
            train = split_by_id(scenario.trajectories, train_fraction=0.75).train
            # Next to the fitted router, one over a region graph left in
            # pieces (few trajectories, no B-edges): some region pairs have
            # no region path and fall back to the fastest path.
            clustering = cluster_trajectory_graph(TrajectoryGraph.from_trajectories(network, train))
            with monkeypatch.context() as unconnected:
                unconnected.setattr(RegionGraph, "connect_with_bfs", lambda graph: 0)
                pieces = build_region_graph(network, clustering, train[:12])
            ods = _random_ods(network, 150, seed=11)
            for router in (_fit(scenario).model.router, RegionRouter(pieces)):
                compiled = _answers(router, ods)
                with compiled_disabled():
                    reference = _answers(router, ods)
                assert compiled == reference
                assert all(path.is_valid(network) for path, _ in compiled)
                cases.update(diagnostics.case for _, diagnostics in compiled)
        assert cases == ALL_CASES


def _one_way_line() -> RoadNetwork:
    """0 - 1 - 2 -> 3 - 4: every segment two-way except the one-way 2 -> 3."""
    network = RoadNetwork(name="one-way-line")
    for i in range(5):
        network.add_vertex(i, lon=10.0 + i * 0.012, lat=56.0)
    for i in range(4):
        network.add_edge(
            i, i + 1, road_type=RoadType.RESIDENTIAL, distance_m=1_000.0, bidirectional=i != 2
        )
    return network


class TestCorridorArrays:
    def test_bincount_corridor_equals_dict_corridor(self):
        network = _one_way_line()
        regions = [Region(region_id=i, vertices=frozenset({v})) for i, v in enumerate((0, 2, 4))]
        graph = RegionGraph(network, regions)
        for trajectory_id, vertices in enumerate([(0, 1, 2, 3, 4), (0, 1, 2), (0, 1, 2)]):
            graph.add_trajectory(
                MatchedTrajectory(trajectory_id, 0, Path.of(vertices), 0.0, 60.0)
            )
        tables = RegionRouter(graph)._current_tables()
        # Region edges (0, 1) and (0, 2) both run over the hops 0-1 and 1-2.
        plan = _plan(tables, [tables.steps[(0, 1)], tables.steps[(0, 2)]], ())

        corridor = _hop_counts(pair for h in plan.hops for pair in h.paths)
        assert corridor[(0, 1)] == corridor[(1, 0)] == 4  # 3 traversals + 1, added
        assert corridor[(3, 2)] == 1  # counted by the dict, but not a road edge
        compiled = network.compiled()
        slot_of = compiled.topology.slot_of
        assert (3, 2) not in slot_of
        expected = {slot_of[hop]: count for hop, count in corridor.items() if hop in slot_of}
        assert plan.slots.tolist() == sorted(expected)
        assert plan.divisors.tolist() == [1.0 + math.log1p(expected[s]) for s in plan.slots]

        # The same numbers, seen as costs: array form == per-edge reference.
        cost = _CorridorCost(plan)
        weights = cost.build_cost_array(compiled)
        assert weights.tolist() == [cost(edge) for edge in edges_by_slot(network)]

    def test_discount_table_covers_inner_counts_above_every_region_edge(self):
        # 0 - 1 - 2 - 3 - 4 - 5: eleven drives inside region {0, 1, 2} and a
        # single one across to region {5}, so the largest count of the
        # request 0 -> 5 comes from an inner path, not from a region edge.
        network = RoadNetwork(name="line")
        for i in range(6):
            network.add_vertex(i, lon=10.0 + i * 0.012, lat=56.0)
        for i in range(5):
            network.add_edge(
                i, i + 1, road_type=RoadType.RESIDENTIAL, distance_m=1_000.0, bidirectional=True
            )
        regions = [
            Region(region_id=0, vertices=frozenset({0, 1, 2})),
            Region(region_id=1, vertices=frozenset({5})),
        ]
        graph = RegionGraph(network, regions)
        for trajectory_id in range(12):
            vertices = (0, 1, 2) if trajectory_id < 11 else (0, 1, 2, 3, 4, 5)
            graph.add_trajectory(
                MatchedTrajectory(trajectory_id, 0, Path.of(vertices), 0.0, 60.0)
            )
        router = RegionRouter(graph)
        tables = router._current_tables()
        step = tables.steps[(0, 1)]
        assert tables.inner[0].counts.max() > step[1].counts.max()
        # Every stored path at once reaches the table's last entry, no further.
        plan = _plan(tables, [step], tuple(tables.inner.values()))
        assert plan.divisors.max() == tables.discount[-1]

        compiled = router.route_with_diagnostics(0, 5)
        with compiled_disabled():
            assert router.route_with_diagnostics(0, 5) == compiled
        assert compiled[0].vertices == (0, 1, 2, 3, 4, 5)
        assert compiled[1].case == "in-region"

    def test_discount_table_covers_every_count_a_request_can_reach(self, fitted_l2r):
        tables = fitted_l2r.model.router._current_tables()
        # Each region edge once (it may serve both orders of its region pair).
        edges = {step[0].key: step for step in tables.steps.values()}
        plan = _plan(tables, list(edges.values()), tuple(tables.inner.values()))
        assert plan.divisors.max() == tables.discount[-1]


@pytest.fixture(scope="module")
def d2_like():
    scenario = d2_like_scenario(scale=0.25, seed=7)
    return scenario.network, _fit(scenario).model.router


@pytest.fixture(scope="module")
def d1_like():
    scenario = d1_like_scenario(scale=0.25, seed=11)
    return scenario.network, _fit(scenario).model.router


def _assembled(tables, plan, graph) -> np.ndarray:
    """The corridor cost array as every request assembled it before plans."""
    counts = np.bincount(
        np.concatenate([h.slots for h in plan.hops]),
        weights=np.concatenate([h.counts for h in plan.hops]),
        minlength=tables.edge_count,
    )
    on_corridor = np.flatnonzero(counts)
    preference = plan.preference
    feature = preference.master if preference is not None else CostFeature.TRAVEL_TIME
    raw = graph.array(cost_function(feature).cost_attr)
    weights = raw.copy()
    if preference is not None and preference.slave is not None:
        weights[~slave_mask(graph, preference.slave)] *= 1.5
    discount = tables.discount[counts[on_corridor].astype(np.intp)]
    weights[on_corridor] = raw[on_corridor] / discount
    return weights


def _priced(plans, network) -> dict:
    """Each plan's cost array, checked against the per-edge reference."""
    priced = {}
    graph, edges = network.compiled(), edges_by_slot(network)
    for pair, plan in plans.items():
        if plan is not None:
            cost = _CorridorCost(plan)
            priced[pair] = cost.build_cost_array(graph)
            with compiled_disabled():
                assert priced[pair].tolist() == [cost(edge) for edge in edges]
    return priced


class TestPlans:
    def test_plan_arrays_equal_the_per_request_assembly(self, tiny, fitted_l2r):
        router = fitted_l2r.model.router
        _answers(router, _random_ods(tiny.network, 200, seed=21))
        tables = router._current_tables()
        graph = tiny.network.compiled()
        priced = _priced(tables.plans, tiny.network)
        assert len(priced) > 20
        for pair, weights in priced.items():
            assert weights.tobytes() == _assembled(tables, tables.plans[pair], graph).tobytes()

    def test_a_reused_plan_prices_the_live_costs(self, own_tiny):
        scenario, pipeline = own_tiny
        network = scenario.network
        router = pipeline.model.router
        ods = _random_ods(network, 80, seed=5)
        _answers(router, ods)
        tables = router._current_tables()
        plans = dict(tables.plans)
        before = _priced(plans, network)
        for batch in synthetic_congestion(network, seed=2, fraction=0.5, steps=1):
            TrafficFeed(network).apply(batch)
        after = _answers(router, ods)
        assert router._current_tables() is tables
        assert all(tables.plans[pair] is plan for pair, plan in plans.items())
        assert after == _answers(RegionRouter(pipeline.region_graph), ods)
        repriced = _priced(plans, network)
        assert any(not np.array_equal(before[pair], repriced[pair]) for pair in before)

    def test_a_topology_change_rebuilds_the_plans(self, own_tiny):
        scenario, pipeline = own_tiny
        network = scenario.network
        router = pipeline.model.router
        ods = _random_ods(network, 80, seed=5)
        _answers(router, ods)
        old = router._current_tables()
        ids = sorted(network.vertex_ids())
        source, target = next(
            (s, t) for s in ids for t in reversed(ids) if s != t and t not in network.successors(s)
        )
        network.add_edge(source, target, road_type=RoadType.RESIDENTIAL)
        answers = _answers(router, ods)
        tables = router._current_tables()
        assert tables is not old and tables.plans
        assert all(
            tables.plans.get(pair) is not plan
            for pair, plan in old.plans.items()
            if plan is not None
        )
        _priced(tables.plans, network)
        assert answers == _answers(RegionRouter(pipeline.region_graph), ods)

    def test_a_loaded_model_routes_the_same_paths_from_empty_plans(
        self, tiny, fitted_l2r, tmp_path
    ):
        ods = _random_ods(tiny.network, 80, seed=9)
        expected = _answers(fitted_l2r.model.router, ods)
        assert fitted_l2r.model.router._current_tables().plans
        loaded = load_model(save_model(fitted_l2r, tmp_path / "l2r.model")).model.router
        assert loaded._current_tables().plans == {}
        assert _answers(loaded, ods) == expected

    @pytest.mark.parametrize("scenario", ["d2_like", "d1_like"])
    def test_warm_plans_answer_like_plans_cleared_before_every_call(self, request, scenario):
        network, router = request.getfixturevalue(scenario)
        # Every OD twice: the second pass is served from the first pass's plans.
        ods = _random_ods(network, 150, seed=3) * 2
        warm = _answers(router, ods)

        def cold(source, destination):
            router._current_tables().plans.clear()
            return router.route_with_diagnostics(source, destination)

        assert [cold(s, d) for s, d in ods] == warm


class TestStaleness:
    def test_answers_follow_live_traffic(self, own_tiny):
        scenario, pipeline = own_tiny
        network = scenario.network
        router = pipeline.model.router
        ods = _random_ods(network, 60, seed=5)
        before = _answers(router, ods)
        # Congest the edges the answers run over — corridor edges foremost.
        used = {key for path, _ in before for key in path.edge_keys}
        updates = {
            key: {"travel_time_s": network.edge(*key).travel_time_s * 6.0}
            for key in sorted(used)[::2]
        }
        with sanitize(strict=True):
            assert network.update_edge_costs(updates)
            after = _answers(router, ods)
            fresh = _answers(RegionRouter(pipeline.region_graph), ods)
        assert after == fresh
        assert after != before
        with compiled_disabled():
            assert _answers(router, ods) == after

    def test_topology_change_recompiles_the_tables(self, own_tiny):
        scenario, pipeline = own_tiny
        network = scenario.network
        router = pipeline.model.router
        tables = router._current_tables()
        assert router._current_tables() is tables
        ids = sorted(network.vertex_ids())
        source, target = next(
            (s, t) for s in ids for t in reversed(ids) if s != t and t not in network.successors(s)
        )
        network.add_edge(source, target, road_type=RoadType.RESIDENTIAL)
        rebuilt = router._current_tables()
        assert rebuilt is not tables
        assert rebuilt.topology_version == network.topology_version
        assert rebuilt.edge_count == tables.edge_count + 1
        ods = _random_ods(network, 60, seed=5)
        compiled = _answers(router, ods)
        assert compiled == _answers(RegionRouter(pipeline.region_graph), ods)
        with compiled_disabled():
            assert _answers(router, ods) == compiled


class TestSharing:
    def test_save_load_round_trips_to_identical_routes(self, tiny, fitted_l2r, tmp_path):
        assert fitted_l2r.model.router.__getstate__()["_tables"] is None
        loaded = LearnToRoute.load(fitted_l2r.save(tmp_path / "l2r.model"))
        ods = _random_ods(tiny.network, 80, seed=9)
        assert _answers(loaded, ods) == _answers(fitted_l2r, ods)

    def test_concurrent_route_callers_equal_serial(self, tiny, fitted_l2r):
        ods = [(s, d) for s, d in _random_ods(tiny.network, 120, seed=13) if s != d]
        requests = [RouteRequest(source=s, destination=d) for s, d in ods]
        service = RoutingService(enable_cache=False)
        service.register("L2R", L2REngine(fitted_l2r))
        callers = 8
        answered: dict[int, list] = {}
        start = threading.Barrier(callers)

        def caller(index: int) -> None:
            start.wait(timeout=30)
            answered[index] = [service.route(request) for request in requests[index::callers]]

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        service.close()
        assert sorted(answered) == list(range(callers))
        serial = _answers(fitted_l2r, ods)
        for index, responses in answered.items():
            expected = serial[index::callers]
            assert [r.path.vertices for r in responses] == [path.vertices for path, _ in expected]
            assert [r.diagnostics for r in responses] == [diagnostics for _, diagnostics in expected]

    def test_threads_racing_a_recompile_all_get_the_serial_answers(self, own_tiny):
        # The tables are republished, and their region-pair plans filled,
        # without a lock after a topology change: more threads than cores hit
        # the stale router at once, switching often, and every one of them
        # must still answer like a fresh router.
        scenario, pipeline = own_tiny
        network = scenario.network
        router = pipeline.model.router
        ods = _random_ods(network, 40, seed=17)
        ids = sorted(network.vertex_ids())
        source, target = next(
            (s, t) for s in ids for t in reversed(ids) if s != t and t not in network.successors(s)
        )
        network.add_edge(source, target, road_type=RoadType.RESIDENTIAL)
        expected = _answers(RegionRouter(pipeline.region_graph), ods)

        results: dict[int, list] = {}
        start = threading.Barrier(8)

        def worker(index: int) -> None:
            start.wait(timeout=30)
            results[index] = _answers(router, ods)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results.get(i) for i in range(8)] == [expected] * 8
        assert router._current_tables().topology_version == network.topology_version
