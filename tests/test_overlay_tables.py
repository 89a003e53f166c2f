"""Boundary tables (:mod:`repro.service.sharding.overlay`).

The overlay, the stitch and the leg reconstruction all read one mechanism —
per (shard, feature, direction) a memoized table of shard-local costs between
the shard's boundary and its vertices.  What is pinned here:

* **cost identity** against the dict-Dijkstra reference on directed grids
  (one-way streets make the reverse tables differ from the forward ones, a
  disconnected pocket puts ``inf`` in them), for every feature, before and
  after single-attribute traffic — and, through the worker's per-pair
  fallback, with the compiled path disabled;
* **degenerate shards**: no boundary at all, and a single vertex;
* **no last resort** on the benchmark's 60x60 grid — and the last resort,
  counted, for a table whose predecessor chains break;
* **what searches when**: nothing before the first request, nothing for a
  feature nobody serves, nothing for a shard a diff did not touch, nothing
  per request for a cross-shard pair.
"""

from __future__ import annotations

import math
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network import RoadNetwork, compiled_disabled, grid_city_network
from repro.network.compiled import batch, dispatch, shm
from repro.routing import CostFeature, cost_function
from repro.routing.costs import FEATURE_EDGE_ATTRIBUTES
from repro.routing.dijkstra import dict_dijkstra_costs
from repro.service import RouteRequest, build_shard_plan
from repro.service.sharding import BoundaryOverlay, CostDiff, CrossShardRouter, ShardPlan
from repro.service.sharding.overlay import path_cost
from repro.service.sharding.plan import _boundary_structure
from repro.service.sharding.protocol import RouteWork, WorkerPayload
from repro.service.sharding.worker import ShardWorker
from repro.traffic import TrafficFeed
from repro.traffic.updates import TrafficUpdate

ALL_FEATURES = (CostFeature.DISTANCE, CostFeature.TRAVEL_TIME, CostFeature.FUEL)
ATTRIBUTES = tuple(FEATURE_EDGE_ATTRIBUTES.values())


# -------------------------------------------------------------------- #
# Helpers
# -------------------------------------------------------------------- #
def _directed_grid(rows: int, cols: int, seed: int, pocket: bool = False) -> RoadNetwork:
    """A grid city with a quarter of its streets one-way; with ``pocket``,
    its first two vertices are cut off from everything else."""
    grid = grid_city_network(rows, cols, seed=seed)
    rng = random.Random(seed)
    network = RoadNetwork(name="directed-grid")
    for vertex in grid.vertices():
        network.add_vertex(vertex.vertex_id, vertex.lon, vertex.lat)
    isolated = set(sorted(grid.vertex_ids())[:2]) if pocket else set()
    dropped = set()
    for edge in grid.edges():
        if edge.source < edge.target and rng.random() < 0.25:
            dropped.add(rng.choice([edge.key, (edge.target, edge.source)]))
    for edge in grid.edges():
        if edge.key in dropped or (edge.source in isolated) != (edge.target in isolated):
            continue
        network.add_edge(
            edge.source,
            edge.target,
            road_type=edge.road_type,
            distance_m=edge.distance_m,
            speed_kmh=edge.speed_kmh,
            travel_time_s=edge.travel_time_s,
            fuel_ml=edge.fuel_ml,
        )
    return network


def _plan_of(network: RoadNetwork, assignment: dict[int, int]) -> ShardPlan:
    """A hand-made plan (the partitioner never makes degenerate shards)."""
    shard_count = max(assignment.values()) + 1
    boundary, cut_edges = _boundary_structure(network, assignment, shard_count)
    return ShardPlan(
        shard_count=shard_count,
        assignment=assignment,
        shards=tuple(
            tuple(sorted(v for v, shard in assignment.items() if shard == k))
            for k in range(shard_count)
        ),
        boundary=boundary,
        cut_edges=cut_edges,
    )


def _reference_cost(network, source, destination, feature) -> float:
    costs = dict_dijkstra_costs(network, source, cost_function(feature), targets=[destination])
    return costs.get(destination, math.inf)


def _assert_cost_identity(network, router, pairs, features=ALL_FEATURES) -> None:
    for feature in features:
        answers = router.route_pairs(pairs, feature)
        assert answers is not None
        for (source, destination), (vertices, _) in zip(pairs, answers):
            expected = _reference_cost(network, source, destination, feature)
            if vertices is None:
                assert math.isinf(expected), (source, destination, feature)
                continue
            assert vertices[0] == source and vertices[-1] == destination
            got = path_cost(network, vertices, feature)
            assert math.isclose(got, expected, rel_tol=1e-9), (
                source, destination, feature, got, expected,
            )


def _apply_traffic(network, overlay, rng, attribute: str, count: int = 6) -> None:
    """One batch scaling ``attribute`` alone on random edges, through both
    the master network and the overlay, as a worker's ``apply_diff`` does."""
    edges = [edge.key for edge in network.edges()]
    result = TrafficFeed(network).apply(
        [
            TrafficUpdate.scale_by(*rng.choice(edges), **{attribute: rng.uniform(0.5, 3.0)})
            for _ in range(count)
        ]
    )
    overlay.apply(
        {
            key: {attr: float(getattr(network.edge(*key), attr)) for attr in ATTRIBUTES}
            for key in result.touched_edges
        }
    )
    overlay.refresh()


def _random_pairs(network, rng, count: int) -> list[tuple[int, int]]:
    vertices = sorted(network.vertex_ids())
    return [(rng.choice(vertices), rng.choice(vertices)) for _ in range(count)]


class _CountingRows:
    """``dispatch.try_cost_rows`` with a record of every call."""

    def __init__(self, monkeypatch) -> None:
        self.calls: list[tuple[str, str, bool, int]] = []
        real = dispatch.try_cost_rows

        def counting(network, sources, edge_cost, reverse=False):
            self.calls.append((network.name, edge_cost.cost_attr, reverse, len(sources)))
            return real(network, sources, edge_cost, reverse=reverse)

        monkeypatch.setattr(dispatch, "try_cost_rows", counting)

    def take(self) -> list[tuple[str, str, bool, int]]:
        calls, self.calls = self.calls, []
        return calls


# -------------------------------------------------------------------- #
# (a) cost identity on directed grids, through single-attribute traffic
# -------------------------------------------------------------------- #
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.integers(min_value=3, max_value=6),
    cols=st.integers(min_value=3, max_value=6),
    shard_count=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    rounds=st.integers(min_value=1, max_value=3),
)
def test_stitched_costs_equal_the_reference_on_directed_grids(
    rows, cols, shard_count, seed, rounds
):
    network = _directed_grid(rows, cols, seed % 1000)
    overlay = BoundaryOverlay(network, build_shard_plan(network, shard_count))
    router = CrossShardRouter(network, overlay)
    rng = random.Random(seed)
    pairs = _random_pairs(network, rng, 10)
    _assert_cost_identity(network, router, pairs)
    for _ in range(rounds):
        _apply_traffic(network, overlay, rng, rng.choice(ATTRIBUTES))
        _assert_cost_identity(network, router, pairs)


def test_one_way_streets_make_reverse_tables_differ():
    network = _directed_grid(6, 6, seed=3)
    plan = build_shard_plan(network, 2)
    overlay = BoundaryOverlay(network, plan)
    shard_id = next(k for k in range(2) if len(plan.boundary[k]) > 1)
    forward = overlay.table(shard_id, CostFeature.DISTANCE)
    backward = overlay.table(shard_id, CostFeature.DISTANCE, reverse=True)
    assert forward.costs.shape == backward.costs.shape
    assert (forward.costs != backward.costs).any()


@pytest.mark.parametrize("shard_count", [2, 3])
def test_a_disconnected_pocket_is_unreachable_not_an_error(shard_count):
    network = _directed_grid(5, 5, seed=11, pocket=True)
    overlay = BoundaryOverlay(network, build_shard_plan(network, shard_count))
    router = CrossShardRouter(network, overlay)
    inside = sorted(network.vertex_ids())[:2]
    outside = sorted(network.vertex_ids())[2:]
    rng = random.Random(5)
    pairs = (
        [(rng.choice(inside), rng.choice(outside)) for _ in range(4)]
        + [(rng.choice(outside), rng.choice(inside)) for _ in range(4)]
        + [(inside[0], inside[1]), (inside[1], inside[0])]
        + _random_pairs(network, rng, 8)
    )
    _assert_cost_identity(network, router, pairs)
    for feature in ALL_FEATURES:
        answers = router.route_pairs(pairs[:8], feature)
        assert all(vertices is None for vertices, _ in answers)
    _apply_traffic(network, overlay, rng, "fuel_ml")
    _assert_cost_identity(network, router, pairs)


# -------------------------------------------------------------------- #
# (b) degenerate shards
# -------------------------------------------------------------------- #
def test_a_shard_without_boundary_is_routed_locally():
    # Two grids that share no edge: each is a shard, neither has a boundary.
    left = grid_city_network(3, 3, seed=1)
    network = RoadNetwork(name="two-islands")
    offset = max(left.vertex_ids()) + 1
    for shift in (0, offset):
        for vertex in left.vertices():
            network.add_vertex(vertex.vertex_id + shift, vertex.lon + shift, vertex.lat)
        for edge in left.edges():
            network.add_edge(
                edge.source + shift, edge.target + shift, road_type=edge.road_type,
                distance_m=edge.distance_m, speed_kmh=edge.speed_kmh,
                travel_time_s=edge.travel_time_s, fuel_ml=edge.fuel_ml,
            )
    plan = _plan_of(network, {v: int(v >= offset) for v in network.vertex_ids()})
    assert plan.boundary == ((), ()) and not plan.boundary_vertices
    overlay = BoundaryOverlay(network, plan)
    assert overlay.order == ()
    assert overlay.matrix(CostFeature.FUEL)[0].shape == (0, 0)
    router = CrossShardRouter(network, overlay)
    pairs = [(0, offset - 1), (offset, offset + 4), (0, offset), (offset + 2, 3), (5, 5)]
    _assert_cost_identity(network, router, pairs)
    answers = router.route_pairs(pairs, CostFeature.DISTANCE)
    assert [used_overlay for _, used_overlay in answers] == [False, False, True, True, False]
    assert answers[2][0] is None and answers[3][0] is None
    assert router.fallbacks == 0


def test_a_one_vertex_shard():
    network = _directed_grid(4, 4, seed=2)
    vertices = sorted(network.vertex_ids())
    alone = vertices[5]
    plan = _plan_of(network, {v: 1 if v == alone else (2 if v > vertices[9] else 0) for v in vertices})
    assert plan.shards[1] == (alone,) and plan.boundary[1] == (alone,)
    overlay = BoundaryOverlay(network, plan)
    router = CrossShardRouter(network, overlay)
    rng = random.Random(9)
    pairs = (
        [(alone, alone)]
        + [(alone, v) for v in vertices[::3]]
        + [(v, alone) for v in vertices[1::3]]
        + _random_pairs(network, rng, 10)
    )
    _assert_cost_identity(network, router, pairs)
    _apply_traffic(network, overlay, rng, "travel_time_s")
    _assert_cost_identity(network, router, pairs)


# -------------------------------------------------------------------- #
# (c) broken chains; the compiled path disabled
# -------------------------------------------------------------------- #
def test_a_table_whose_chains_break_sends_the_pair_to_the_full_search():
    network = _directed_grid(5, 5, seed=8)
    overlay = BoundaryOverlay(network, build_shard_plan(network, 2))
    router = CrossShardRouter(network, overlay)
    pairs = _random_pairs(network, random.Random(3), 12)
    _assert_cost_identity(network, router, pairs, features=(CostFeature.FUEL,))
    assert router.fallbacks == 0
    for shard_id in range(2):
        overlay.table(shard_id, CostFeature.FUEL).predecessors[:] = batch.NO_PREDECESSOR
    _assert_cost_identity(network, router, pairs, features=(CostFeature.FUEL,))
    assert router.fallbacks > 0


def _booted_workers(network, plan, segment, **payload):
    blob = pickle.dumps(network)
    workers = []
    for shard_id in range(plan.shard_count):
        worker = ShardWorker(
            WorkerPayload(
                worker_id=shard_id, shard_id=shard_id, plan=plan,
                network=pickle.loads(blob), spec=segment.spec, **payload,
            ),
            transport=None,
        )
        worker.boot()
        workers.append(worker)
    return workers


def _work(pairs, engine="Fastest") -> RouteWork:
    return RouteWork(
        task_id=0,
        engine=engine,
        requests=tuple(RouteRequest(source=s, destination=t) for s, t in pairs),
        positions=tuple(range(len(pairs))),
    )


def test_compiled_disabled_is_served_by_the_per_pair_fallback():
    network = _directed_grid(5, 5, seed=8)
    plan = build_shard_plan(network, 2)
    pairs = _random_pairs(network, random.Random(3), 12)
    with shm.export_graph(network.compiled(), cost_version=network.cost_version) as segment:
        (worker, other) = _booted_workers(network, plan, segment, cache_size=0)
        try:
            with compiled_disabled():
                assert worker.router.route_pairs(pairs, CostFeature.TRAVEL_TIME) is None
                with pytest.raises(Exception, match="compiled"):
                    worker.overlay.matrix(CostFeature.TRAVEL_TIME)
                results = worker.serve(_work(pairs))
            # Nothing unusable was memoized while the compiled path was off.
            assert worker.router.route_pairs(pairs, CostFeature.TRAVEL_TIME) is not None
        finally:
            worker.close()
            other.close()
    for (source, destination), answer in zip(pairs, results.answers):
        expected = _reference_cost(network, source, destination, CostFeature.TRAVEL_TIME)
        if answer.vertices is None:
            assert math.isinf(expected) and answer.error.startswith("NoPathError")
        else:
            assert math.isclose(
                path_cost(network, answer.vertices, CostFeature.TRAVEL_TIME),
                expected,
                rel_tol=1e-9,
            )


# -------------------------------------------------------------------- #
# (d) the benchmark grid never needs the last resort
# -------------------------------------------------------------------- #
def test_no_pair_takes_the_full_network_fallback_on_the_60x60_grid():
    network = grid_city_network(60, 60, seed=5)
    overlay = BoundaryOverlay(network, build_shard_plan(network, 2))
    router = CrossShardRouter(network, overlay)
    rng = random.Random(7)
    pairs = _random_pairs(network, rng, 256)
    used = 0
    for start in range(0, len(pairs), 64):
        answers = router.route_pairs(pairs[start : start + 64], CostFeature.TRAVEL_TIME)
        assert all(vertices is not None for vertices, _ in answers)
        used += sum(used_overlay for _, used_overlay in answers)
    assert used > 64  # the sample does cross shards
    assert router.fallbacks == 0
    _apply_traffic(network, overlay, rng, "travel_time_s", count=32)
    _assert_cost_identity(network, router, pairs[:24], features=(CostFeature.TRAVEL_TIME,))
    assert router.fallbacks == 0


# -------------------------------------------------------------------- #
# (e) what searches when
# -------------------------------------------------------------------- #
def test_tables_are_built_lazily_per_feature_and_kept_per_shard(monkeypatch):
    network = grid_city_network(8, 8, seed=4)
    plan = build_shard_plan(network, 2)
    rng = random.Random(12)
    vertices = sorted(network.vertex_ids())
    cross = [
        (s, t)
        for s, t in ((rng.choice(vertices), rng.choice(vertices)) for _ in range(200))
        if plan.shard_of(s) == 0 and plan.shard_of(t) == 1
    ][:12]
    local = [(s, t) for s in plan.shards[0][:3] for t in plan.shards[0][-3:]]
    edge_in_0 = next(
        e.key for e in network.edges() if plan.shard_of(e.source) == plan.shard_of(e.target) == 0
    )
    rows = _CountingRows(monkeypatch)

    def diff(scale: float) -> CostDiff:
        base = network.cost_version
        TrafficFeed(network).apply([TrafficUpdate.scale_by(*edge_in_0, travel_time_s=scale)])
        return CostDiff(
            version=network.cost_version,
            base_version=base,
            changes=((edge_in_0, (("travel_time_s", network.edge(*edge_in_0).travel_time_s),)),),
        )

    with shm.export_graph(network.compiled(), cost_version=network.cost_version) as segment:
        (worker, other) = _booted_workers(network, plan, segment, cache_size=0)
        try:
            assert rows.take() == []  # boot builds no table

            # A diff before any request has nothing to keep current.
            worker.apply_diff(diff(1.5))
            assert worker.version == network.cost_version
            assert rows.take() == []

            # First cross-shard call: the tables of the served feature only —
            # forward for both shards (the boundary matrix), reverse for the
            # source shard — and no row for any request endpoint.
            worker.serve(_work(cross))
            built = rows.take()
            assert sorted(built) == sorted(
                [
                    (worker.overlay.subnets[0].name, "travel_time_s", False, len(plan.boundary[0])),
                    (worker.overlay.subnets[1].name, "travel_time_s", False, len(plan.boundary[1])),
                    (worker.overlay.subnets[0].name, "travel_time_s", True, len(plan.boundary[0])),
                ]
            )

            # Now cross-shard pairs are lookups: no search at all.
            answers = worker.serve(_work(cross[::-1])).answers
            assert rows.take() == []
            assert all(answer.cross_shard and answer.vertices for answer in answers)

            # In-shard pairs search once, one row per distinct source.
            worker.serve(_work(local))
            assert rows.take() == [(worker.overlay.subnets[0].name, "travel_time_s", False, 3)]

            # A diff inside shard 0 rebuilds shard 0's live tables before it
            # returns; shard 1's table is the same object as before.
            kept = worker.overlay.table(1, CostFeature.TRAVEL_TIME)
            retired = worker.overlay.table(0, CostFeature.TRAVEL_TIME)
            worker.apply_diff(diff(2.0))
            assert sorted(rows.take()) == sorted(
                [
                    (worker.overlay.subnets[0].name, "travel_time_s", False, len(plan.boundary[0])),
                    (worker.overlay.subnets[0].name, "travel_time_s", True, len(plan.boundary[0])),
                ]
            )
            assert worker.overlay.table(1, CostFeature.TRAVEL_TIME) is kept
            assert worker.overlay.table(0, CostFeature.TRAVEL_TIME) is not retired
            worker.serve(_work(cross))
            assert rows.take() == []  # the request after the diff finds them ready

            # A Fastest-only worker never built a distance or fuel table.
            assert {attribute for _, attribute, _, _ in built} == {"travel_time_s"}
            assert {feature for _, feature, _ in worker.overlay._live_tables} == {
                CostFeature.TRAVEL_TIME
            }
            assert worker.router.fallbacks == 0
        finally:
            worker.close()
            other.close()
    for (source, destination), answer in zip(cross, answers[::-1]):
        assert answer.vertices[0] == source and answer.vertices[-1] == destination
