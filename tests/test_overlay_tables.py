"""Boundary tables (:mod:`repro.service.sharding.overlay`).

The overlay, the stitch and the leg reconstruction all read one mechanism —
per (shard, feature, direction) a held table of shard-local costs between
the shard's boundary and its vertices — at two levels: the shards, and the
cells each shard is bisected into for its in-shard pairs.  What is pinned
here:

* **cost identity** of the two-level router against the dict-Dijkstra
  reference on directed grids (one-way streets make the reverse tables
  differ from the forward ones, a disconnected pocket puts ``inf`` in them),
  for every feature, in-shard pairs of both kinds included, before and after
  rising and falling traffic and through a worker resync — and, through the
  worker's per-pair fallback, with the compiled path disabled;
* **repair through long chains of rises**: after every rise-only batch each
  live table of both levels, repaired without a search, has a fresh
  search's reachability and costs, and its predecessors form a tree of the
  current costs; a batch with a fall searches the tables it touched again,
  and a rise-only resync repairs;
* **degenerate shards and cells**: no boundary at all, a single vertex (one
  cell), and a shard whose bisection cuts no edge;
* **no last resort** on the benchmark's 60x60 grid — and the last resort,
  counted at the top level, for a shard or cell table whose predecessor
  chains break;
* **what searches when**: nothing before the first request, nothing for a
  feature nobody serves, nothing for a shard or cell a diff did not touch,
  nothing for a rise where it did, nothing per request for a cross-shard or
  cross-cell pair, one row per distinct source per cell for a same-cell
  pair;
* **what is read once per cost version**: overlay walks through successor
  columns equal the per-hop ``argmin`` scan, exact ties included, at both
  levels; an expanded exit→entry segment lives exactly as long as its
  feature's closure; and the one-pass audit rejects exactly the spliced
  paths that step over a non-edge or misprice, which the last resort then
  answers.
"""

from __future__ import annotations

import math
import pickle
import random

import numpy as np
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
from repro.service.sharding.overlay import ESCAPE_REL_TOL, path_cost
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


def _copy_grid(network, source, shift: int, lon_shift: float) -> None:
    """Add ``source`` to ``network``, vertex ids moved by ``shift`` and
    longitudes by ``lon_shift``."""
    for vertex in source.vertices():
        network.add_vertex(vertex.vertex_id + shift, vertex.lon + lon_shift, vertex.lat)
    for edge in source.edges():
        _link(network, edge.source + shift, edge.target + shift, edge)


def _link(network, source, target, like) -> None:
    network.add_edge(
        source, target, road_type=like.road_type, distance_m=like.distance_m,
        speed_kmh=like.speed_kmh, travel_time_s=like.travel_time_s, fuel_ml=like.fuel_ml,
    )


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


def _in_shard_pairs(plan, rng, count: int) -> list[tuple[int, int]]:
    """Pairs with both ends in one shard, about half of them in one cell."""
    pairs = []
    for _ in range(count):
        shard = rng.choice(plan.shards)
        pairs.append((rng.choice(shard), rng.choice(shard)))
    return pairs


def _diff(network, batch, segment=None) -> CostDiff:
    """Apply ``batch`` on the owner's side — network, then the segment if
    given — and return the broadcast that would follow."""
    graph = network.compiled()
    base = network.cost_version
    result = TrafficFeed(network).apply(batch)
    if segment is not None:
        segment.patch(
            graph, [graph.topology.slot_of[key] for key in result.touched_edges],
            result.cost_version,
        )
    return CostDiff(
        version=result.cost_version,
        base_version=base,
        changes=tuple(
            (key, tuple((attr, float(getattr(network.edge(*key), attr))) for attr in ATTRIBUTES))
            for key in sorted(result.touched_edges)
        ),
    )


def _scaled(network, rng, rise: bool, count: int = 6) -> list[TrafficUpdate]:
    """One batch scaling one attribute on random edges, all up or all down."""
    edges = [edge.key for edge in network.edges()]
    attribute = rng.choice(ATTRIBUTES)
    low, high = (1.1, 3.0) if rise else (0.3, 0.9)
    return [
        TrafficUpdate.scale_by(*rng.choice(edges), **{attribute: rng.uniform(low, high)})
        for _ in range(count)
    ]


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
    pocket=st.booleans(),
    rises=st.lists(st.booleans(), min_size=1, max_size=3),
)
def test_stitched_costs_equal_the_reference_on_directed_grids(
    rows, cols, shard_count, seed, pocket, rises
):
    network = _directed_grid(rows, cols, seed % 1000, pocket=pocket)
    plan = build_shard_plan(network, shard_count)
    overlay = BoundaryOverlay(network, plan)
    router = CrossShardRouter(network, overlay)
    rng = random.Random(seed)
    pairs = _random_pairs(network, rng, 10) + _in_shard_pairs(plan, rng, 10)
    _assert_cost_identity(network, router, pairs)
    assert set(overlay.cell_routers) == {
        plan.shard_of(s) for s, t in pairs if plan.shard_of(s) == plan.shard_of(t)
    }
    for rise in rises:
        diff = _diff(network, _scaled(network, rng, rise))
        overlay.apply(diff.as_updates())
        overlay.refresh()
        _assert_cost_identity(network, router, pairs)
    assert router.fallbacks == 0


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    shard_count=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    rises=st.lists(st.booleans(), min_size=2, max_size=4),
)
def test_cell_answers_stay_exact_through_diffs_and_a_resync(shard_count, seed, rises):
    """A worker's two-level router, through broadcast diffs and then a
    segment patch it only catches up with by resyncing."""
    network = _directed_grid(6, 6, seed % 1000, pocket=seed % 2 == 0)
    plan = build_shard_plan(network, shard_count)
    rng = random.Random(seed)
    pairs = _in_shard_pairs(plan, rng, 12) + _random_pairs(network, rng, 6)
    with shm.export_graph(network.compiled(), cost_version=network.cost_version) as segment:
        workers = _booted_workers(network, plan, segment)
        worker = workers[0]
        try:
            _assert_cost_identity(network, worker.router, pairs)
            *broadcast, missed = rises
            for rise in broadcast:
                worker.apply_diff(_diff(network, _scaled(network, rng, rise), segment))
                _assert_cost_identity(network, worker.router, pairs)
            _diff(network, _scaled(network, rng, missed), segment)
            worker.resync()
            assert worker.version == network.cost_version
            _assert_cost_identity(network, worker.router, pairs)
            assert worker.router.fallbacks == 0
        finally:
            for each in workers:
                each.close()


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
# (a') repaired tables through long chains of rises
# -------------------------------------------------------------------- #
def _levels(overlay):
    """The overlay and the cell overlays under it."""
    return [overlay] + [cells.overlay for cells in overlay.cell_routers.values()]


def _assert_tables_exact(overlay, fresh_rows) -> None:
    """Every live table of both levels against a fresh search of its own
    sub-network: the same reachability, costs within ``ESCAPE_REL_TOL``,
    and a predecessor matrix that is a tree of the current costs — each
    reached entry but the source is its predecessor's cost plus the cost
    of the edge between them, to the bit, so every chain ends at the source
    and prices at its row cost."""
    for level in _levels(overlay):
        for (shard_id, feature, reverse), (_, table) in level._live_tables.items():
            subnet = level.subnets[shard_id]
            sources = level.plan.boundary[shard_id]
            fresh = fresh_rows(subnet, sources, cost_function(feature), reverse=reverse)
            reached = np.isfinite(fresh.costs)
            assert (np.isfinite(table.costs) == reached).all()
            expected = fresh.costs[reached]
            assert (
                np.abs(table.costs[reached] - expected)
                <= ESCAPE_REL_TOL * np.maximum(1.0, expected)
            ).all()
            attribute = FEATURE_EDGE_ATTRIBUTES[feature]
            ids = table.vertex_ids
            for source in sources:
                row = table.row_of[source]
                for column, before in enumerate(table.predecessors[row]):
                    cost = table.costs[row, column]
                    if before < 0:
                        assert math.isinf(cost) or ids[column] == source
                        continue
                    hop = (ids[column], ids[before]) if reverse else (ids[before], ids[column])
                    step = getattr(subnet.edge(*hop), attribute)
                    assert cost == table.costs[row, before] + step


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    size=st.integers(min_value=5, max_value=7),
    shard_count=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    batches=st.integers(min_value=15, max_value=25),
)
def test_rise_only_batches_repair_every_table_exactly(size, shard_count, seed, batches):
    network = _directed_grid(size, size, seed % 1000, pocket=True)
    plan = build_shard_plan(network, shard_count)
    overlay = BoundaryOverlay(network, plan)
    router = CrossShardRouter(network, overlay)
    rng = random.Random(seed)
    pairs = _random_pairs(network, rng, 8) + _in_shard_pairs(plan, rng, 8)
    fresh_rows = dispatch.try_cost_rows
    moved = 0
    with pytest.MonkeyPatch.context() as patch:
        rows = _CountingRows(patch)
        _assert_cost_identity(network, router, pairs)
        for _ in range(batches):
            rows.take()
            held = {
                (id(level), key): table.costs
                for level in _levels(overlay)
                for key, (_, table) in level._live_tables.items()
            }
            diff = _diff(network, _scaled(network, rng, rise=True))
            overlay.apply(diff.as_updates())
            overlay.refresh()
            assert rows.take() == []  # every live table was repaired
            moved += sum(
                table.costs is not held[(id(level), key)]
                for level in _levels(overlay)
                for key, (_, table) in level._live_tables.items()
            )
            _assert_tables_exact(overlay, fresh_rows)
            _assert_cost_identity(network, router, pairs)
    assert moved > 0  # some repair did re-settle entries
    assert router.fallbacks == 0


def test_a_fall_rebuilds_a_rise_repairs_and_a_rise_only_resync_repairs(monkeypatch):
    network = _directed_grid(8, 8, seed=17, pocket=True)
    plan = build_shard_plan(network, 2)
    rng = random.Random(17)
    pairs = _random_pairs(network, rng, 12) + _in_shard_pairs(plan, rng, 12)
    fresh_rows = dispatch.try_cost_rows
    rows = _CountingRows(monkeypatch)
    shard_0 = [e.key for e in network.edges() if plan.shard_of(e.source) == plan.shard_of(e.target) == 0]
    shard_1 = [e.key for e in network.edges() if plan.shard_of(e.source) == plan.shard_of(e.target) == 1]

    def scaled(edges, factor):
        return [TrafficUpdate.scale_by(*edge, distance_m=factor) for edge in edges]

    with shm.export_graph(network.compiled(), cost_version=network.cost_version) as segment:
        (worker, other) = _booted_workers(network, plan, segment, cache_size=0)
        try:
            _assert_cost_identity(network, worker.router, pairs, features=(CostFeature.DISTANCE,))
            overlay = worker.overlay
            cells = overlay.cell_routers[0].overlay
            assert any(key[0] == 0 for key in overlay._live_tables)
            assert cells._live_tables

            # Rises in both shards: every live table is repaired, none searched.
            rows.take()
            worker.apply_diff(_diff(network, scaled(shard_0[:4] + shard_1[:4], 1.7), segment))
            assert rows.take() == []
            _assert_tables_exact(overlay, fresh_rows)

            # One fall in shard 0 among rises in shard 1: the tables over
            # shard 0's changed cost array are searched again, the rest repaired.
            fallen = shard_0[5]
            rebuilt = {
                subnet.name
                for level in _levels(overlay)
                for shard_id, feature, _ in level._live_tables
                for subnet in [level.subnets[shard_id]]
                if feature is CostFeature.DISTANCE
                and fallen[0] in subnet
                and fallen[1] in subnet.successors(fallen[0])
            }
            worker.apply_diff(
                _diff(network, scaled([fallen], 0.5) + scaled(shard_1[4:8], 1.3), segment)
            )
            calls = rows.take()
            assert calls and {name for name, *_ in calls} == rebuilt
            assert {attribute for _, attribute, _, _ in calls} == {"distance_m"}
            _assert_tables_exact(overlay, fresh_rows)

            # A rise-only batch the worker misses and catches up with by
            # resyncing from the segment is repaired too.
            _diff(network, scaled(shard_0[8:12] + shard_1[8:12], 1.4), segment)
            worker.resync()
            assert worker.version == network.cost_version
            assert rows.take() == []
            _assert_tables_exact(overlay, fresh_rows)
            _assert_cost_identity(network, worker.router, pairs, features=(CostFeature.DISTANCE,))
            assert worker.router.fallbacks == 0
        finally:
            worker.close()
            other.close()


# -------------------------------------------------------------------- #
# (b) degenerate shards
# -------------------------------------------------------------------- #
def test_a_shard_without_boundary_is_routed_locally():
    # Two grids that share no edge: each is a shard, neither has a boundary.
    left = grid_city_network(3, 3, seed=1)
    network = RoadNetwork(name="two-islands")
    offset = max(left.vertex_ids()) + 1
    for shift in (0, offset):
        _copy_grid(network, left, shift, shift)
    plan = _plan_of(network, {v: int(v >= offset) for v in network.vertex_ids()})
    assert plan.boundary == ((), ()) and not plan.boundary_vertices
    overlay = BoundaryOverlay(network, plan)
    assert overlay.order == ()
    assert overlay.closure(CostFeature.FUEL).distances.shape == (0, 0)
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
    # The lone vertex is its own single cell, with nothing to stitch.
    cells = overlay.cell_routers[1]
    assert cells.plan.shards == ((alone,),) and cells.overlay.order == ()
    assert router.route_pairs([(alone, alone)], CostFeature.FUEL) == [((alone,), False)]


def test_a_shard_whose_bisection_cuts_no_edge():
    # Three islands side by side; shard 0 is the outer two, which its
    # bisection separates without cutting an edge, and the only way between
    # them runs through shard 1, the middle island.
    island = grid_city_network(3, 3, seed=6)
    size = island.vertex_count
    network = RoadNetwork(name="three-islands")
    for k in range(3):
        _copy_grid(network, island, k * size, 0.1 * k)
    middle = {v for v in network.vertex_ids() if size <= v < 2 * size}
    like = next(island.edges())
    for west, east in ((2, size), (2 * size + 3, size + 5)):
        _link(network, west, east, like)
        _link(network, east, west, like)
    plan = _plan_of(network, {v: int(v in middle) for v in network.vertex_ids()})
    overlay = BoundaryOverlay(network, plan)
    router = CrossShardRouter(network, overlay)
    left, right = range(size), range(2 * size, 3 * size)
    pairs = [(s, t) for s in left[::2] for t in right[::3]]
    pairs += [(t, s) for s, t in pairs] + [(0, size - 1), (2 * size, 3 * size - 1)]
    _assert_cost_identity(network, router, pairs)
    cells = overlay.cell_routers[0]
    assert cells.plan.cut_edges == () and cells.overlay.order == ()
    assert {frozenset(shard) for shard in cells.plan.shards} == {
        frozenset(left), frozenset(right)
    }
    answers = router.route_pairs(pairs, CostFeature.DISTANCE)
    assert all(used_overlay for _, used_overlay in answers[:-2])  # only the escape leads across
    assert not any(used_overlay for _, used_overlay in answers[-2:])
    assert router.fallbacks == 0


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
    # A cell router's last resort searches its shard and counts at the top.
    overlay = BoundaryOverlay(network, overlay.plan)
    router = CrossShardRouter(network, overlay)
    local = _in_shard_pairs(overlay.plan, random.Random(4), 16)
    _assert_cost_identity(network, router, local, features=(CostFeature.FUEL,))
    assert router.fallbacks == 0
    for cells in overlay.cell_routers.values():
        for cell_id in range(cells.plan.shard_count):
            cells.overlay.table(cell_id, CostFeature.FUEL).predecessors[:] = batch.NO_PREDECESSOR
    _assert_cost_identity(network, router, local, features=(CostFeature.FUEL,))
    nested = sum(cells.fallbacks for cells in overlay.cell_routers.values())
    assert nested > 0 and router.fallbacks == nested


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
                assert worker.overlay.closure(CostFeature.TRAVEL_TIME) is None
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
    cell_plan = build_shard_plan(plan.subnetwork(network, 0), 2)  # shard 0's cells
    rng = random.Random(12)
    vertices = sorted(network.vertex_ids())
    cross = [
        (s, t)
        for s, t in ((rng.choice(vertices), rng.choice(vertices)) for _ in range(200))
        if plan.shard_of(s) == 0 and plan.shard_of(t) == 1
    ][:12]
    first, second = cell_plan.shards
    same_cell = [(s, t) for s in first[:3] for t in first[-2:]]
    same_cell += [(s, t) for s in second[:2] for t in second[-3:]]
    cross_cell = [(s, t) for s in first[:3] for t in second[-3:]]
    edge_in_cell_0 = next(
        e.key for e in network.edges() if cell_plan.shard_of(e.source) == cell_plan.shard_of(e.target) == 0
    )
    rows = _CountingRows(monkeypatch)

    def diff(scale: float) -> CostDiff:
        return _diff(network, [TrafficUpdate.scale_by(*edge_in_cell_0, travel_time_s=scale)])

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
            stitched = worker.serve(_work(cross[::-1])).answers
            assert rows.take() == []
            assert all(answer.cross_shard and answer.vertices for answer in stitched)

            # The first in-shard call builds shard 0's cells and their tables
            # the same way, one level down: forward for both cells, reverse
            # for the source cells.
            worker.serve(_work(same_cell + cross_cell))
            cells = worker.overlay.cell_routers[0]
            assert cells.plan == cell_plan and list(worker.overlay.cell_routers) == [0]
            names = [subnet.name for subnet in cells.overlay.subnets]
            searched = [(names[0], "travel_time_s", False, 3), (names[1], "travel_time_s", False, 2)]
            assert sorted(rows.take()) == sorted(
                [
                    (name, "travel_time_s", reverse, len(cell_plan.boundary[cell]))
                    for cell, name in enumerate(names)
                    for reverse in (False, True)
                ]
                + searched
            )

            # Then a same-cell pair searches its cell, one row per distinct
            # source per cell; a cross-cell pair searches nothing.
            worker.serve(_work(same_cell))
            assert sorted(rows.take()) == sorted(searched)
            worker.serve(_work(cross_cell))
            assert rows.take() == []

            # A rise inside cell 0 of shard 0 repairs shard 0's and cell 0's
            # live tables before it returns, searching nothing; shard 1's and
            # cell 1's tables are the same objects as before.
            kept = worker.overlay.table(1, CostFeature.TRAVEL_TIME)
            kept_cell = cells.overlay.table(1, CostFeature.TRAVEL_TIME, reverse=True)
            retired = worker.overlay.table(0, CostFeature.TRAVEL_TIME)
            retired_cell = cells.overlay.table(0, CostFeature.TRAVEL_TIME, reverse=True)
            worker.apply_diff(diff(2.0))
            assert rows.take() == []
            assert worker.overlay.table(1, CostFeature.TRAVEL_TIME) is kept
            assert cells.overlay.table(1, CostFeature.TRAVEL_TIME, reverse=True) is kept_cell
            assert worker.overlay.table(0, CostFeature.TRAVEL_TIME) is not retired
            assert cells.overlay.table(0, CostFeature.TRAVEL_TIME, reverse=True) is not retired_cell

            # A fall there rebuilds shard 0's and cell 0's live tables.
            retired = worker.overlay.table(0, CostFeature.TRAVEL_TIME)
            worker.apply_diff(diff(0.5))
            assert sorted(rows.take()) == sorted(
                [
                    (worker.overlay.subnets[0].name, "travel_time_s", False, len(plan.boundary[0])),
                    (worker.overlay.subnets[0].name, "travel_time_s", True, len(plan.boundary[0])),
                    (names[0], "travel_time_s", False, len(cell_plan.boundary[0])),
                    (names[0], "travel_time_s", True, len(cell_plan.boundary[0])),
                ]
            )
            assert worker.overlay.table(1, CostFeature.TRAVEL_TIME) is kept
            assert cells.overlay.table(1, CostFeature.TRAVEL_TIME, reverse=True) is kept_cell
            assert worker.overlay.table(0, CostFeature.TRAVEL_TIME) is not retired
            worker.serve(_work(cross))
            worker.serve(_work(cross_cell))
            assert rows.take() == []  # the requests after the diff find them ready

            # A Fastest-only worker never built a distance or fuel table.
            assert {attribute for _, attribute, _, _ in built} == {"travel_time_s"}
            for overlay in (worker.overlay, cells.overlay):
                assert {feature for _, feature, _ in overlay._live_tables} == {
                    CostFeature.TRAVEL_TIME
                }
            assert worker.router.fallbacks == 0
        finally:
            worker.close()
            other.close()
    for (source, destination), answer in zip(cross, stitched[::-1]):
        assert answer.vertices[0] == source and answer.vertices[-1] == destination


# -------------------------------------------------------------------- #
# (f) paths read once per cost version, audited in one pass
# -------------------------------------------------------------------- #
def _integer_grid(rows: int, cols: int, seed: int) -> RoadNetwork:
    """A directed grid whose costs are integers 1–3, so that equal-cost
    overlay walks — exact ties in the boundary matrix — are common."""
    network = _directed_grid(rows, cols, seed)
    rng = random.Random(seed)
    network.update_edge_costs(
        {
            edge.key: {attr: float(rng.randint(1, 3)) for attr in ATTRIBUTES}
            for edge in network.edges()
        }
    )
    return network


def _scanned_walk(overlay, closure, exit_vertex, entry_vertex):
    """The reference walk: one ``argmin`` over the current vertex's hop row
    plus the remaining distances, per hop."""
    position = {vertex: index for index, vertex in enumerate(overlay.order)}
    current, goal = position[exit_vertex], position[entry_vertex]
    remaining = closure.distances[:, goal]
    hops = [exit_vertex]
    for _ in overlay.order:
        if current == goal:
            return hops
        current = int(np.argmin(closure.weights[current] + remaining))
        hops.append(overlay.order[current])
    return None


@pytest.mark.parametrize("seed", [1, 2])
def test_successor_column_walks_equal_the_per_hop_scan_through_ties(seed):
    network = _integer_grid(7, 7, seed)
    plan = build_shard_plan(network, 2)
    overlay = BoundaryOverlay(network, plan)
    levels = [overlay] + [overlay.cells(shard_id).overlay for shard_id in range(2)]
    rng = random.Random(seed)
    edges = sorted(edge.key for edge in network.edges())
    tied = 0
    for _ in range(3):
        for level in levels:
            for feature in (CostFeature.DISTANCE, CostFeature.FUEL):
                closure = level.closure(feature)
                for goal in range(len(level.order)):
                    hops = closure.weights + closure.distances[:, goal]
                    lowest = hops.min(axis=1, keepdims=True)
                    ties = (hops == lowest).sum(axis=1) > 1
                    tied += int(ties[np.isfinite(lowest[:, 0])].sum())
                for exit_vertex in level.order:
                    for entry_vertex in level.order:
                        assert level.walk(closure, exit_vertex, entry_vertex) == _scanned_walk(
                            level, closure, exit_vertex, entry_vertex
                        )
        # Integer rises and falls, through the network and both levels.
        changes = {
            key: {attr: float(rng.randint(1, 3)) for attr in ("distance_m", "fuel_ml")}
            for key in rng.sample(edges, 12)
        }
        network.update_edge_costs(changes)
        overlay.apply(changes)
        overlay.refresh()
    assert tied > 0  # the grid does produce ties for the columns to break


def test_a_segment_is_memoized_per_closure_and_retired_with_its_costs():
    network = grid_city_network(8, 8, seed=4)
    plan = build_shard_plan(network, 2)
    overlay = BoundaryOverlay(network, plan)
    router = CrossShardRouter(network, overlay)
    feature = CostFeature.DISTANCE
    rng = random.Random(21)
    vertices = sorted(network.vertex_ids())
    pairs = [
        (s, t)
        for s, t in ((rng.choice(vertices), rng.choice(vertices)) for _ in range(200))
        if plan.shard_of(s) != plan.shard_of(t)
    ][:24]
    first = router.route_pairs(pairs, feature)

    # A repeated call reads every segment from the memo: no walk at all.
    walks = []
    real_walk = overlay.walk
    overlay.walk = lambda *args: walks.append(args) or real_walk(*args)
    assert router.route_pairs(pairs, feature) == first
    assert walks == []

    # Two identical reconstructions of one exit→entry stitch whose walk has
    # a shortcut hop, with a diff between them that raises an edge of that
    # hop's leg: the second must follow the new costs, from the tables.
    closure = overlay.closure(feature)
    exit_vertex, entry_vertex = next(
        (x, e)
        for x in plan.boundary[0]
        for e in plan.boundary[1]
        if len(overlay.walk(closure, x, e)) > 2
    )

    def reconstruct():
        distances, order = overlay.closure(feature).distances, overlay.order
        cost = float(distances[order.index(exit_vertex), order.index(entry_vertex)])
        stitch = (cost, exit_vertex, entry_vertex)
        [(_, answer)] = router._reconstruct(
            [(exit_vertex, entry_vertex)], [(0, stitch)], feature, overlay.closure(feature)
        )
        return answer

    before, _ = reconstruct()
    raised = next(
        hop for hop in zip(before, before[1:]) if plan.shard_of(hop[0]) == plan.shard_of(hop[1])
    )
    changes = {raised: {"distance_m": network.edge(*raised).distance_m * 1000.0}}
    network.update_edge_costs(changes)
    overlay.apply(changes)
    overlay.refresh()
    assert overlay.closure(feature) is not closure
    after, cost = reconstruct()
    assert raised not in zip(after, after[1:])
    assert math.isclose(cost, _reference_cost(network, exit_vertex, entry_vertex, feature))
    assert math.isclose(path_cost(network, after, feature), cost)
    assert router.fallbacks == 0
    second = router.route_pairs(pairs, feature)
    _assert_cost_identity(network, router, pairs, features=(feature,))
    assert router.fallbacks == 0

    # A diff to another feature's costs keeps the closure and its memo.
    closure = overlay.closure(feature)
    memo = dict(closure.segments)
    changes = {raised: {"travel_time_s": network.edge(*raised).travel_time_s * 3.0}}
    network.update_edge_costs(changes)
    overlay.apply(changes)
    overlay.refresh()
    assert overlay.closure(feature) is closure and closure.segments == memo
    walks.clear()
    assert router.route_pairs(pairs, feature) == second
    assert walks == [] and router.fallbacks == 0


def test_the_audit_rejects_exactly_a_non_edge_leg_and_a_mispriced_splice():
    network = grid_city_network(8, 8, seed=4)
    plan = build_shard_plan(network, 2)
    overlay = BoundaryOverlay(network, plan)
    router = CrossShardRouter(network, overlay)
    feature = CostFeature.FUEL
    closure = overlay.closure(feature)
    entering = overlay.table(1, feature)
    leaving = overlay.table(0, feature, reverse=True)
    boundary = set(plan.boundary_vertices)
    sources = [v for v in plan.shards[0] if v not in boundary]
    destinations = [v for v in plan.shards[1] if v not in boundary]
    rng = random.Random(6)
    rng.shuffle(sources)
    rng.shuffle(destinations)
    pairs = list(zip(sources, destinations))[:16]
    stitches = router._stitch(0, 1, pairs, feature, closure)
    assert None not in stitches

    # (1) A tail leg over a non-edge: the destination's predecessor in its
    # entry vertex's row becomes the entry vertex itself.  The destination
    # is a leaf of that row, so no other leg runs through it, and the chain
    # stays whole, so the leg comes back — it is the audit that must object.
    def leaf_without_edge(pair, stitch):
        _, destination = pair
        entry = stitch[2]
        row = entering.predecessors[entering.row_of[entry]]
        return entering.column_of[destination] not in row and destination not in (
            network.successors(entry)
        )

    broken = next(i for i, pair in enumerate(pairs) if leaf_without_edge(pair, stitches[i]))
    _, destination = pairs[broken]
    entry = stitches[broken][2]
    entering.predecessors[entering.row_of[entry], entering.column_of[destination]] = (
        entering.column_of[entry]
    )
    assert entering.path(entry, destination) == [entry, destination]

    # (2) A mispriced splice: the cost from one source to its exit vertex
    # drops by half; the stitch keeps that exit and undercuts the path.
    mispriced = (broken + 1) % len(pairs)
    source, _ = pairs[mispriced]
    exit_vertex = stitches[mispriced][1]
    leaving.costs[leaving.row_of[exit_vertex], leaving.column_of[source]] *= 0.5

    searched = []
    real_search = router._search
    router._search = lambda *args: searched.append(args[:2]) or real_search(*args)
    _assert_cost_identity(network, router, pairs, features=(feature,))
    assert sorted(searched) == sorted([pairs[broken], pairs[mispriced]])
    assert router.fallbacks == 2
