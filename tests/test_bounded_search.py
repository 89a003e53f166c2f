"""The bounded first attempt of point-to-point Dijkstra (landmark corridor).

The attempt may only ever fall back to the full search, never answer
differently: every check compares *paths* (not only costs) between the
bounded search, the same search under ``alt_disabled()`` (the full scipy
SSSP) and the dict-based reference Dijkstra.
"""

from __future__ import annotations

import math
import random
import sys
import threading

import numpy as np
import pytest

from repro.core import LearnToRoute
from repro.exceptions import NoPathError
from repro.network import RoadNetwork, RoadType, alt_disabled, country_network, grid_city_network
from repro.network.compiled import batch, dispatch, sparse
from repro.network.compiled.graph import LANDMARK_TABLE_LIMIT
from repro.network.compiled.landmarks import ATTEMPT_WINDOW, SKIPPED_SAMPLE
from repro.routing import (
    CostFeature,
    cost_function,
    dict_dijkstra,
    dict_dijkstra_costs,
    dijkstra,
    weighted_cost,
)
from repro.traffic import TrafficFeed, synthetic_congestion

FEATURES = (CostFeature.TRAVEL_TIME, CostFeature.DISTANCE)


@pytest.fixture()
def engage_all(monkeypatch):
    """Every graph is above the engagement size."""
    monkeypatch.setattr(dispatch, "BOUNDED_DIJKSTRA_MIN_VERTICES", 0)


@pytest.fixture()
def attempts(monkeypatch):
    """``[reached the destination, ...]`` of every bounded attempt made
    (a pair declined as too far apart runs no search and is not counted)."""
    seen: list[bool] = []
    attempt = sparse._corridor_distances

    def spy(graph, array, table, source, destination):
        counted = table.attempts
        distances = attempt(graph, array, table, source, destination)
        if distances is not None or table.attempts != counted:
            seen.append(distances is not None)
        return distances

    monkeypatch.setattr(sparse, "_corridor_distances", spy)
    return seen


def _pairs(network, count, seed):
    rng = random.Random(seed)
    ids = sorted(network.vertex_ids())
    pairs = []
    while len(pairs) < count:
        s, t = rng.choice(ids), rng.choice(ids)
        if s != t:
            pairs.append((s, t))
    return pairs


def _table(network, feature):
    graph = network.compiled()
    key, _, _ = graph.resolve_cost(cost_function(feature))
    return graph._landmark_tables.get(key)


def _path(search, network, s, t, cost):
    try:
        return search(network, s, t, cost).vertices
    except NoPathError:
        return None


def _assert_identical(network, pairs, features=FEATURES):
    """bounded == full scipy SSSP == dict reference, path for path."""
    for feature in features:
        cost = cost_function(feature)
        for s, t in pairs:
            bounded = _path(dijkstra, network, s, t, cost)
            with alt_disabled():
                full = _path(dijkstra, network, s, t, cost)
            assert bounded == full == _path(dict_dijkstra, network, s, t, cost), (feature, s, t)


def _assert_batched_identical(network, pairs, features=FEATURES):
    """route_many's batched search == dict reference, path for path."""
    for feature in features:
        cost = cost_function(feature)
        routes = dispatch.try_route_many(network, pairs, cost)
        for (s, t), route in zip(pairs, routes):
            want = _path(dict_dijkstra, network, s, t, cost)
            assert route == (() if want is None else list(want)), (feature, s, t)


def _raise_costs(network, factor=1.5):
    """One live-traffic rise on the last edge: every cost array is patched,
    so the landmark detours bound no pair any more (the lower bounds stay)."""
    edge = max(network.edges(), key=lambda e: e.key)
    network.update_edge_costs(
        {
            edge.key: {
                "travel_time_s": edge.travel_time_s * factor,
                "distance_m": edge.distance_m * factor,
            }
        }
    )


def _unit_grid(rows, cols):
    network = RoadNetwork(name="unit-grid")
    for r in range(rows):
        for c in range(cols):
            network.add_vertex(r * cols + c, lon=10.0 + c * 0.001, lat=56.0 + r * 0.001)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                network.add_edge(r * cols + c, r * cols + c + 1, distance_m=100.0, bidirectional=True)
            if r + 1 < rows:
                network.add_edge(r * cols + c, (r + 1) * cols + c, distance_m=100.0, bidirectional=True)
    return network


def _random_graph(seed, n=40):
    """A sparse random digraph with one-way edges and unreachable corners."""
    rng = random.Random(seed)
    network = RoadNetwork(name=f"random-{seed}")
    for v in range(n):
        network.add_vertex(v, lon=10.0 + rng.random() * 0.05, lat=56.0 + rng.random() * 0.05)
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and v not in network.successors(u) and u not in network.successors(v):
            network.add_edge(u, v, rng.choice(list(RoadType)), bidirectional=rng.random() < 0.5)
    return network


# ---------------------------------------------------------------------- #
# Path identity
# ---------------------------------------------------------------------- #
class TestPathIdentity:
    def test_jittered_grid_above_engagement_size(self, attempts):
        side = math.isqrt(dispatch.BOUNDED_DIJKSTRA_MIN_VERTICES) + 2
        network = grid_city_network(rows=side, cols=side, seed=5)
        assert network.vertex_count >= dispatch.BOUNDED_DIJKSTRA_MIN_VERTICES
        _assert_identical(network, _pairs(network, 12, seed=1))
        # The new path ran (but for pairs too far apart), mostly reached, and
        # fell back silently where it did not.
        assert 12 <= len(attempts) <= 12 * len(FEATURES)
        assert sum(attempts) > len(attempts) // 2

    def test_unit_weight_grid_ties_everywhere(self, engage_all, attempts):
        network = _unit_grid(14, 14)
        pairs = _pairs(network, 40, seed=2)
        _assert_identical(network, pairs)
        assert attempts and all(attempts)  # exact bounds: every attempt reaches
        # Shared sources too: each row's paths come out of one search tree.
        shared = [(s, t) for s, _ in pairs[:10] for t in (0, 195)]
        _assert_batched_identical(network, pairs + shared)

    def test_country_network_with_one_way_edges(self, engage_all, attempts):
        network = country_network()
        rng = random.Random(4)
        ids = sorted(network.vertex_ids())
        added = 0
        while added < 30:  # one-way shortcuts: d(u, v) != d(v, u)
            u, v = rng.choice(ids), rng.choice(ids)
            if u != v and v not in network.successors(u) and u not in network.successors(v):
                network.add_edge(u, v, RoadType.PRIMARY)
                added += 1
        _assert_identical(network, _pairs(network, 40, seed=3))
        assert attempts

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_random_small_graphs(self, engage_all, seed):
        network = _random_graph(seed)
        _assert_identical(network, _pairs(network, 25, seed=seed))

    def test_unreachable_destination(self, engage_all, attempts):
        network = grid_city_network(rows=8, cols=8, seed=5)
        island = max(network.vertex_ids()) + 1
        anchor = sorted(network.vertex_ids())[0]
        network.add_vertex(island, lon=10.3, lat=56.3)
        network.add_edge(island, anchor, RoadType.RESIDENTIAL)  # out of the island only
        cost = cost_function(CostFeature.TRAVEL_TIME)
        for _ in range(2):
            with pytest.raises(NoPathError):
                dijkstra(network, anchor, island, cost)
        assert dijkstra(network, island, anchor, cost).vertices[0] == island
        _assert_identical(network, [(anchor, island), (island, anchor)])

    def test_after_congestion_batches(self, engage_all, attempts):
        network = grid_city_network(rows=16, cols=16, seed=5)
        pairs = _pairs(network, 15, seed=5)
        _assert_identical(network, pairs)
        feed = TrafficFeed(network)
        for updates in synthetic_congestion(network, seed=9, fraction=0.2, steps=6):
            feed.apply(updates)
            _assert_identical(network, pairs)
        assert len(attempts) > len(pairs)

    def test_after_cost_drops(self, engage_all, attempts):
        network = grid_city_network(rows=16, cols=16, seed=5)
        pairs = _pairs(network, 15, seed=6)
        _assert_identical(network, pairs)
        rng = random.Random(8)
        edges = sorted(e.key for e in network.edges())
        for scale in (0.9, 0.7, 0.4):  # 0.4 is below REBUILD_RATIO: a rebuilt table
            touched = rng.sample(edges, len(edges) // 5)
            network.update_edge_costs(
                {
                    key: {
                        "travel_time_s": network.edge(*key).travel_time_s * scale,
                        "distance_m": network.edge(*key).distance_m * scale,
                    }
                    for key in touched
                }
            )
            _assert_identical(network, pairs)
            table = _table(network, CostFeature.TRAVEL_TIME)
            assert table is not None and table.scale <= 1.0
        assert attempts

    def test_after_add_edge_buffers_and_tables_follow_topology(self, engage_all, attempts):
        network = grid_city_network(rows=12, cols=12, seed=5)
        pairs = _pairs(network, 15, seed=7)
        _assert_identical(network, pairs)
        before_graph = network.compiled()
        before_version = network.topology_version
        new_vertex = max(network.vertex_ids()) + 1
        ids = sorted(network.vertex_ids())
        network.add_vertex(new_vertex, lon=10.2, lat=56.2)
        network.add_edge(ids[0], new_vertex, RoadType.MOTORWAY, distance_m=50.0, bidirectional=True)
        network.add_edge(new_vertex, ids[-1], RoadType.MOTORWAY, distance_m=50.0, bidirectional=True)
        assert network.topology_version > before_version
        _assert_identical(network, pairs + [(ids[0], ids[-1]), (new_vertex, ids[5])])
        after_graph = network.compiled()
        assert after_graph is not before_graph
        with after_graph.borrowed_scratch() as scratch:
            assert scratch.costs.shape == (after_graph.edge_count,)
        table = _table(network, CostFeature.DISTANCE)
        assert table.rows.shape[0] == after_graph.vertex_count
        assert table.slot_cell.shape == (after_graph.edge_count,)


# ---------------------------------------------------------------------- #
# The tie certificate: where the search tree is not read
# ---------------------------------------------------------------------- #
def _tied_block(network, rows, cols, cols_total):
    """Every edge inside the block costs the same, so shortest paths across
    it tie and each block vertex has equal in-edges; returns its vertices."""
    block = {r * cols_total + c for r in rows for c in cols}
    network.update_edge_costs(
        {
            (u, v): {"travel_time_s": 20.0, "distance_m": 250.0}
            for u in block
            for v in network.successors(u)
            if v in block
        }
    )
    return block


class TestTieCertificate:
    SIDE = 12

    def _flagged(self, network):
        graph = network.compiled()
        flagged = []
        for feature in FEATURES:
            _, array, _ = graph.resolve_cost(cost_function(feature))
            indices = np.flatnonzero(sparse.tie_flags(graph, array))
            flagged.append({graph.vertex_ids[i] for i in indices})
        return flagged

    def test_flags_exactly_the_vertices_with_equal_in_edges(self):
        network = grid_city_network(rows=self.SIDE, cols=self.SIDE, seed=5)
        assert self._flagged(network) == [set(), set()]  # jittered: no ties
        # Each patched vertex's in-edges all cost its cheapest one's; its
        # out-edges, and every other vertex's in-edges, stay distinct.
        patch = {v for v in network.vertex_ids() if v % 5 == 1}
        updates = {}
        for v in patch:
            ins = [network.edge(u, v) for u in network.predecessors(v)]
            cheapest = {
                "travel_time_s": min(e.travel_time_s for e in ins),
                "distance_m": min(e.distance_m for e in ins),
            }
            updates.update({e.key: cheapest for e in ins})
        network.update_edge_costs(updates)
        assert self._flagged(network) == [patch, patch]
        block = _tied_block(network, range(3, 9), range(2, 8), self.SIDE)
        assert self._flagged(network) == [patch | block, patch | block]
        graph = network.compiled()  # the pairwise form of the same rows
        _, array, _ = graph.resolve_cost(cost_function(CostFeature.DISTANCE))
        weights = array[graph.topology.r_slots]
        offsets = graph.r_offsets
        rows = [weights[offsets[v] : offsets[v + 1]].tolist() for v in range(graph.vertex_count)]
        pairwise = [len(set(row)) < len(row) for row in rows]
        assert sparse.tie_flags(graph, array).tolist() == pairwise

    def test_near_equal_in_edges_are_flagged_when_their_sums_can_round_equal(self):
        network = grid_city_network(rows=6, cols=6, seed=5)
        graph = network.compiled()
        v = 14
        u1, u2 = sorted(network.predecessors(v))[:2]
        base = network.edge(u2, v).distance_m
        _, array, _ = graph.resolve_cost(cost_function(CostFeature.DISTANCE))
        total = float(array.sum())
        assert total + (base + 1e-12) == total + base  # a path sum rounds the gap away
        for gap, flagged in ((1e-12, True), (1e-9, False)):
            network.update_edge_costs({(u1, v): {"distance_m": base + gap}})
            _, array, _ = graph.resolve_cost(cost_function(CostFeature.DISTANCE))
            assert bool(sparse.tie_flags(graph, array)[graph.index_of[v]]) is flagged

    def test_paths_across_the_tied_block_match_the_reference(self, engage_all, attempts):
        network = grid_city_network(rows=self.SIDE, cols=self.SIDE, seed=5)
        block = _tied_block(network, range(3, 9), range(2, 8), self.SIDE)
        ids = sorted(network.vertex_ids())
        above = [v for v in ids if v // self.SIDE < 3]
        below = [v for v in ids if v // self.SIDE > 8]
        rng = random.Random(21)
        crossing = [(rng.choice(above), rng.choice(below)) for _ in range(20)]
        crossing += [(t, s) for s, t in crossing[:10]]
        inside = sorted(block)
        crossing += [(inside[0], inside[-1]), (inside[5], inside[30])]
        pairs = crossing + _pairs(network, 20, seed=22)
        _assert_identical(network, pairs)
        assert attempts
        _assert_batched_identical(network, pairs + [(crossing[0][0], t) for t in below[:6]])

    def test_built_once_per_cost_version_and_follows_patches(self, monkeypatch):
        builds = []
        flags = sparse.tie_flags

        def counted(graph, array):
            builds.append(graph.costs.version)
            return flags(graph, array)

        monkeypatch.setattr(sparse, "tie_flags", counted)
        network = grid_city_network(rows=6, cols=6, seed=5)
        graph = network.compiled()
        cost = cost_function(CostFeature.DISTANCE)
        key, array, version = graph.resolve_cost(cost)
        for _ in range(3):
            dijkstra(network, 0, 35, cost)
            batch.shortest_paths_many(graph, key, array, version, [(0, 5), (0, 30)])
        assert builds == [version]
        batch.shortest_paths_many(graph, None, array, version, [(0, 5)])  # per-query: none
        assert builds == [version]

        v = 14
        u1, u2 = sorted(network.predecessors(v))[:2]
        original = network.edge(u1, v).distance_m
        network.update_edge_costs({(u1, v): {"distance_m": network.edge(u2, v).distance_m}})
        key, array, version = graph.resolve_cost(cost)
        tied = sparse._certificate(graph, key, array, version)
        assert [i for i in range(graph.vertex_count) if tied[i]] == [graph.index_of[v]]
        want = dict_dijkstra(network, 0, 35, cost).vertices
        assert dijkstra(network, 0, 35, cost).vertices == want
        assert len(builds) == 2
        network.update_edge_costs({(u1, v): {"distance_m": original}})  # the tie is gone
        key, array, version = graph.resolve_cost(cost)
        assert sparse._certificate(graph, key, array, version) is None
        assert len(builds) == 3


# ---------------------------------------------------------------------- #
# The landmark upper bound
# ---------------------------------------------------------------------- #
def _capped_far_pairs(network, feature, count, seed):
    """Pairs too far apart for an uncapped corridor whose landmark detour
    caps the limit."""
    graph = network.compiled()
    key, array, version = graph.resolve_cost(cost_function(feature))
    table = graph.landmark_table(key, array, version)
    index_of = graph.index_of
    pairs = []
    for s, t in _pairs(network, 100 * count, seed):
        lower, upper = table.pair_bounds(index_of[s], index_of[t])
        far = lower > sparse.CORRIDOR_MAX_SPAN * table.span
        if far and upper * sparse._CORRIDOR_SLACK < lower * sparse.CORRIDOR_RATIO:
            pairs.append((s, t))
            if len(pairs) == count:
                break
    assert len(pairs) == count
    return pairs


class TestUpperBound:
    @pytest.mark.parametrize(
        "make",
        [lambda: grid_city_network(rows=100, cols=100, seed=5), country_network],
        ids=["grid-100x100", "country"],
    )
    def test_far_pairs_capped_by_a_landmark_detour_are_attempted(
        self, engage_all, attempts, make
    ):
        network = make()
        far = {feature: _capped_far_pairs(network, feature, 6, seed=13) for feature in FEATURES}
        for feature, pairs in far.items():
            _assert_identical(network, pairs, features=(feature,))
        assert attempts == [True] * sum(len(pairs) for pairs in far.values())
        attempts.clear()
        _raise_costs(network)  # off the build costs: declined as before
        for feature, pairs in far.items():
            _assert_identical(network, pairs, features=(feature,))
        assert attempts == []

    def test_upper_bound_is_at_least_the_reference_cost(self):
        network = grid_city_network(rows=8, cols=8, seed=5)
        island = max(network.vertex_ids()) + 1
        anchor = sorted(network.vertex_ids())[0]
        network.add_vertex(island, lon=10.3, lat=56.3)
        network.add_edge(island, anchor, RoadType.RESIDENTIAL)  # out of the island only
        graph = network.compiled()
        index_of = graph.index_of
        for feature in FEATURES:
            cost = cost_function(feature)
            table = network.prepare_landmarks(cost)
            for s in sorted(network.vertex_ids()):
                reference = dict_dijkstra_costs(network, s, cost)
                for t in network.vertex_ids():
                    upper = table.pair_bounds(index_of[s], index_of[t])[1]
                    want = reference.get(t, math.inf)  # a float sum: equal up to rounding
                    assert upper >= want * (1 - 1e-12), (feature, s, t)
            assert table.pair_bounds(index_of[anchor], index_of[island])[1] == math.inf


# ---------------------------------------------------------------------- #
# What never attempts it
# ---------------------------------------------------------------------- #
class TestBypasses:
    def test_per_query_arrays_and_alt_off_bypass(self, engage_all, attempts):
        network = grid_city_network(rows=10, cols=10, seed=5)
        s, t = sorted(network.vertex_ids())[22], sorted(network.vertex_ids())[35]

        def per_query(edge):  # pragma: no cover - resolved through the array
            return edge.travel_time_s

        per_query.build_cost_array = lambda graph: graph.array("travel_time_s") * 1.0
        want = dict_dijkstra(network, s, t, cost_function(CostFeature.TRAVEL_TIME)).vertices
        assert dijkstra(network, s, t, per_query).vertices == want
        cost = cost_function(CostFeature.TRAVEL_TIME)
        with alt_disabled():
            assert dijkstra(network, s, t, cost).vertices == want
        assert attempts == []
        assert network.compiled()._landmark_tables == {}
        assert dijkstra(network, s, t, cost).vertices == want
        assert attempts == [True]

    def test_small_graphs_never_build_a_landmark_table(self, tiny, tiny_split, attempts):
        network = tiny.network
        assert network.vertex_count < dispatch.BOUNDED_DIJKSTRA_MIN_VERTICES
        before = dict(network.compiled()._landmark_tables)
        pipeline = LearnToRoute().fit(network, tiny_split.train)
        for trajectory in tiny_split.test[:10]:
            pipeline.route(trajectory.source, trajectory.destination)
        assert network.compiled()._landmark_tables == before
        assert attempts == []


# ---------------------------------------------------------------------- #
# Buffers, memoized checks, zero-copy rows
# ---------------------------------------------------------------------- #
class TestBuffers:
    def test_keyed_weight_checks_scan_once_per_cost_version(self):
        class Counting(np.ndarray):
            scans = 0

            def min(self, *args, **kwargs):
                Counting.scans += 1
                return super().min(*args, **kwargs)

        network = grid_city_network(rows=6, cols=6, seed=5)
        graph = network.compiled()
        key, array, version = graph.resolve_cost(cost_function(CostFeature.DISTANCE))
        counted = array.view(Counting)
        for _ in range(3):
            batch.dijkstra_many(graph, key, counted, version, [0, 1])  # no check: no scan
            assert batch.shortest_paths_many(graph, key, counted, version, [(0, 5)])[0]
        assert Counting.scans == 1
        batch.shortest_paths_many(graph, None, counted, version, [(0, 5)])  # per-query: scanned
        assert Counting.scans == 2
        edge = next(iter(network.edges()))
        network.update_edge_costs({edge.key: {"distance_m": edge.distance_m * 2}})
        key, array, version = graph.resolve_cost(cost_function(CostFeature.DISTANCE))
        batch.shortest_paths_many(graph, key, array.view(Counting), version, [(0, 5)])
        assert Counting.scans == 3  # new cost version, new scan

    def test_rows_are_walked_without_a_list_copy(self, grid_network):
        graph = grid_network.compiled()
        cost = cost_function(CostFeature.TRAVEL_TIME)
        key, array, version = graph.resolve_cost(cost)
        ids = sorted(grid_network.vertex_ids())
        index_of = graph.index_of
        pairs = [(ids[0], ids[-1]), (ids[0], ids[7]), (ids[3], ids[3]), (ids[9], ids[40])]
        got = batch.shortest_paths_many(
            graph, key, array, version, [(index_of[s], index_of[t]) for s, t in pairs]
        )
        for (s, t), indices in zip(pairs, got):
            want = [s] if s == t else list(dict_dijkstra(grid_network, s, t, cost).vertices)
            assert graph.path_ids(indices) == want


# ---------------------------------------------------------------------- #
# Concurrency
# ---------------------------------------------------------------------- #
def test_eight_threads_racing_a_cost_patch_match_serial(engage_all):
    network = grid_city_network(rows=18, cols=18, seed=5)
    cost = cost_function(CostFeature.TRAVEL_TIME)
    pairs = _pairs(network, 24, seed=11)
    edges = sorted(e.key for e in network.edges())
    rng = random.Random(12)
    patches = [
        {key: {"travel_time_s": network.edge(*key).travel_time_s * rng.uniform(1.1, 2.0)}
         for key in rng.sample(edges, 40)}
        for _ in range(6)
    ]
    dijkstra(network, *pairs[0], cost)  # table built before the race
    errors: list[BaseException] = []
    start = threading.Barrier(9)

    def worker(offset):
        try:
            start.wait(timeout=30)
            for i in range(len(pairs) * 3):
                s, t = pairs[(i + offset) % len(pairs)]
                # Costs only rise, so a served path costs between its old and new optimum;
                # what must hold at every instant is a valid s-t walk with no crash.
                path = dijkstra(network, s, t, cost).vertices
                assert path[0] == s and path[-1] == t
        except BaseException as error:  # noqa: BLE001 - reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        start.wait(timeout=30)
        for patch in patches:
            network.update_edge_costs(patch)
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    # After the race: threads' final state == a serial run on the final costs.
    served: dict[tuple[int, int], tuple] = {}

    def final(offset):
        for s, t in pairs[offset::8]:
            served[(s, t)] = dijkstra(network, s, t, cost).vertices

    threads = [threading.Thread(target=final, args=(k,)) for k in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for s, t in pairs:
        assert served[(s, t)] == dict_dijkstra(network, s, t, cost).vertices


# ---------------------------------------------------------------------- #
# The low-success rule
# ---------------------------------------------------------------------- #
class TestLowSuccessRule:
    @staticmethod
    def _fail(table, count=ATTEMPT_WINDOW):
        for _ in range(count):
            table.note_attempt(False)

    def test_share_is_recent_and_judged_after_half_a_window(self, engage_all):
        network = grid_city_network(rows=8, cols=8, seed=5)
        dijkstra(network, *_pairs(network, 1, seed=1)[0], cost_function(CostFeature.DISTANCE))
        table = _table(network, CostFeature.DISTANCE)
        table.attempts = table.paid_off = 0
        self._fail(table, ATTEMPT_WINDOW // 2 - 1)
        assert table.wants_attempt() and table.skipped == 0  # too few to judge
        table.note_attempt(False)
        assert not table.wants_attempt() and table.skipped == 1
        for _ in range(2 * ATTEMPT_WINDOW):
            table.note_attempt(True)
        assert table.wants_attempt()
        assert table.attempts < ATTEMPT_WINDOW  # halved, so old attempts fade

    def test_reaching_by_settling_most_of_the_graph_does_not_pay_off(self, engage_all, attempts):
        network = _unit_grid(12, 12)
        cost = cost_function(CostFeature.DISTANCE)
        mid = (3 * 12 + 3, 8 * 12 + 8)
        dijkstra(network, *mid, cost)  # a landmark detour caps the corridor: it pays off
        table = _table(network, CostFeature.DISTANCE)
        assert attempts == [True] and (table.attempts, table.paid_off) == (1, 1)
        _raise_costs(network)  # mid-range, uncapped: the corridor is most of the grid
        dijkstra(network, *mid, cost)
        assert attempts == [True, True] and (table.attempts, table.paid_off) == (2, 1)
        dijkstra(network, 0, 1, cost)
        assert attempts == [True, True, True] and (table.attempts, table.paid_off) == (3, 2)

    def test_far_apart_pairs_go_straight_to_the_full_search(self, engage_all, attempts):
        network = _unit_grid(12, 12)
        cost = cost_function(CostFeature.DISTANCE)
        table = network.prepare_landmarks(cost)
        assert table.span == 22 * 100.0
        _raise_costs(network)  # no landmark detour caps the corridor any more
        corner = dijkstra(network, 0, 143, cost).vertices  # bound == span: no corridor to speak of
        assert _table(network, CostFeature.DISTANCE) is table
        assert attempts == [] and table.attempts == 0  # declined, and not counted
        assert corner == dict_dijkstra(network, 0, 143, cost).vertices

    def test_failing_table_is_skipped_but_sampled_and_recovers(self, engage_all, attempts):
        network = grid_city_network(rows=8, cols=8, seed=5)
        cost = cost_function(CostFeature.DISTANCE)
        pairs = _pairs(network, 6, seed=2)
        _assert_identical(network, pairs, features=(CostFeature.DISTANCE,))
        table = _table(network, CostFeature.DISTANCE)
        table.attempts = table.paid_off = 0
        self._fail(table)
        attempts.clear()
        near = next(e.key for e in network.edges())  # one hop: always pays off
        for _ in range(SKIPPED_SAMPLE - 1):
            dijkstra(network, *near, cost)
        assert attempts == [] and table.skipped == SKIPPED_SAMPLE - 1  # skipped ...
        dijkstra(network, *near, cost)
        assert attempts == [True]  # ... but one in SKIPPED_SAMPLE still tries
        network.update_edge_costs({near: {"distance_m": network.edge(*near).distance_m * 1.5}})
        dijkstra(network, *pairs[0], cost)
        assert _table(network, CostFeature.DISTANCE) is table  # rising costs: no rebuild
        # The traffic turns to pairs that pay off: the sampled attempts lift the verdict.
        for _ in range(SKIPPED_SAMPLE * ATTEMPT_WINDOW):
            if table.wants_attempt():
                table.note_attempt(True)
        attempts.clear()
        _assert_identical(network, pairs, features=(CostFeature.DISTANCE,))
        assert len(attempts) >= len(pairs) - 1  # every pair again (but one too far apart)

    def test_rescaled_twin_keeps_the_counts(self, engage_all):
        network = grid_city_network(rows=8, cols=8, seed=5)
        cost = cost_function(CostFeature.DISTANCE)
        pairs = _pairs(network, 4, seed=3)
        _assert_identical(network, pairs, features=(CostFeature.DISTANCE,))
        table = _table(network, CostFeature.DISTANCE)
        self._fail(table, 300)
        counts = (table.attempts, table.paid_off)
        edge = next(iter(network.edges()))
        network.update_edge_costs({edge.key: {"distance_m": edge.distance_m * 0.8}})
        dijkstra(network, *pairs[0], cost)
        twin = _table(network, CostFeature.DISTANCE)
        assert twin is not table and twin.scale < 1.0
        assert (twin.attempts, twin.paid_off) == counts and twin.skipped == 1


# ---------------------------------------------------------------------- #
# Which cost views get a landmark table, and how many are kept
# ---------------------------------------------------------------------- #
class TestTablesStayBounded:
    def test_weighted_views_get_no_table_from_dijkstra(self, engage_all, attempts):
        """Dom scales its weights per request: a new ("linear", terms) key each time."""
        network = grid_city_network(rows=10, cols=10, seed=5)
        s, t = sorted(network.vertex_ids())[22], sorted(network.vertex_ids())[47]
        for i in range(3 * LANDMARK_TABLE_LIMIT):
            cost = weighted_cost({CostFeature.TRAVEL_TIME: 1.0, CostFeature.DISTANCE: 0.01 * (i + 1)})
            assert dijkstra(network, s, t, cost).vertices == dict_dijkstra(network, s, t, cost).vertices
        assert network.compiled()._landmark_tables == {} and attempts == []
        # A table something else built (prepare_landmarks) is used.
        assert network.prepare_landmarks(cost) is not None
        assert len(network.compiled()._landmark_tables) == 1
        assert dijkstra(network, s, t, cost).vertices == dict_dijkstra(network, s, t, cost).vertices
        assert len(attempts) == 1

    def test_tables_are_kept_most_recently_served_first(self, engage_all):
        network = grid_city_network(rows=6, cols=6, seed=5)
        graph = network.compiled()
        s, t = sorted(network.vertex_ids())[0], sorted(network.vertex_ids())[-1]
        fastest = cost_function(CostFeature.TRAVEL_TIME)
        dijkstra(network, s, t, fastest)
        for i in range(LANDMARK_TABLE_LIMIT + 3):
            cost = weighted_cost({CostFeature.TRAVEL_TIME: 1.0, CostFeature.DISTANCE: 0.01 * (i + 1)})
            network.prepare_landmarks(cost)
            dijkstra(network, s, t, fastest)  # served again: stays
        assert len(graph._landmark_tables) == LANDMARK_TABLE_LIMIT
        assert _table(network, CostFeature.TRAVEL_TIME) is not None
        assert graph.resolve_cost(cost)[0] in graph._landmark_tables
