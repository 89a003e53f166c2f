"""Contraction-hierarchy queries and live-traffic re-weighting.

Property tests for :mod:`repro.network.compiled.ch` and its handle,
:class:`~repro.routing.contraction.ContractionHierarchy`.  The oracle is
:func:`~repro.routing.dijkstra.dict_dijkstra` throughout:

* CH path costs are identical to it on randomized grids and the country
  network (paths valid, unreachable pairs agree) through the whole life
  cycle: build, re-weight, rebuild, frozen (``"ignore"``), ``"raise"``;
* a re-weighted hierarchy answers exactly like a freshly built one after
  randomized :class:`~repro.traffic.TrafficUpdate` sequences — through both
  the O(touched) propagation path and the vectorized full recustomization;
* one :class:`~repro.network.compiled.ch.CompiledHierarchy` is constructed
  per topology — in the build call, never on the query path — and racing
  callers share it;
* ``compiled_disabled()`` does not change what a CH query or refresh runs;
* ``RoadNetwork.prepare_hierarchy`` shares, refreshes, and rebuilds the
  cached hierarchy across cost and topology mutations.
"""

from __future__ import annotations

import math
import random
import threading

import numpy as np
import pytest

from repro.exceptions import NoPathError, StaleHierarchyError
from repro.network import compiled_disabled, country_network, grid_city_network
from repro.network.compiled import ch as compiled_ch
from repro.routing import (
    CostFeature,
    build_contraction_hierarchy,
    ch_shortest_path,
    cost_function,
)
from repro.routing.dijkstra import dict_dijkstra as dijkstra
from repro.traffic import TrafficFeed, TrafficUpdate

COST = cost_function(CostFeature.TRAVEL_TIME)


def _grid(seed: int, rows: int = 6, cols: int = 6):
    return grid_city_network(rows=rows, cols=cols, seed=seed)


def _path_cost(network, path) -> float:
    return sum(COST(edge) for edge in network.path_edges(path.vertices))


def _random_pairs(network, count: int, rng: random.Random):
    ids = sorted(network.vertex_ids())
    return [(rng.choice(ids), rng.choice(ids)) for _ in range(count)]


def _random_updates(network, count: int, rng: random.Random, allow_decrease=True):
    low = 0.5 if allow_decrease else 1.05
    edges = rng.sample(list(network.edges()), count)
    return [
        TrafficUpdate.scale_by(
            edge.source, edge.target, travel_time_s=rng.uniform(low, 4.0)
        )
        for edge in edges
    ]


class TestCompiledQueries:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_costs_identical_to_dict_dijkstra(self, seed):
        network = _grid(seed, rows=5 + seed, cols=6)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        rng = random.Random(seed)
        for source, destination in _random_pairs(network, 30, rng):
            candidate = ch_shortest_path(network, source, destination, hierarchy)
            assert candidate.is_valid(network)
            expected = _path_cost(network, dijkstra(network, source, destination, COST))
            assert _path_cost(network, candidate) == pytest.approx(expected, rel=1e-9)
            assert hierarchy.query_cost(source, destination) == pytest.approx(
                expected, rel=1e-9
            )

    def test_unreachable_raises_with_and_without_compiled_search(self):
        network = _grid(12, rows=3, cols=3)
        network.add_vertex(999, lon=0.0, lat=0.0)
        network.add_vertex(998, lon=0.001, lat=0.0)
        network.add_edge(999, 998)  # separate weak component
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        with pytest.raises(NoPathError):
            ch_shortest_path(network, 0, 999, hierarchy)
        with compiled_disabled():
            with pytest.raises(NoPathError):
                ch_shortest_path(network, 0, 999, hierarchy)

    def test_trivial_and_unknown_vertices(self):
        network = _grid(13, rows=3, cols=3)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        assert ch_shortest_path(network, 4, 4, hierarchy).vertices == (4,)
        from repro.exceptions import VertexNotFoundError

        with pytest.raises(VertexNotFoundError):
            ch_shortest_path(network, 4, 12345, hierarchy)


class TestDirectedGraphs:
    """One-way streets: the undirected fill skeleton must stay chordal."""

    def _directed_network(self, seed: int):
        from repro.network import RoadNetwork

        rng = random.Random(seed)
        network = RoadNetwork(name=f"one-way-{seed}")
        rows, cols = 5, 5
        for r in range(rows):
            for c in range(cols):
                network.add_vertex(r * cols + c, lon=0.01 * c, lat=0.01 * r)
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                for dr, dc in ((0, 1), (1, 0)):
                    rr, cc = r + dr, c + dc
                    if rr < rows and cc < cols:
                        w = rr * cols + cc
                        # a mix of one-way and two-way segments
                        direction = rng.random()
                        if direction < 0.4:
                            network.add_edge(v, w)
                        elif direction < 0.8:
                            network.add_edge(w, v)
                        else:
                            network.add_edge(v, w, bidirectional=True)
        return network

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_one_way_edges_cost_identical(self, seed):
        network = self._directed_network(seed)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        rng = random.Random(seed + 100)
        for source, destination in _random_pairs(network, 40, rng):
            try:
                reference = dijkstra(network, source, destination, COST)
            except NoPathError:
                if source != destination:
                    with pytest.raises(NoPathError):
                        ch_shortest_path(network, source, destination, hierarchy)
                continue
            candidate = ch_shortest_path(network, source, destination, hierarchy)
            assert candidate.is_valid(network)
            assert _path_cost(network, candidate) == pytest.approx(
                _path_cost(network, reference), rel=1e-9
            )

    def test_one_way_reweight_exact(self):
        network = self._directed_network(7)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        rng = random.Random(7)
        ids = sorted(network.vertex_ids())
        for _ in range(3):
            feed = TrafficFeed(network)
            feed.apply(_random_updates(network, 8, rng))
            hierarchy.refresh(network)
            for source, destination in _random_pairs(network, 20, rng):
                try:
                    reference = dijkstra(network, source, destination, COST)
                except NoPathError:
                    continue
                candidate = ch_shortest_path(network, source, destination, hierarchy)
                assert _path_cost(network, candidate) == pytest.approx(
                    _path_cost(network, reference), rel=1e-9
                )


class TestReweighting:
    @pytest.mark.parametrize("batch_size", [3, 30])
    def test_reweighted_equals_rebuilt(self, batch_size):
        """Both re-weight paths (propagation and vectorized full)."""
        network = _grid(20)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        rng = random.Random(batch_size)
        ids = sorted(network.vertex_ids())
        for round_ in range(4):
            feed = TrafficFeed(network)
            feed.apply(_random_updates(network, batch_size, rng))
            hierarchy.refresh(network)
            assert not hierarchy.is_stale(network)
            fresh = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
            for source, destination in _random_pairs(network, 15, rng):
                reweighted = ch_shortest_path(network, source, destination, hierarchy)
                rebuilt = ch_shortest_path(network, source, destination, fresh)
                reference = dijkstra(network, source, destination, COST)
                expected = _path_cost(network, reference)
                assert _path_cost(network, reweighted) == pytest.approx(expected, rel=1e-9)
                assert _path_cost(network, rebuilt) == pytest.approx(expected, rel=1e-9)

    def test_reweight_bumps_weights_version_and_counter(self):
        network = _grid(21)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        assert hierarchy.weights_version == 0
        edge = next(network.edges())
        network.update_edge_costs(
            {(edge.source, edge.target): {"travel_time_s": edge.travel_time_s * 3}}
        )
        hierarchy.refresh(network)
        assert hierarchy.weights_version == 1
        assert hierarchy.reweight_count == 1
        assert hierarchy.built_version == network.version

    def test_compiled_disabled_does_not_change_refresh_or_query(self):
        network = _grid(22)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        compiled = hierarchy._compiled
        edge = next(network.edges())
        network.update_edge_costs(
            {(edge.source, edge.target): {"travel_time_s": edge.travel_time_s * 3}}
        )
        with compiled_disabled():
            hierarchy.refresh(network)
            # The hierarchy is array state, not a search with a dict twin:
            # the same structure is re-weighted and queried either way.
            assert hierarchy.reweight_count == 1
            assert hierarchy._compiled is compiled
            source, destination = ids[0], ids[-1]
            refreshed = ch_shortest_path(network, source, destination, hierarchy)
            reference = dijkstra(network, source, destination, COST)
            assert _path_cost(network, refreshed) == pytest.approx(
                _path_cost(network, reference), rel=1e-9
            )

    def test_topology_mutation_forces_full_rebuild(self):
        network = _grid(23, rows=4, cols=4)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        compiled_before = hierarchy._compiled
        network.add_vertex(777, lon=0.0, lat=0.0)
        network.add_edge(ids[0], 777)
        hierarchy.refresh(network)
        assert hierarchy.reweight_count == 0  # rebuilt, not re-weighted
        assert hierarchy._compiled is not compiled_before
        path = ch_shortest_path(network, ids[0], 777, hierarchy)
        assert path.vertices[-1] == 777

    def test_cost_decreases_are_exact(self):
        """Witness-free arc sets stay exact when edges get *cheaper*."""
        network = _grid(24)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        rng = random.Random(24)
        ids = sorted(network.vertex_ids())
        updates = {}
        for edge in rng.sample(list(network.edges()), 25):
            updates[(edge.source, edge.target)] = {
                "travel_time_s": edge.travel_time_s * 0.2
            }
        network.update_edge_costs(updates)
        hierarchy.refresh(network)
        for source, destination in _random_pairs(network, 20, rng):
            candidate = ch_shortest_path(network, source, destination, hierarchy)
            reference = dijkstra(network, source, destination, COST)
            assert _path_cost(network, candidate) == pytest.approx(
                _path_cost(network, reference), rel=1e-9
            )

    def test_reweight_noop_diff_keeps_version(self):
        network = _grid(25, rows=4, cols=4)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        compiled = hierarchy._compiled
        assert compiled.reweight(compiled.base_weights.copy()) == 0
        assert compiled.weights_version == 0


class TestStalenessModes:
    def _stale_pair(self, seed: int):
        network = _grid(seed, rows=4, cols=4)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        edge = next(network.edges())
        network.update_edge_costs(
            {(edge.source, edge.target): {"travel_time_s": 999.0}}
        )
        return network, hierarchy, ids

    def test_raise_is_preserved(self):
        network, hierarchy, ids = self._stale_pair(30)
        assert hierarchy.is_stale(network)
        with pytest.raises(StaleHierarchyError):
            ch_shortest_path(network, ids[0], ids[-1], hierarchy)

    def test_ignore_answers_with_the_pre_update_costs(self):
        network = _grid(31, rows=4, cols=4)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        frozen_costs = {edge.key: edge.travel_time_s for edge in network.edges()}
        reference = _path_cost(network, dijkstra(network, ids[0], ids[-1], COST))
        for edge in list(network.path_edges(dijkstra(network, ids[0], ids[-1], COST).vertices)):
            network.update_edge_costs({edge.key: {"travel_time_s": 999.0}})
        frozen = ch_shortest_path(network, ids[0], ids[-1], hierarchy, on_stale="ignore")
        # Answered from the build-time weights, and no re-weight ran.
        assert hierarchy.weights_version == 0
        assert hierarchy.is_stale(network)
        frozen_cost = sum(frozen_costs[hop] for hop in zip(frozen.vertices, frozen.vertices[1:]))
        assert frozen_cost == pytest.approx(reference, rel=1e-9)
        assert _path_cost(network, frozen) > reference  # not the live optimum

    def test_ignore_after_a_topology_change_answers_from_the_build_snapshot(self):
        network = _grid(33, rows=4, cols=4)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        reference = _path_cost(network, dijkstra(network, ids[0], ids[-1], COST))
        network.add_vertex(777, lon=0.0, lat=0.0)
        network.add_edge(ids[0], 777)
        frozen = ch_shortest_path(network, ids[0], ids[-1], hierarchy, on_stale="ignore")
        assert _path_cost(network, frozen) == pytest.approx(reference, rel=1e-9)
        with pytest.raises(NoPathError):  # 777 is not in the frozen hierarchy
            ch_shortest_path(network, ids[0], 777, hierarchy, on_stale="ignore")

    def test_rebuild_reweights_and_answers_current(self):
        network, hierarchy, ids = self._stale_pair(32)
        path = ch_shortest_path(network, ids[0], ids[-1], hierarchy, on_stale="rebuild")
        assert not hierarchy.is_stale(network)
        assert hierarchy.reweight_count == 1  # cheap re-weight, no rebuild
        reference = dijkstra(network, ids[0], ids[-1], COST)
        assert _path_cost(network, path) == pytest.approx(
            _path_cost(network, reference), rel=1e-9
        )


class TestPrepareHierarchy:
    def test_shared_and_refreshed(self):
        network = _grid(40, rows=4, cols=4)
        first = network.prepare_hierarchy()
        second = network.prepare_hierarchy()
        assert first is second
        edge = next(network.edges())
        network.update_edge_costs(
            {(edge.source, edge.target): {"travel_time_s": edge.travel_time_s * 2}}
        )
        third = network.prepare_hierarchy()
        assert third is first
        assert not third.is_stale(network)

    def test_distinct_features_get_distinct_hierarchies(self):
        network = _grid(41, rows=3, cols=3)
        travel = network.prepare_hierarchy(CostFeature.TRAVEL_TIME)
        distance = network.prepare_hierarchy(CostFeature.DISTANCE)
        assert travel is not distance
        assert travel.build_args[0] == CostFeature.TRAVEL_TIME
        assert distance.build_args[0] == CostFeature.DISTANCE

    def test_pickled_network_drops_hierarchies_and_rebuilds(self):
        import pickle

        network = _grid(42, rows=3, cols=3)
        network.prepare_hierarchy()
        restored = pickle.loads(pickle.dumps(network))
        assert restored._hierarchies == {}
        hierarchy = restored.prepare_hierarchy()
        ids = sorted(restored.vertex_ids())
        path = ch_shortest_path(restored, ids[0], ids[-1], hierarchy)
        assert path.is_valid(restored)

    def test_topology_version_counts_structure_only(self):
        network = _grid(43, rows=3, cols=3)
        before = network.topology_version
        edge = next(network.edges())
        network.update_edge_costs(
            {(edge.source, edge.target): {"travel_time_s": edge.travel_time_s * 2}}
        )
        assert network.topology_version == before
        network.add_vertex(555, lon=0.0, lat=0.0)
        assert network.topology_version == before + 1


class TestCompiledHierarchyInternals:
    def test_rank_is_a_permutation(self):
        network = _grid(51, rows=5, cols=4)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        compiled = hierarchy._compiled
        assert sorted(compiled.rank) == list(range(network.vertex_count))
        # every vertex reaches its component root through strictly
        # increasing ranks
        for v in range(network.vertex_count):
            parent = compiled.tree_parent[v]
            if parent >= 0:
                assert compiled.rank[parent] > compiled.rank[v]


class TestOneHierarchyBuiltOnce:
    """The hierarchy is built in the build call and nowhere else."""

    @pytest.fixture()
    def constructions(self, monkeypatch):
        built: list[object] = []
        original = compiled_ch.CompiledHierarchy.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(compiled_ch.CompiledHierarchy, "__init__", counting)
        return built

    def test_one_construction_per_topology_none_on_the_query_path(self, constructions):
        network = _grid(60, rows=5, cols=5)
        rng = random.Random(60)
        hierarchy = network.prepare_hierarchy()
        assert len(constructions) == 1
        for source, destination in _random_pairs(network, 50, rng):
            ch_shortest_path(network, source, destination, hierarchy)
        TrafficFeed(network).apply(_random_updates(network, 6, rng))
        assert network.prepare_hierarchy() is hierarchy  # cost-only: re-weight
        assert hierarchy.reweight_count == 1
        assert len(constructions) == 1
        ids = sorted(network.vertex_ids())
        network.add_edge(ids[0], ids[-1])
        assert network.prepare_hierarchy() is hierarchy  # topology: rebuild
        assert len(constructions) == 2
        ch_shortest_path(network, ids[0], ids[-1], hierarchy)
        assert len(constructions) == 2

    def test_racing_callers_share_one_hierarchy(self, constructions):
        """Eight threads race the first ``prepare_hierarchy``, queries and a
        re-weight: one hierarchy object, one construction, exact answers."""
        network = _grid(61, rows=5, cols=5)
        ids = sorted(network.vertex_ids())
        workers = 8
        barrier = threading.Barrier(workers)
        seen: list[object] = []
        errors: list[BaseException] = []

        def work(worker: int) -> None:
            try:
                barrier.wait(timeout=30)
                hierarchy = network.prepare_hierarchy()
                seen.append(hierarchy)
                if worker == 0:
                    edge = next(network.edges())
                    network.update_edge_costs(
                        {edge.key: {"travel_time_s": edge.travel_time_s * 5}}
                    )
                for source in ids[worker::workers]:
                    path = ch_shortest_path(
                        network, source, ids[-1], hierarchy, on_stale="rebuild"
                    )
                    assert path.is_valid(network)
            except BaseException as exc:  # surfaced below; never swallowed
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(seen) == workers
        assert all(hierarchy is seen[0] for hierarchy in seen)
        assert len(constructions) == 1
        hierarchy = seen[0]
        assert not hierarchy.is_stale(network)
        assert hierarchy.reweight_count == 1
        for source in ids[::5]:
            candidate = ch_shortest_path(network, source, ids[-1], hierarchy)
            reference = dijkstra(network, source, ids[-1], COST)
            assert _path_cost(network, candidate) == pytest.approx(
                _path_cost(network, reference), rel=1e-9
            )

    def test_opaque_edge_cost_builds_and_refreshes(self, constructions):
        network = _grid(62, rows=4, cols=5)

        def opaque(edge):  # no cost_attr / cost_terms: unresolvable to an array
            return edge.travel_time_s + 0.001 * edge.distance_m

        assert network.compiled().resolve_cost(opaque) is None
        hierarchy = build_contraction_hierarchy(network, edge_cost=opaque)
        rng = random.Random(62)

        def check():
            for source, destination in _random_pairs(network, 20, rng):
                candidate = ch_shortest_path(network, source, destination, hierarchy)
                reference = dijkstra(network, source, destination, opaque)
                assert sum(map(opaque, network.path_edges(candidate.vertices))) == (
                    pytest.approx(
                        sum(map(opaque, network.path_edges(reference.vertices))), rel=1e-9
                    )
                )

        check()
        TrafficFeed(network).apply(_random_updates(network, 6, rng))
        hierarchy.refresh(network)
        assert not hierarchy.is_stale(network)
        check()
        ids = sorted(network.vertex_ids())
        network.add_edge(ids[0], ids[-1])
        hierarchy.refresh(network)
        assert len(constructions) == 2
        check()


class TestLifecycleAgainstDictDijkstra:
    """Build -> 3 traffic batches -> ``add_edge`` -> ``"ignore"`` -> ``"raise"``,
    every answer cost-identical (rel 1e-9) to ``dict_dijkstra``."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: _grid(5), id="grid-5"),
            pytest.param(lambda: _grid(6, rows=7, cols=5), id="grid-6"),
            pytest.param(country_network, id="country"),
        ],
    )
    def test_costs_identical_through_every_state(self, make):
        network = make()
        rng = random.Random(network.vertex_count)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        fill = hierarchy.arc_count / network.compiled().edge_count
        print(f"{network.name}: CH fill {fill:.2f} arcs/edge ({hierarchy.arc_count} arcs)")
        assert math.isfinite(fill) and fill >= 1.0

        def check(mode="raise"):
            for source, destination in _random_pairs(network, 25, rng):
                try:
                    reference = _path_cost(network, dijkstra(network, source, destination, COST))
                except NoPathError:
                    with pytest.raises(NoPathError):
                        ch_shortest_path(network, source, destination, hierarchy, on_stale=mode)
                    continue
                candidate = ch_shortest_path(network, source, destination, hierarchy, on_stale=mode)
                assert candidate.is_valid(network)
                assert _path_cost(network, candidate) == pytest.approx(reference, rel=1e-9)

        check()
        for batch in range(3):  # re-weight
            TrafficFeed(network).apply(_random_updates(network, 5 + 15 * batch, rng))
            check("rebuild")
            assert hierarchy.reweight_count == batch + 1
        ids = sorted(network.vertex_ids())
        network.add_edge(ids[0], ids[-1])  # rebuild
        check("rebuild")
        assert hierarchy.reweight_count == 0

        # Frozen: the hierarchy keeps answering at the costs it last saw.
        pairs = _random_pairs(network, 25, rng)
        frozen_costs = {edge.key: edge.travel_time_s for edge in network.edges()}
        references = [
            _path_cost(network, dijkstra(network, source, destination, COST))
            for source, destination in pairs
        ]
        TrafficFeed(network).apply(_random_updates(network, 20, rng))
        for (source, destination), reference in zip(pairs, references):
            frozen = ch_shortest_path(network, source, destination, hierarchy, on_stale="ignore")
            hops = zip(frozen.vertices, frozen.vertices[1:])
            assert sum(frozen_costs[hop] for hop in hops) == pytest.approx(reference, rel=1e-9)
        with pytest.raises(StaleHierarchyError):
            ch_shortest_path(network, ids[0], ids[-1], hierarchy)


class TestCompiledDtypeContracts:
    """Regression for the reprolint RL004 fixes: the arrays the CH kernels
    exchange pin their dtypes instead of inheriting platform defaults."""

    def test_reweight_and_labels_stay_float64(self):
        network = _grid(22)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        compiled = hierarchy._compiled
        assert compiled.base_weights.dtype == np.float64
        # Drive the vectorized full-recustomization path (touches the
        # searchsorted over topology offsets that RL004 caught untyped).
        rng = random.Random(22)
        feed = TrafficFeed(network)
        feed.apply(_random_updates(network, 30, rng))
        hierarchy.refresh(network)
        assert compiled.base_weights.dtype == np.float64
        path = ch_shortest_path(network, ids[0], ids[-1], hierarchy)
        assert path.is_valid(network)
