"""Live-traffic cost updates: CostStore patching, TrafficFeed, invalidation.

The acceptance bar of the live-traffic refactor: after any sequence of
randomized cost updates, the compiled kernels must return path-for-path the
same answers as a fresh dict-based search on the mutated network — without
the compiled snapshot ever being rebuilt.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import FastestBaseline
from repro.exceptions import EdgeNotFoundError, NetworkError, NoPathError
from repro.network import RoadNetwork, RoadType, grid_city_network
from repro.network.compiled.graph import EDGE_COST_ATTRIBUTES, TOPOLOGY_STAMP
from repro.preferences import PreferenceVector
from repro.preferences.features import MAJOR_ROADS
from repro.routing import (
    CostFeature,
    cost_function,
    dict_dijkstra,
    dijkstra,
    fastest_path,
    preference_dijkstra,
    weighted_cost,
)
from repro.service import DurabilityManager, RouteRequest, RoutingService
from repro.service.durability import final_state, states_identical
from repro.traffic import TrafficFeed, TrafficUpdate, synthetic_congestion

from support.reference import dict_preference_search


def _line_network(n: int = 5) -> RoadNetwork:
    network = RoadNetwork(name="traffic-line")
    for i in range(n):
        network.add_vertex(i, lon=10.0 + i * 0.01, lat=56.0)
    for i in range(n - 1):
        network.add_edge(i, i + 1, distance_m=1_000.0, bidirectional=True)
    return network


# --------------------------------------------------------------------------- #
# TrafficUpdate semantics
# --------------------------------------------------------------------------- #
class TestTrafficUpdate:
    def test_constructors_and_key(self):
        update = TrafficUpdate.set(1, 2, travel_time_s=9.0)
        assert (update.source, update.target) == (1, 2)
        assert update == TrafficUpdate(1, 2, absolute=(("travel_time_s", 9.0),))

    def test_empty_update_rejected(self):
        with pytest.raises(NetworkError):
            TrafficUpdate(source=1, target=2)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(NetworkError):
            TrafficUpdate.set(1, 2, speed_kmh=90.0)

    @pytest.mark.parametrize(
        "terms",
        [
            {"scale": (("bogus", 2.0),)},
            {"absolute": (("travel_time_s", "fast"),)},
            {"delta": (("fuel_ml", None),)},
            {"scale": (("travel_time_s",),)},
        ],
    )
    def test_direct_constructor_validates_every_term(self, terms):
        with pytest.raises(NetworkError):
            TrafficUpdate(source=0, target=1, **terms)

    def test_direct_constructor_normalizes_like_the_helpers(self):
        direct = TrafficUpdate(source=0, target=1, scale=(("travel_time_s", 2),))
        assert direct == TrafficUpdate.scale_by(0, 1, travel_time_s=2.0)

    def test_resolution_order_absolute_scale_delta(self):
        network = _line_network()
        edge = network.edge(0, 1)
        update = TrafficUpdate(
            source=0,
            target=1,
            absolute=(("travel_time_s", 100.0),),
            scale=(("travel_time_s", 2.0),),
            delta=(("travel_time_s", 5.0),),
        )
        assert update.resolve(edge) == {"travel_time_s": 205.0}

    def test_resolution_composes_with_pending(self):
        network = _line_network()
        edge = network.edge(0, 1)
        first = TrafficUpdate.set(0, 1, travel_time_s=60.0)
        second = TrafficUpdate.scale_by(0, 1, travel_time_s=3.0)
        pending = first.resolve(edge)
        assert second.resolve(edge, pending) == {"travel_time_s": 180.0}

    def test_updates_are_hashable(self):
        a = TrafficUpdate.scale_by(0, 1, travel_time_s=2.0)
        b = TrafficUpdate.scale_by(0, 1, travel_time_s=2.0)
        assert len({a, b}) == 1


# --------------------------------------------------------------------------- #
# RoadNetwork.update_edge_costs
# --------------------------------------------------------------------------- #
class TestUpdateEdgeCosts:
    def test_patches_dicts_and_cached_compiled_view(self):
        network = grid_city_network(rows=5, cols=5, seed=2)
        view = network.compiled()
        slot = view.topology.slot_of[0, 1]
        version = network.version
        touched = network.update_edge_costs({(0, 1): {"travel_time_s": 777.0}})
        assert touched == {(0, 1)}
        assert network.edge(0, 1).travel_time_s == 777.0
        assert network.successors(0)[1].travel_time_s == 777.0
        assert network.predecessors(1)[0].travel_time_s == 777.0
        # The snapshot survived, was patched in place, and bumped versions.
        assert network.compiled() is view
        assert view.array("travel_time_s")[slot] == 777.0
        assert view.costs.version == 1
        assert network.cost_version == 1
        assert network.version == version + 1

    def test_batch_is_transactional(self):
        network = _line_network()
        network.compiled()
        before = network.edge(0, 1).travel_time_s
        with pytest.raises(EdgeNotFoundError):
            network.update_edge_costs(
                {
                    (0, 1): {"travel_time_s": 5.0},
                    (0, 4): {"travel_time_s": 5.0},  # no such edge
                }
            )
        assert network.edge(0, 1).travel_time_s == before
        assert network.cost_version == 0

    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
    def test_non_positive_values_rejected(self, bad):
        network = _line_network()
        with pytest.raises(NetworkError):
            network.update_edge_costs({(0, 1): {"travel_time_s": bad}})
        assert network.cost_version == 0

    def test_unknown_attribute_rejected(self):
        network = _line_network()
        with pytest.raises(NetworkError):
            network.update_edge_costs({(0, 1): {"speed_kmh": 130.0}})

    def test_empty_update_is_noop(self):
        network = _line_network()
        view = network.compiled()
        assert network.update_edge_costs({}) == frozenset()
        assert network.update_edge_costs({(0, 1): {}}) == frozenset()
        assert network.cost_version == 0
        assert network.compiled() is view
        assert view.costs.version == 0

    def test_writing_current_values_is_noop(self):
        """Idempotent batches (values equal to the current costs) change
        nothing, bump nothing, and report no touched edges — so downstream
        cache invalidation never fires for a de-congestion tick back to
        current levels."""
        network = _line_network()
        view = network.compiled()
        current = network.edge(0, 1).travel_time_s
        touched = network.update_edge_costs(
            {
                (0, 1): {"travel_time_s": current},
                (1, 2): {"travel_time_s": 999.0},
            }
        )
        assert touched == {(1, 2)}
        assert network.cost_version == 1
        assert network.update_edge_costs({(0, 1): {"travel_time_s": current}}) == frozenset()
        assert network.cost_version == 1
        assert view.costs.version == 1

    def test_update_without_compiled_view_defers_to_next_build(self):
        network = _line_network()
        network.update_edge_costs({(0, 1): {"distance_m": 123.0}})
        view = network.compiled()
        assert view.array("distance_m")[view.topology.slot_of[0, 1]] == 123.0

    def test_topology_mutation_still_drops_view(self):
        network = _line_network()
        view = network.compiled()
        network.update_edge_costs({(0, 1): {"travel_time_s": 9.0}})
        assert network.compiled() is view
        network.add_edge(0, 2)
        assert network.compiled() is not view


class TestPickleCostVersion:
    def test_roundtrip_preserves_cost_version(self):
        network = _line_network()
        network.update_edge_costs({(0, 1): {"travel_time_s": 42.0}})
        network.update_edge_costs({(1, 2): {"fuel_ml": 42.0}})
        clone = pickle.loads(pickle.dumps(network))
        # The compiled view is dropped from pickles and rebuilds on demand.
        assert clone._compiled is None
        assert clone.cost_version == 2
        assert clone.edge(0, 1).travel_time_s == 42.0
        view = clone.compiled()
        assert view.array("travel_time_s")[view.topology.slot_of[0, 1]] == 42.0


# --------------------------------------------------------------------------- #
# RoadNetwork.restore_cost_state — the one adopter (recovery, worker boot, resync)
# --------------------------------------------------------------------------- #
class TestRestoreCostState:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=6),
        st.booleans(),
    )
    def test_adopting_a_state_equals_replaying_the_batches(
        self, rows, cols, seed, n_batches, compiled_first
    ):
        def fresh():
            return grid_city_network(rows=rows, cols=cols, seed=1)

        source, replayed, adopter, pristine = fresh(), fresh(), fresh(), fresh()
        if compiled_first:
            adopter.compiled()
        rng = random.Random(seed)
        keys = sorted(edge.key for edge in source.edges())
        batches = []
        for _ in range(n_batches):
            batch = {}
            for key in rng.sample(keys, rng.randint(1, min(6, len(keys)))):
                edge = source.edge(*key)
                batch[key] = {
                    # increases, decreases and writes of the current value
                    attr: getattr(edge, attr) * rng.choice([0.25, 1.0, 1.0, 3.0])
                    for attr in rng.sample(EDGE_COST_ATTRIBUTES, rng.randint(1, 3))
                }
            source.update_edge_costs(batch)
            batches.append(batch)
        for batch in batches:
            replayed.update_edge_costs(batch)
        target = source.compiled().costs.export_arrays()
        before = {key: adopter.edge(*key) for key in keys}

        changed = adopter.restore_cost_state(target, source.cost_version)

        assert changed == {key for key in keys if source.edge(*key) != pristine.edge(*key)}
        assert states_identical(final_state(adopter), final_state(source))
        assert states_identical(final_state(adopter), final_state(replayed))
        graph = adopter.compiled()
        assert graph.costs.version == adopter.cost_version == source.cost_version
        for edge in adopter.edges():
            slot = graph.topology.slot_of[edge.key]
            assert edge == adopter.edge(*edge.key) == adopter.successors(edge.source)[edge.target]
            assert edge == source.edge(*edge.key)
            assert (edge != before[edge.key]) == (edge.key in changed)
            for attr in EDGE_COST_ATTRIBUTES:
                assert getattr(edge, attr) == graph.array(attr)[slot]

        # An already identical state: nothing to report, no array swapped.
        kept = graph.costs.export_arrays()
        assert adopter.restore_cost_state(target, source.cost_version) == frozenset()
        assert adopter.compiled() is graph
        assert all(graph.array(attr) is kept[attr] for attr in EDGE_COST_ATTRIBUTES)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda arrays: arrays.pop("fuel_ml"), "missing 'fuel_ml'"),
            (lambda arrays: arrays.update(fuel_ml=arrays["fuel_ml"][:-1]), "has shape"),
            (lambda arrays: arrays["distance_m"].__setitem__(2, float("nan")), "non-finite"),
            (lambda arrays: arrays["travel_time_s"].__setitem__(0, 0.0), "non-positive"),
        ],
    )
    def test_bad_arrays_raise_before_anything_changes(self, damage, message):
        network = grid_city_network(rows=3, cols=3, seed=1)
        network.update_edge_costs({(0, 1): {"travel_time_s": 50.0}})
        graph = network.compiled()
        state, kept, version = final_state(network), graph.costs.export_arrays(), network.version
        arrays = {attr: array * 2.0 for attr, array in state[0].items()}
        damage(arrays)
        with pytest.raises(NetworkError, match=message):
            network.restore_cost_state(arrays, 7)
        assert states_identical(final_state(network), state)
        assert network.version == version and network.compiled() is graph
        assert all(graph.array(attr) is kept[attr] for attr in EDGE_COST_ATTRIBUTES)

    def test_a_cached_artifact_of_the_old_state_is_not_served_at_the_adopted_version(self):
        """The version is set, not bumped, so it can land on a number the
        store has already stamped entries with — under other costs."""
        network = grid_city_network(rows=3, cols=3, seed=1)
        graph = network.compiled()
        network.update_edge_costs({(0, 1): {"travel_time_s": 50.0}})
        terms = (("travel_time_s", 2.0),)
        stale = graph.costs.linear_array(terms)
        assert graph.costs.version == 1
        arrays = {attr: array * 3.0 for attr, array in final_state(network)[0].items()}
        network.restore_cost_state(arrays, 1)
        assert graph.costs.version == 1
        assert graph.costs.linear_array(terms) is not stale
        assert graph.costs.linear_array(terms).tolist() == (arrays["travel_time_s"] * 2.0).tolist()


# --------------------------------------------------------------------------- #
# CostStore version-stamped caches
# --------------------------------------------------------------------------- #
class TestCostStoreInvalidation:
    def test_cost_dependent_memo_self_evicts(self):
        network = _line_network()
        view = network.compiled()
        builds = []

        def build():
            builds.append(1)
            return view.array("travel_time_s").sum()

        first = view.memo(("sum-tt",), build)
        assert view.memo(("sum-tt",), build) == first
        assert len(builds) == 1
        network.update_edge_costs({(0, 1): {"travel_time_s": 10_000.0}})
        second = view.memo(("sum-tt",), build)
        assert len(builds) == 2
        assert second != first

    def test_topology_memo_survives_cost_updates(self):
        network = _line_network()
        view = network.compiled()
        artifact = view.memo(("topo",), object, cost_dependent=False)
        network.update_edge_costs({(0, 1): {"travel_time_s": 9.0}})
        assert view.memo(("topo",), object, cost_dependent=False) is artifact
        entry = view.costs._memo[("topo",)]
        assert entry[0] == TOPOLOGY_STAMP

    def test_weight_lists_and_linear_arrays_refresh(self):
        network = _line_network()
        view = network.compiled()
        cost = cost_function(CostFeature.TRAVEL_TIME)
        key, array, version = view.resolve_cost(cost)
        stale_reverse = view.reverse_weights(key, array, version)
        terms = (("travel_time_s", 1.0), ("fuel_ml", 0.5))
        stale_linear = view.costs.linear_array(terms)

        slot = view.topology.slot_of[0, 1]
        position = view.topology.r_slots.tolist().index(slot)
        network.update_edge_costs({(0, 1): {"travel_time_s": 4_321.0}})

        key, array, version = view.resolve_cost(cost)
        assert version == 1
        assert array[slot] == 4_321.0
        fresh_reverse = view.reverse_weights(key, array, version)
        assert fresh_reverse[position] == 4_321.0
        assert stale_reverse[position] != 4_321.0
        assert view.costs.linear_array(terms)[slot] != stale_linear[slot]

    def test_stale_resolved_array_cannot_poison_weight_cache(self):
        """A query that resolved its array before a patch must not insert a
        pre-update weight list stamped as current (the serve-while-updating
        race): stale-versioned callers are served uncached instead."""
        network = _line_network()
        view = network.compiled()
        cost = cost_function(CostFeature.TRAVEL_TIME)
        position = view.topology.r_slots.tolist().index(view.topology.slot_of[0, 1])

        key, old_array, old_version = view.resolve_cost(cost)
        # A patch lands between resolve and the weight-list build.
        network.update_edge_costs({(0, 1): {"travel_time_s": 8_888.0}})
        stale = view.reverse_weights(key, old_array, old_version)
        assert stale[position] != 8_888.0  # the caller's own view is pre-update
        # ... but the shared cache was not poisoned: a fresh resolve sees
        # the updated cost.
        key, array, version = view.resolve_cost(cost)
        assert view.reverse_weights(key, array, version)[position] == 8_888.0

    def test_readers_holding_old_arrays_see_consistent_snapshot(self):
        """Patches swap arrays; an in-flight reader's array never changes."""
        network = _line_network()
        view = network.compiled()
        old = view.array("travel_time_s")
        before = old.copy()
        network.update_edge_costs({(0, 1): {"travel_time_s": 999.0}})
        assert (old == before).all()
        assert view.array("travel_time_s") is not old


# --------------------------------------------------------------------------- #
# TrafficFeed
# --------------------------------------------------------------------------- #
class TestTrafficFeed:
    def test_apply_reports_touched_edges_and_version(self):
        network = _line_network()
        feed = TrafficFeed(network)
        result = feed.apply(
            [
                TrafficUpdate.scale_by(0, 1, travel_time_s=2.0),
                TrafficUpdate.shift(1, 2, fuel_ml=5.0),
            ]
        )
        assert result.touched_edges == {(0, 1), (1, 2)}
        assert result.cost_version == network.cost_version == 1
        assert result.applied == 2
        assert result.attributes == {"travel_time_s", "fuel_ml"}

    def test_same_edge_updates_compose_in_batch_order(self):
        network = _line_network()
        base = network.edge(0, 1).travel_time_s
        feed = TrafficFeed(network)
        result = feed.apply(
            [
                TrafficUpdate.scale_by(0, 1, travel_time_s=2.0),
                TrafficUpdate.shift(0, 1, travel_time_s=10.0),
            ]
        )
        assert len(result.touched_edges) == 1
        assert network.edge(0, 1).travel_time_s == pytest.approx(base * 2.0 + 10.0)

    def test_failed_batch_changes_nothing_and_notifies_nobody(self):
        network = _line_network()
        feed = TrafficFeed(network)
        seen = []
        feed.subscribe(seen.append)
        before = network.edge(0, 1).travel_time_s
        with pytest.raises(EdgeNotFoundError):
            feed.apply(
                [
                    TrafficUpdate.scale_by(0, 1, travel_time_s=2.0),
                    TrafficUpdate.scale_by(0, 3, travel_time_s=2.0),  # missing
                ]
            )
        assert network.edge(0, 1).travel_time_s == before
        assert network.cost_version == 0
        assert seen == []

    def test_raising_subscriber_does_not_starve_the_rest(self):
        """Subscriber isolation: one bad callback must not leave the other
        services' caches stale (the patch has already landed by then)."""
        network = _line_network()
        feed = TrafficFeed(network)
        seen = []

        def bad(result):
            raise RuntimeError("subscriber boom")

        feed.subscribe(bad)
        feed.subscribe(seen.append)
        with pytest.raises(RuntimeError, match="subscriber boom"):
            feed.apply([TrafficUpdate.scale_by(0, 1, travel_time_s=2.0)])
        # The network patch succeeded and the second subscriber still ran.
        assert network.cost_version == 1
        assert len(seen) == 1 and seen[0].cost_version == 1

    def test_noop_batch_notifies_nobody(self):
        network = _line_network()
        feed = TrafficFeed(network)
        seen = []
        feed.subscribe(seen.append)
        current = network.edge(0, 1).travel_time_s
        result = feed.apply([TrafficUpdate.set(0, 1, travel_time_s=current)])
        assert result.touched_edges == frozenset()
        assert network.cost_version == 0
        assert seen == []

    def test_reentrant_subscriber_does_not_deadlock(self):
        """A subscriber may push a compensating update or register another
        callback from inside the notification (the feed lock is reentrant)."""
        network = _line_network()
        feed = TrafficFeed(network)
        versions = []

        def compensate(result):
            feed.subscribe(lambda r: None)  # reentrant subscribe
            if result.cost_version == 1:  # one-shot nested apply
                feed.apply([TrafficUpdate.shift(1, 2, fuel_ml=5.0)])

        feed.subscribe(compensate)
        feed.subscribe(lambda result: versions.append(result.cost_version))
        feed.apply([TrafficUpdate.scale_by(0, 1, travel_time_s=2.0)])
        assert network.cost_version == 2
        assert versions == [2, 1]  # nested batch notified first (depth-first)

    def test_subscribers_observe_monotonic_versions(self):
        network = _line_network()
        feed = TrafficFeed(network)
        versions = []
        feed.subscribe(lambda result: versions.append(result.cost_version))
        for _ in range(3):
            feed.apply([TrafficUpdate.scale_by(0, 1, travel_time_s=1.1)])
        assert versions == [1, 2, 3]

    def test_empty_batch_is_noop(self):
        network = _line_network()
        feed = TrafficFeed(network)
        seen = []
        feed.subscribe(seen.append)
        result = feed.apply([])
        assert len(result.touched_edges) == 0
        assert network.cost_version == 0
        assert seen == []


class TestSyntheticCongestion:
    def test_batches_apply_and_stay_bounded(self):
        network = grid_city_network(rows=4, cols=4, seed=1)
        free_flow = {edge.key: edge.travel_time_s for edge in network.edges()}
        feed = TrafficFeed(network)
        peak_factor = 2.5
        for batch in synthetic_congestion(
            network, seed=3, fraction=0.3, peak_factor=peak_factor, steps=4
        ):
            feed.apply(batch)
        assert network.cost_version == 4
        # Absolute free-flow baselines: congestion never compounds.
        for key, baseline in free_flow.items():
            level = network.edge(*key).travel_time_s / baseline
            assert 1.0 <= level <= peak_factor + 1e-9

    def test_generator_validates_parameters(self):
        network = _line_network()
        with pytest.raises(NetworkError):
            next(synthetic_congestion(network, fraction=0.0))
        with pytest.raises(NetworkError):
            next(synthetic_congestion(network, peak_factor=0.5))
        with pytest.raises(NetworkError):
            next(synthetic_congestion(RoadNetwork()))


# --------------------------------------------------------------------------- #
# Service-layer traffic counters and the in-flight race (the delta-aware
# eviction itself is checked against a model by tests/test_oracle.py)
# --------------------------------------------------------------------------- #
class TestServiceInvalidation:
    def test_cache_disabled_service_still_counts_updates(self):
        network = _line_network()
        service = RoutingService(enable_cache=False)
        service.register("Fastest", FastestBaseline(network).as_engine(), default=True)
        feed = TrafficFeed(network, services=[service])
        feed.apply([TrafficUpdate.scale_by(0, 1, travel_time_s=2.0)])
        stats = service.stats()
        assert stats.traffic_updates == 1
        assert stats.traffic_evicted_routes == 0

    def test_in_flight_route_is_not_cached_across_a_traffic_update(self):
        """A response computed with pre-update costs must not land in the
        cache after the invalidation ran (the put guard snapshots the
        traffic generation before computing)."""
        from repro.routing import fastest_path
        from repro.service.engine import FunctionEngine

        network = grid_city_network(rows=6, cols=6, seed=1)
        service = RoutingService()
        feed = TrafficFeed(network, services=[service])
        crossed = network.edge(0, 6).key
        race_once = [True]

        def racy_route(source, destination):
            path = fastest_path(network, source, destination)
            if race_once:
                # The update lands while this request is still in flight.
                race_once.clear()
                feed.apply([TrafficUpdate.scale_by(*crossed, travel_time_s=1.5)])
            return path

        service.register("racy", FunctionEngine(network, racy_route))
        response = service.route(RouteRequest(source=0, destination=35))
        assert response.ok and not response.cache_hit
        # The stale answer was vetoed: the repeat request recomputes.
        repeat = service.route(RouteRequest(source=0, destination=35))
        assert not repeat.cache_hit
        # ... and once no update races the request, caching resumes.
        assert service.route(RouteRequest(source=0, destination=35)).cache_hit


class TestServiceRecovery:
    """``RoutingService.recover`` adopts a state; it applies no batch itself."""

    @staticmethod
    def _fed_service(network):
        service = RoutingService(enable_cache=False)
        service.register("Fastest", FastestBaseline(network).as_engine(), default=True)
        return service, TrafficFeed(network, services=[service])

    def test_recovery_over_an_empty_directory_counts_no_update(self, tmp_path):
        network = grid_city_network(rows=4, cols=4, seed=1)
        service, feed = self._fed_service(network)
        with DurabilityManager(tmp_path) as manager:
            report = service.recover(manager, feed)
        stats = service.stats()
        assert report.replayed == 0
        assert stats.traffic_updates == 0
        assert stats.cost_version == report.recovered_version == network.cost_version

    def test_recovery_after_journaled_batches_leaves_the_count(self, tmp_path):
        network = grid_city_network(rows=4, cols=4, seed=1)
        service, feed = self._fed_service(network)
        edges = sorted(edge.key for edge in network.edges())
        batches = [[TrafficUpdate.scale_by(*key, travel_time_s=1.5)] for key in edges[:3]]
        with DurabilityManager(tmp_path) as manager:
            feed.attach_journal(manager)
            for batch in batches:
                feed.apply(batch)
            assert service.stats().traffic_updates == len(batches)
            report = service.recover(manager, feed)  # the live state: nothing to replay
        stats = service.stats()
        assert report.replayed == 0
        assert stats.traffic_updates == len(batches)
        assert stats.cost_version == report.recovered_version == network.cost_version

        restarted = grid_city_network(rows=4, cols=4, seed=1)
        fresh, fresh_feed = self._fed_service(restarted)
        with DurabilityManager(tmp_path) as manager:
            report = fresh.recover(manager, fresh_feed)  # each replayed batch counts once
        stats = fresh.stats()
        assert report.replayed == len(batches)
        assert stats.traffic_updates == len(batches)
        assert stats.cost_version == report.recovered_version == network.cost_version


# --------------------------------------------------------------------------- #
# Property tests: compiled == fresh dict search after randomized updates
# --------------------------------------------------------------------------- #
@st.composite
def traffic_networks(draw) -> RoadNetwork:
    """Small random directed networks with mixed road types (see
    test_compiled_graph.py); disconnected pairs are part of the contract."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=2, max_value=10))
    density = draw(st.floats(min_value=0.15, max_value=0.6))
    rng = random.Random(seed)
    network = RoadNetwork(name=f"traffic-random-{seed}")
    for i in range(n):
        network.add_vertex(i, lon=10.0 + rng.random() * 0.1, lat=56.0 + rng.random() * 0.1)
    road_types = list(RoadType)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                network.add_edge(u, v, road_type=rng.choice(road_types))
    return network


def _random_updates(network: RoadNetwork, rng: random.Random, count: int) -> list[TrafficUpdate]:
    keys = sorted(edge.key for edge in network.edges())
    updates = []
    for _ in range(count):
        source, target = rng.choice(keys)
        attribute = rng.choice(EDGE_COST_ATTRIBUTES)
        kind = rng.randrange(3)
        if kind == 0:
            updates.append(
                TrafficUpdate.set(source, target, **{attribute: rng.uniform(0.5, 5_000.0)})
            )
        elif kind == 1:
            updates.append(
                TrafficUpdate.scale_by(source, target, **{attribute: rng.uniform(0.2, 8.0)})
            )
        else:
            updates.append(
                TrafficUpdate.shift(source, target, **{attribute: rng.uniform(0.1, 500.0)})
            )
    return updates


TRAFFIC_SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestCompiledEqualsFreshDictAfterUpdates:
    """Acceptance: randomized update sequences keep compiled == dict."""

    @TRAFFIC_SETTINGS
    @given(
        traffic_networks(),
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=1, max_value=25),
    )
    def test_dijkstra_all_features_after_updates(self, network, seed, n_updates):
        if network.edge_count == 0:
            return
        rng = random.Random(seed)
        view = network.compiled()
        feed = TrafficFeed(network)
        for update in _random_updates(network, rng, n_updates):
            feed.apply([update])
        assert network.compiled() is view  # never rebuilt
        assert view.costs.version == network.cost_version

        ids = sorted(network.vertex_ids())
        pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(5)]
        for feature in (CostFeature.DISTANCE, CostFeature.TRAVEL_TIME, CostFeature.FUEL):
            cost = cost_function(feature)
            for source, destination in pairs:
                try:
                    compiled_path = dijkstra(network, source, destination, cost).vertices
                except NoPathError:
                    compiled_path = "no-path"
                try:
                    dict_path = dict_dijkstra(network, source, destination, cost).vertices
                except NoPathError:
                    dict_path = "no-path"
                assert compiled_path == dict_path

    @TRAFFIC_SETTINGS
    @given(
        traffic_networks(),
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=1, max_value=15),
    )
    def test_other_kernels_after_batched_updates(self, network, seed, n_updates):
        if network.edge_count == 0:
            return
        rng = random.Random(seed)
        feed = TrafficFeed(network)
        updates = _random_updates(network, rng, n_updates)
        # Apply as one transactional batch (composition exercised too).
        feed.apply(updates)

        ids = sorted(network.vertex_ids())
        source, destination = rng.choice(ids), rng.choice(ids)
        cost = cost_function(CostFeature.TRAVEL_TIME)
        blend = weighted_cost(
            {CostFeature.TRAVEL_TIME: 0.7, CostFeature.DISTANCE: 0.2, CostFeature.FUEL: 0.1}
        )

        def paths(fn_compiled, fn_dict):
            try:
                compiled_path = fn_compiled().vertices
            except NoPathError:
                compiled_path = "no-path"
            try:
                dict_path = fn_dict().vertices
            except NoPathError:
                dict_path = "no-path"
            return compiled_path, dict_path

        compiled_path, dict_path = paths(
            lambda: dijkstra(network, source, destination, cost),
            lambda: dict_dijkstra(network, source, destination, cost),
        )
        assert compiled_path == dict_path

        compiled_path, dict_path = paths(
            lambda: dijkstra(network, source, destination, blend),
            lambda: dict_dijkstra(network, source, destination, blend),
        )
        assert compiled_path == dict_path

        if source != destination:
            preference = PreferenceVector(master=CostFeature.TRAVEL_TIME, slave=MAJOR_ROADS)
            compiled_path, dict_path = paths(
                lambda: preference_dijkstra(network, source, destination, preference),
                lambda: dict_preference_search(network, source, destination, preference),
            )
            assert compiled_path == dict_path
