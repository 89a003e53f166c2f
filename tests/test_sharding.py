"""Sharded multi-process serving (:mod:`repro.service.sharding`).

Three layers:

* **plan** — every vertex lands in exactly one shard, boundary vertices are
  exactly the endpoints of cut edges, sub-networks are faithful induced
  copies;
* **overlay and worker** — the boundary overlay matches the reference,
  stitched paths are walkable, and a worker's resync / segment-patch
  protocol never stamps a version whose values it has not read;
* **service** — the refused options, the coordinator-side error paths, and
  a closed deployment.

Cost identity of the running deployment — through traffic, worker kills,
partitions and coordinator recovery — is checked by the model-based oracle
in ``tests/test_oracle.py``; stitched costs on random directed grids by
``tests/test_overlay_tables.py``.
"""

from __future__ import annotations

import functools
import gc
import math
import pickle
import random
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, NetworkError, ShardingError
from repro.datasets.synthetic import d2_like_scenario
from repro.network import RoadNetwork, grid_city_network
from repro.network.generators import country_network
from repro.network.compiled import shm
from repro.network.compiled.graph import EDGE_COST_ATTRIBUTES
from repro.routing import CostFeature, cost_function, dijkstra
from repro.service import (
    RouteRequest,
    ShardedRoutingService,
    build_shard_plan,
)
from repro.service.sharding import (
    BoundaryOverlay,
    CostDiff,
    CrossShardRouter,
    ShardWorker,
    WorkerPayload,
)
from repro.service.durability import final_state, states_identical
from repro.service.sharding.overlay import path_cost
from repro.traffic import TrafficFeed
from repro.traffic.updates import TrafficUpdate

ALL_FEATURES = (CostFeature.DISTANCE, CostFeature.TRAVEL_TIME, CostFeature.FUEL)


@functools.lru_cache(maxsize=None)
def _named_network(name: str) -> RoadNetwork:
    """The fixed networks of the plan tests (read-only there), built once."""
    if name == "grid60":
        return grid_city_network(60, 60, seed=5)  # the sharded_tcp benchmark's city
    if name == "country":
        return country_network()
    return d2_like_scenario(0.25, 7).network


def _reference_cost(network, source, destination, feature) -> float:
    try:
        path = dijkstra(network, source, destination, cost_function(feature))
    except Exception:
        return math.inf
    return path_cost(network, tuple(path), feature)


# -------------------------------------------------------------------- #
# Shard plans
# -------------------------------------------------------------------- #
class TestShardPlan:
    def test_partition_covers_every_vertex_exactly_once(self):
        network = grid_city_network(5, 5)
        plan = build_shard_plan(network, 3)
        seen = [v for shard in plan.shards for v in shard]
        assert sorted(seen) == sorted(network.vertex_ids())
        assert len(seen) == len(set(seen))
        assert plan.shard_count == 3

    def test_boundary_is_exactly_the_cut_edge_endpoints(self):
        network = grid_city_network(4, 6)
        plan = build_shard_plan(network, 2)
        endpoints = set()
        for source, target in plan.cut_edges:
            assert plan.shard_of(source) != plan.shard_of(target)
            endpoints.add(source)
            endpoints.add(target)
        assert plan.boundary_vertices == frozenset(endpoints)
        for shard_id, boundary in enumerate(plan.boundary):
            assert all(plan.shard_of(v) == shard_id for v in boundary)
            assert list(boundary) == sorted(boundary)

    def test_subnetwork_is_a_faithful_induced_copy(self):
        network = grid_city_network(4, 4)
        plan = build_shard_plan(network, 2)
        sub = plan.subnetwork(network, 0)
        members = set(plan.shards[0])
        assert set(sub.vertex_ids()) == members
        for edge in sub.edges():
            original = network.edge(edge.source, edge.target)
            assert edge.distance_m == original.distance_m
            assert edge.travel_time_s == original.travel_time_s
            assert edge.fuel_ml == original.fuel_ml
            assert edge.road_type == original.road_type
        expected = sum(
            1
            for e in network.edges()
            if e.source in members and e.target in members
        )
        assert sum(1 for _ in sub.edges()) == expected

    def test_unknown_vertex_has_no_shard(self):
        network = grid_city_network(3, 3)
        plan = build_shard_plan(network, 2)
        assert plan.shard_of(10_000) is None

    def test_infeasible_shard_count_is_refused(self):
        network = grid_city_network(2, 2)
        with pytest.raises(NetworkError):
            build_shard_plan(network, 5)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        network=st.one_of(
            st.builds(
                grid_city_network,
                st.integers(min_value=2, max_value=9),
                st.integers(min_value=3, max_value=9),
                seed=st.integers(min_value=0, max_value=50),
            ),
            st.sampled_from(["country", "city"]).map(_named_network),
        ),
        shard_count=st.integers(min_value=1, max_value=6),
    )
    def test_shards_are_a_balanced_deterministic_partition(self, network, shard_count):
        plan = build_shard_plan(network, shard_count)
        assert len(plan.shards) == plan.shard_count == shard_count
        seen = [v for shard in plan.shards for v in shard]
        assert sorted(seen) == sorted(network.vertex_ids())  # each exactly once
        sizes = [len(shard) for shard in plan.shards]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert all(type(v) is int for v in seen)  # not numpy integers: ids are pickled and hashed
        assert all(plan.assignment[v] == k for k, shard in enumerate(plan.shards) for v in shard)
        assert build_shard_plan(network, shard_count) == plan

    @pytest.mark.parametrize(
        "name, shard_count, most",
        [("grid60", 2, 130), ("grid60", 3, 210), ("grid60", 4, 250), ("country", 2, 10)],
    )
    def test_the_boundary_the_benchmark_pays_for_stays_small(self, name, shard_count, most):
        """Every boundary table, the all-pairs pass and every stitch block
        scale with |B|: a partitioner change that lengthens the cut shows
        here before it shows in ``sharded_tcp``."""
        plan = build_shard_plan(_named_network(name), shard_count)
        assert len(plan.boundary_vertices) <= most

    def test_equal_coordinates_are_split_by_vertex_id(self):
        stacked = RoadNetwork(name="stacked")
        for vertex in range(7):
            stacked.add_vertex(vertex, 104.0, 30.0)
        assert build_shard_plan(stacked, 3).shards == ((0, 1, 2), (3, 4), (5, 6))


# -------------------------------------------------------------------- #
# Boundary overlay
# -------------------------------------------------------------------- #
class TestBoundaryOverlay:
    def test_overlay_matrix_matches_reference(self):
        network = grid_city_network(4, 4)
        plan = build_shard_plan(network, 2)
        overlay = BoundaryOverlay(network, plan)
        assert set(overlay.order) == plan.boundary_vertices
        for feature in ALL_FEATURES:
            matrix = overlay.closure(feature).distances
            for source, row in zip(overlay.order, matrix):
                for target, value in zip(overlay.order, row):
                    expected = _reference_cost(network, source, target, feature)
                    assert math.isclose(
                        float(value), expected, rel_tol=1e-9
                    ) or (math.isinf(float(value)) and math.isinf(expected))

    def test_reconstructed_paths_are_walkable(self):
        network = grid_city_network(5, 4)
        plan = build_shard_plan(network, 3)
        router = CrossShardRouter(network, BoundaryOverlay(network, plan))
        rng = random.Random(11)
        vertices = sorted(network.vertex_ids())
        pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(12)]
        answers = router.route_pairs(pairs, CostFeature.DISTANCE)
        assert answers is not None
        for (source, destination), (path_vertices, _) in zip(pairs, answers):
            assert path_vertices is not None
            assert path_vertices[0] == source
            assert path_vertices[-1] == destination
            for a, b in zip(path_vertices, path_vertices[1:]):
                assert b in network.successors(a)


# -------------------------------------------------------------------- #
# Protocol plumbing
# -------------------------------------------------------------------- #
class TestProtocol:
    def test_cost_diff_as_updates(self):
        diff = CostDiff(
            version=3,
            base_version=2,
            changes=(
                ((1, 2), (("travel_time_s", 9.0), ("fuel_ml", 1.5))),
            ),
        )
        assert diff.as_updates() == {(1, 2): {"travel_time_s": 9.0, "fuel_ml": 1.5}}


# -------------------------------------------------------------------- #
# The worker's one catch-up path
# -------------------------------------------------------------------- #
class _PatchMidScan:
    """A segment view that lets the owner's next patch land exactly when the
    worker's copy moves on from the first cost array."""

    def __init__(self, view, land_patch):
        self._view = view
        self._land_patch = land_patch
        self._arrays_read = 0

    def cost_array(self, attr):
        self._arrays_read += 1
        if self._arrays_read == 2:
            self._land_patch()
        return self._view.cost_array(attr)

    def __getattr__(self, name):
        return getattr(self._view, name)


def _patched(network, segment, batch) -> CostDiff:
    """Apply ``batch`` on the owner's side — network, then segment — and
    return the broadcast that would follow."""
    graph = network.compiled()
    base = network.cost_version
    result = TrafficFeed(network).apply(batch)
    segment.patch(
        graph, [graph.topology.slot_of[key] for key in result.touched_edges], result.cost_version
    )
    attributes = segment.spec.cost_attributes
    return CostDiff(
        version=result.cost_version,
        base_version=base,
        changes=tuple(
            (key, tuple((attr, float(getattr(network.edge(*key), attr))) for attr in attributes))
            for key in sorted(result.touched_edges)
        ),
    )


def _booted_worker(network, segment, pickled=None) -> ShardWorker:
    worker = ShardWorker(
        WorkerPayload(
            worker_id=0, shard_id=0, plan=build_shard_plan(network, 2),
            network=pickle.loads(pickled or pickle.dumps(network)), spec=segment.spec,
        ),
        transport=None,
    )
    worker.boot()
    return worker


def _same_costs(left, right) -> bool:
    """Bit-identical cost arrays at the same cost version."""
    return states_identical(final_state(left), final_state(right))


def test_patch_landing_during_resync_is_not_stamped_as_seen():
    """The owner writes values, then the version.  A resync that stamps the
    version it reads *after* its copy claims a batch whose values the copy
    had already passed, and then drops that batch's diff as old."""
    network = grid_city_network(8, 8, seed=3)
    edges = sorted(e.key for e in network.edges())

    with shm.export_graph(network.compiled(), cost_version=network.cost_version) as segment:
        attributes = segment.spec.cost_attributes
        worker = _booted_worker(network, segment)
        try:
            # Batch 1 is missed outright; batch 2 lands mid-copy.
            _patched(network, segment, [TrafficUpdate.scale_by(*edges[0], travel_time_s=2.0)])
            landed = []
            worker.view = _PatchMidScan(
                worker.view,
                lambda: landed.append(_patched(
                    network, segment,
                    [TrafficUpdate.scale_by(*key, **{attributes[0]: 1.5}) for key in edges[1:5]],
                )),
            )
            worker.resync()
            worker.apply_diff(landed[0])  # the broadcast that follows the patch

            assert worker.version == network.cost_version == 2
            stale = [
                (key, attr)
                for key in edges
                for attr in attributes
                if getattr(worker.network.edge(*key), attr)
                != getattr(network.edge(*key), attr)
            ]
            assert stale == []
        finally:
            worker.close()


def test_boot_from_a_pickle_older_than_the_segment_lands_on_the_segment_state():
    network = grid_city_network(6, 6, seed=2)
    edges = sorted(e.key for e in network.edges())
    old_pickle = pickle.dumps(network)
    with shm.export_graph(network.compiled(), cost_version=0) as segment:
        _patched(network, segment, [TrafficUpdate.scale_by(*edges[0], travel_time_s=2.0)])
        _patched(network, segment, [TrafficUpdate.scale_by(*key, fuel_ml=0.5) for key in edges[3:9]])
        worker = _booted_worker(network, segment, old_pickle)
        try:
            assert worker.version == worker.network.cost_version == network.cost_version == 2
            assert _same_costs(worker.network, network)
            for key in edges:
                assert worker.network.edge(*key) == network.edge(*key)
        finally:
            worker.close()


def test_a_worker_handed_the_same_shape_under_other_vertex_ids_refuses_to_boot(
    relabelled_network,
):
    """Counts and CSR arrays agree, so only the stamp's vertex-id part can
    tell that the segment's slots belong to another network."""
    network = grid_city_network(6, 6, seed=2)
    relabelled = relabelled_network(network, offset=500)
    with shm.export_graph(network.compiled(), cost_version=0) as segment:
        with pytest.raises(NetworkError, match="does not match"):
            _booted_worker(relabelled, segment)


def test_a_segment_patch_is_invisible_to_a_worker_until_a_diff_or_a_resync():
    """A worker's state changes only when it handles a message: it serves
    from private arrays, never from views of what the owner patches."""
    network = grid_city_network(6, 6, seed=2)
    edges = sorted(e.key for e in network.edges())
    with shm.export_graph(network.compiled(), cost_version=0) as segment:
        worker = _booted_worker(network, segment)
        try:
            booted = final_state(worker.network)
            for attr in EDGE_COST_ATTRIBUTES:
                assert not np.shares_memory(
                    worker.network.compiled().array(attr), worker.view.cost_array(attr)
                )
            first = _patched(network, segment, [TrafficUpdate.scale_by(*edges[0], fuel_ml=3.0)])
            assert worker.view.cost_version == 1  # the segment moved ...
            assert states_identical(final_state(worker.network), booted)  # ... the worker did not
            assert worker.version == 0

            worker.apply_diff(first)
            assert worker.version == 1
            assert _same_costs(worker.network, network)

            _patched(network, segment, [TrafficUpdate.scale_by(*edges[1], distance_m=1.5)])
            assert not _same_costs(worker.network, network)
            worker.resync()
            assert worker.version == 2
            assert _same_costs(worker.network, network)
        finally:
            worker.close()


def test_a_resync_that_finds_nothing_changed_keeps_every_live_table():
    network = grid_city_network(8, 8, seed=3)
    with shm.export_graph(network.compiled(), cost_version=0) as segment:
        worker = _booted_worker(network, segment)
        try:
            overlay = worker.overlay
            live = [
                (shard_id, feature, reverse)
                for shard_id in range(2)
                for feature in ALL_FEATURES
                for reverse in (False, True)
            ]
            tables = [overlay.table(*key) for key in live]
            closures = [overlay.closure(feature) for feature in ALL_FEATURES]
            graph = worker.network.compiled()
            kept = graph.costs.export_arrays()

            worker.resync()

            assert all(overlay.table(*key) is table for key, table in zip(live, tables))
            assert all(
                overlay.closure(feature) is closure
                for feature, closure in zip(ALL_FEATURES, closures)
            )
            assert worker.network.compiled() is graph
            assert all(graph.array(attr) is array for attr, array in kept.items())
        finally:
            worker.close()


# -------------------------------------------------------------------- #
# The multi-process deployment (cost identity, traffic, worker kills and
# recovery are tests/test_oracle.py's)
# -------------------------------------------------------------------- #
class TestShardedService:
    def test_queue_transport_is_refused(self):
        """Sockets are the only wire; the removed option fails loudly,
        before any segment or worker exists."""
        network = grid_city_network(3, 3, seed=3)
        with pytest.raises(ConfigurationError, match="removed"):
            ShardedRoutingService(network, shard_count=2, transport="queue")

    def test_worker_answer_cache_is_refused(self):
        """Workers keep no answer cache: ``cache_size=0`` is the only value
        the constructor takes, refused before any segment or worker exists."""
        network = grid_city_network(3, 3, seed=3)
        with pytest.raises(ConfigurationError, match="no answer cache"):
            ShardedRoutingService(network, shard_count=2, cache_size=512)

    def test_a_closed_deployment_is_freed_by_reference_counting(self):
        """Nothing the service hands out points back at it, so a caller that
        builds deployments back to back (the benchmark's set-up repeats)
        does not hold every earlier network until a full collection."""
        service = ShardedRoutingService(grid_city_network(3, 3, seed=3), shard_count=2)
        service.close()
        freed = weakref.ref(service.coordinator.network)
        gc.disable()
        try:
            del service
            assert freed() is None
        finally:
            gc.enable()

    def test_error_paths_stay_coordinator_side_and_close_is_final(self):
        network = grid_city_network(3, 3, seed=3)
        with ShardedRoutingService(network, shard_count=2) as service:
            with pytest.raises(ConfigurationError):
                service.route_many([RouteRequest(0, 8)], engine="Teleporter")
            miss = service.route(RouteRequest(source=99_999, destination=0))
            assert miss.path is None and "VertexNotFoundError" in (miss.error or "")
        with pytest.raises(ShardingError):
            service.route(RouteRequest(0, 8))
        assert service.close()  # idempotent
