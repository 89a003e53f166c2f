"""The runtime coherence sanitizer (:mod:`repro.analysis.sanitizer`).

Covers both probes with a deliberately engineered violation each — a
version-0 cost artifact replayed after a live-traffic patch, and a stale
frozen hierarchy answering under ``on_stale="ignore"`` — plus the negative
property that matters most in practice: a well-behaved
:class:`~repro.service.RoutingService` route → update → route cycle records
**zero** findings, and the probes come off cleanly afterwards.
"""

from __future__ import annotations

import pytest

from repro.analysis import CoherenceViolation, sanitize
from repro.network import grid_city_network
from repro.network.compiled.graph import CostStore
from repro.routing import (
    ContractionHierarchy,
    CostFeature,
    build_contraction_hierarchy,
    ch_shortest_path,
)
from repro.baselines import FastestBaseline
from repro.service import RouteRequest, RoutingService
from repro.traffic import TrafficFeed, TrafficUpdate


def _bump_cost(network, factor: float = 3.0) -> None:
    """Patch one edge's travel time, bumping the cost version by one."""
    edge = next(network.edges())
    network.update_edge_costs(
        {(edge.source, edge.target): {"travel_time_s": edge.travel_time_s * factor}}
    )


class TestCostStoreProbe:
    def _stale_replay(self, sanitizer_kwargs=None):
        """Cache a weight list at version 0, patch costs, replay version 0."""
        network = grid_city_network(rows=4, cols=4, seed=1)
        store = network.compiled().costs
        key = ("attr", "travel_time_s")
        array = store.array("travel_time_s")
        stale_stamp = store.version
        store.reverse_weights(key, array, version=stale_stamp)
        _bump_cost(network)
        assert store.version == stale_stamp + 1
        with sanitize(**(sanitizer_kwargs or {})) as sanitizer:
            # The entry's stamp matches the caller's claimed version, so the
            # real lookup serves it as a hit — an artifact from before the
            # patch answering after it.  This is what the probe exists for.
            store.reverse_weights(key, array, version=stale_stamp)
        return sanitizer, stale_stamp

    def test_detects_deliberate_stale_cache_hit(self):
        sanitizer, stale_stamp = self._stale_replay()
        assert not sanitizer.ok
        (finding,) = sanitizer.findings
        assert finding.kind == "stale-cost-cache-hit"
        assert finding.stamp == stale_stamp
        assert finding.live_version == stale_stamp + 1
        assert "travel_time_s" in finding.detail
        assert str(stale_stamp) in finding.describe()

    def test_assert_clean_raises_on_findings(self):
        sanitizer, _ = self._stale_replay()
        with pytest.raises(CoherenceViolation) as excinfo:
            sanitizer.assert_clean()
        assert excinfo.value.finding is sanitizer.findings[0]

    def test_strict_mode_raises_at_the_stale_hit(self):
        with pytest.raises(CoherenceViolation):
            self._stale_replay(sanitizer_kwargs={"strict": True})

    def test_current_version_hits_are_not_flagged(self):
        network = grid_city_network(rows=4, cols=4, seed=2)
        store = network.compiled().costs
        key = ("attr", "travel_time_s")
        array = store.array("travel_time_s")
        with sanitize() as sanitizer:
            first = store.reverse_weights(key, array, version=store.version)
            again = store.reverse_weights(key, array, version=store.version)
        assert again == first
        sanitizer.assert_clean()

    def test_topology_stamped_memo_hits_are_not_flagged(self):
        network = grid_city_network(rows=4, cols=4, seed=3)
        store = network.compiled().costs
        store.memo("topo-artifact", lambda: object(), cost_dependent=False)
        _bump_cost(network)
        with sanitize() as sanitizer:
            # Topology-only artifacts never expire; replaying one after a
            # cost patch is correct and must stay silent.
            store.memo("topo-artifact", lambda: object(), cost_dependent=False)
        sanitizer.assert_clean()


class TestHierarchyProbe:
    def test_detects_ignored_stale_hierarchy_query(self):
        network = grid_city_network(rows=5, cols=5, seed=4)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        ch_shortest_path(network, ids[0], ids[-1], hierarchy)  # warm compiled arcs
        _bump_cost(network)
        assert hierarchy.is_stale(network)
        with sanitize() as sanitizer:
            ch_shortest_path(network, ids[0], ids[-1], hierarchy, on_stale="ignore")
        kinds = [finding.kind for finding in sanitizer.findings]
        assert "stale-hierarchy-query" in kinds
        finding = sanitizer.findings[kinds.index("stale-hierarchy-query")]
        assert finding.stamp == hierarchy.built_version
        assert finding.live_version == network.version

    def test_rebuild_mode_stays_clean(self):
        network = grid_city_network(rows=5, cols=5, seed=5)
        hierarchy = build_contraction_hierarchy(network, CostFeature.TRAVEL_TIME)
        ids = sorted(network.vertex_ids())
        _bump_cost(network)
        with sanitize() as sanitizer:
            ch_shortest_path(network, ids[0], ids[-1], hierarchy, on_stale="rebuild")
        sanitizer.assert_clean()
        assert not hierarchy.is_stale(network)


class TestCleanServiceCycle:
    def test_route_update_route_records_nothing(self):
        network = grid_city_network(rows=6, cols=6, seed=9)
        service = RoutingService()
        service.register("Fastest", FastestBaseline(network).as_engine(), default=True)
        feed = TrafficFeed(network, services=[service])
        try:
            with sanitize() as sanitizer:
                first = service.route(RouteRequest(source=0, destination=35))
                assert first.ok
                assert service.route(RouteRequest(source=0, destination=35)).cache_hit
                hops = zip(first.path.vertices, first.path.vertices[1:])
                feed.apply([TrafficUpdate.scale_by(u, v, travel_time_s=50.0) for u, v in hops])
                second = service.route(RouteRequest(source=0, destination=35))
                assert second.ok and not second.cache_hit
                third = service.route(RouteRequest(source=1, destination=34))
                assert third.ok
            sanitizer.assert_clean()
        finally:
            service.close()


class TestProbeLifecycle:
    def test_probes_installed_and_restored(self):
        original_cached = CostStore._cached
        original_query = ContractionHierarchy.shortest_path
        with sanitize():
            assert CostStore._cached is not original_cached
            assert ContractionHierarchy.shortest_path is not original_query
            assert CostStore._cached.__wrapped__ is original_cached
            assert ContractionHierarchy.shortest_path.__wrapped__ is original_query
        assert CostStore._cached is original_cached
        assert ContractionHierarchy.shortest_path is original_query

    def test_probes_restored_on_error(self):
        original_cached = CostStore._cached
        original_query = ContractionHierarchy.shortest_path
        with pytest.raises(RuntimeError, match="boom"):
            with sanitize():
                raise RuntimeError("boom")
        assert CostStore._cached is original_cached
        assert ContractionHierarchy.shortest_path is original_query

    def test_nested_contexts_unwind_in_order(self):
        original_cached = CostStore._cached
        with sanitize() as outer:
            with sanitize() as inner:
                pass
            assert CostStore._cached is not original_cached  # outer still armed
            assert outer is not inner
        assert CostStore._cached is original_cached
