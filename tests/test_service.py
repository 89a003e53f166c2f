"""Tests for the routing service layer.

Covers the typed request/response objects, the engine protocol and adapters
(L2R plus all five baselines), the ``RoutingService`` facade (batching,
caching, fallback chains, stats), and model persistence round-trips.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DomBaseline,
    ExternalRoutingService,
    FastestBaseline,
    ShortestBaseline,
    TripBaseline,
)
from repro.core import LearnToRoute, RouteDiagnostics
from repro.exceptions import ConfigurationError, NoPathError, TransientEngineError
from repro.network import grid_city_network
from repro.network.compiled import dispatch
from repro.routing import CostFeature, Path, shortest_path
from repro.service import (
    AlgorithmEngine,
    FunctionEngine,
    L2REngine,
    ModelPersistenceError,
    RetryPolicy,
    RouteCache,
    RouteRequest,
    RouteResponse,
    RoutingEngine,
    RoutingService,
    load_model,
    save_model,
)


@pytest.fixture(scope="module")
def requests(tiny_split) -> list[RouteRequest]:
    return [
        RouteRequest(
            source=t.source,
            destination=t.destination,
            departure_time=t.departure_time,
            driver_id=t.driver_id,
            request_id=str(t.trajectory_id),
        )
        for t in tiny_split.test[:15]
    ]


@pytest.fixture(scope="module")
def all_engine_service(tiny, tiny_split, fitted_l2r) -> RoutingService:
    """A service with L2R and all five baselines registered."""
    network, train = tiny.network, tiny_split.train
    service = RoutingService()
    service.register("L2R", L2REngine(fitted_l2r), fallback="Fastest", default=True)
    service.register("Shortest", ShortestBaseline(network).as_engine())
    service.register("Fastest", FastestBaseline(network).as_engine())
    service.register("Dom", DomBaseline(network, train, max_trajectories_per_driver=2).as_engine())
    service.register("TRIP", TripBaseline(network, train).as_engine())
    service.register("Google", ExternalRoutingService(network).as_engine())
    return service


class TestRequestResponse:
    def test_request_is_frozen(self):
        request = RouteRequest(source=1, destination=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.source = 3  # type: ignore[misc]

    def test_response_is_frozen(self):
        response = RouteResponse(
            request=RouteRequest(source=1, destination=2), path=None, engine="x", error="boom"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            response.engine = "y"  # type: ignore[misc]
        assert not response.ok

    @staticmethod
    def _answer() -> RouteResponse:
        return RouteResponse(
            request=RouteRequest(source=1, destination=2),
            path=Path.of([1, 2]),
            engine="x",
            diagnostics=RouteDiagnostics(case="in-region"),
            latency_s=0.25,
        )

    def test_with_request_equals_dataclasses_replace(self):
        # The replay copies the instance dict instead of rerunning __init__;
        # that is only equivalent while __init__ does no extra work.
        assert not hasattr(RouteResponse, "__post_init__")
        answer = self._answer()
        other = RouteRequest(source=1, destination=2, request_id="caller")
        new_values = {
            "path": Path.of([1, 3, 2]),
            "engine": "y",
            "diagnostics": RouteDiagnostics(case="cost-override"),
            "latency_s": 0.0,
            "cache_hit": True,
            "fallback_used": True,
            "batched": True,
            "degraded": True,
            "retries": 3,
            "error": "boom",
        }
        names = {field.name for field in dataclasses.fields(RouteResponse)}
        assert set(new_values) == names - {"request"}  # a new field needs a value here
        expected = dataclasses.replace(answer, request=other)
        copy = answer.with_request(other)
        assert copy == expected and type(copy) is RouteResponse
        assert copy.request is other
        for name, value in new_values.items():
            copy = answer.with_request(other, **{name: value})
            assert copy == dataclasses.replace(answer, request=other, **{name: value})
            assert type(copy) is RouteResponse
            assert getattr(copy, name) is value
        assert answer == self._answer()  # the source object is never written

    def test_with_request_rejects_unknown_fields(self):
        answer = self._answer()
        with pytest.raises(TypeError):
            dataclasses.replace(answer, colour="red")  # the behaviour kept
        with pytest.raises(TypeError, match="colour"):
            answer.with_request(answer.request, colour="red")
        with pytest.raises(TypeError):
            answer.with_request(answer.request, cache_hit=True, colour="red")

    def test_with_request_copy_is_frozen(self):
        copy = self._answer().with_request(RouteRequest(source=1, destination=2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.engine = "y"  # type: ignore[misc]
        assert hash(copy) == hash(dataclasses.replace(copy))

    def test_departure_time_recorded_even_when_model_ignores_it(self, fitted_l2r):
        # The requested time does not change the path, but the response still
        # records it.
        engine = L2REngine(fitted_l2r)
        request = RouteRequest(source=0, destination=5, departure_time=8 * 3600.0)
        response = engine.route(request)
        assert response.request.departure_time == 8 * 3600.0

    def test_request_id_echoed(self, all_engine_service):
        response = all_engine_service.route(
            RouteRequest(source=0, destination=5, request_id="req-42")
        )
        assert response.request.request_id == "req-42"


class TestEngines:
    def test_all_seven_engines_answer_batches(self, all_engine_service, requests, tiny):
        for name in all_engine_service._engines:
            responses = all_engine_service.route_many(requests, engine=name)
            assert len(responses) == len(requests)
            for request, response in zip(requests, responses):
                assert response.ok, f"{name} failed: {response.error}"
                assert response.path.source == request.source
                assert response.path.destination == request.destination
                assert response.path.is_valid(tiny.network)
                assert response.latency_s >= 0.0

    def test_engine_protocol_runtime_checkable(self, tiny, fitted_l2r):
        assert isinstance(L2REngine(fitted_l2r), RoutingEngine)
        assert isinstance(ShortestBaseline(tiny.network).as_engine(), RoutingEngine)

    def test_as_engine_keeps_algorithm_name(self, tiny):
        engine = ShortestBaseline(tiny.network).as_engine()
        assert engine.name == "Shortest"
        assert AlgorithmEngine(ShortestBaseline(tiny.network), name="alias").name == "alias"

    def test_l2r_engine_reports_diagnostics(self, all_engine_service, requests):
        response = all_engine_service.route(requests[0], engine="L2R")
        assert response.diagnostics is not None or response.cache_hit

    def test_cost_override_routes_single_cost_optimal(self, tiny, all_engine_service, requests):
        request = dataclasses.replace(requests[0], cost_override=CostFeature.DISTANCE)
        response = all_engine_service.route(request, engine="L2R")
        expected = shortest_path(tiny.network, request.source, request.destination)
        assert response.ok
        assert response.path.distance_m(tiny.network) == pytest.approx(
            expected.distance_m(tiny.network)
        )

    def test_engine_converts_failures_to_error_responses(self, tiny):
        engine = FastestBaseline(tiny.network).as_engine()
        response = engine.route(RouteRequest(source=0, destination=999_999))
        assert not response.ok
        assert response.error is not None
        assert response.path is None


class TestRoutingService:
    def test_route_without_engines_raises(self):
        with pytest.raises(ConfigurationError):
            RoutingService().route(RouteRequest(source=0, destination=1))

    def test_unknown_engine_rejected(self, all_engine_service, requests):
        with pytest.raises(ConfigurationError):
            all_engine_service.route(requests[0], engine="nope")

    def test_default_engine_is_first_registered(self, all_engine_service, requests):
        assert all_engine_service.route(requests[0]).engine == "L2R"

    def test_route_many_preserves_order(self, all_engine_service, requests):
        responses = all_engine_service.route_many(requests, engine="Shortest")
        for request, response in zip(requests, responses):
            assert response.request.source == request.source
            assert response.request.destination == request.destination

    def test_route_many_isolates_partial_failures(self, tiny, fitted_l2r):
        service = RoutingService()
        service.register("L2R", L2REngine(fitted_l2r))
        good = RouteRequest(source=0, destination=5)
        bad = RouteRequest(source=0, destination=777_777)
        responses = service.route_many([good, bad, good])
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok
        assert responses[1].error

    def test_cache_hit_flagged_and_counted(self, tiny, fitted_l2r, requests):
        service = RoutingService(cache_size=64)
        service.register("L2R", L2REngine(fitted_l2r))
        first = service.route(requests[0])
        again = service.route(requests[0])
        assert not first.cache_hit
        assert again.cache_hit
        assert again.path.vertices == first.path.vertices
        stats = service.stats()
        assert stats.cache.hits == 1
        assert stats.cache.misses == 1
        assert stats.cache_hit_rate == pytest.approx(0.5)

    def test_cache_disabled_service_never_reports_hits(self, tiny, fitted_l2r, requests):
        service = RoutingService(enable_cache=False)
        service.register("L2R", L2REngine(fitted_l2r))
        service.route(requests[0])
        response = service.route(requests[0])
        assert not response.cache_hit
        assert service.stats().cache.hits == 0

    def test_cache_does_not_mix_engines_or_drivers(self, tiny, fitted_l2r):
        cache = RouteCache(max_size=8)
        base = RouteRequest(source=0, destination=5)
        assert cache.key_for("a", base) != cache.key_for("b", base)
        assert cache.key_for("a", base) != cache.key_for(
            "a", dataclasses.replace(base, driver_id=7)
        )

    def test_cache_peak_bucket_separates_times_for_time_dependent_engines(self):
        # The cache key has no time bucket: no engine's answer depends on the
        # departure time, so every time of one OD pair shares one cache line.
        cache = RouteCache(max_size=8)
        untimed = RouteRequest(source=0, destination=5)
        morning = dataclasses.replace(untimed, departure_time=8 * 3600.0)
        noon = dataclasses.replace(untimed, departure_time=12 * 3600.0)
        for engine in ("e", "static"):
            assert cache.key_for(engine, morning) == cache.key_for(engine, noon)
            assert cache.key_for(engine, morning) == cache.key_for(engine, untimed)
        cache.put("e", RouteResponse(request=morning, path=Path.of([0, 5]), engine="e"))
        replay = cache.get("e", noon)
        assert replay is not None and replay.path == Path.of([0, 5])

    def test_cache_lru_eviction(self):
        cache = RouteCache(max_size=2)
        for destination in (10, 11, 12):
            request = RouteRequest(source=0, destination=destination)
            cache.put(
                "e",
                RouteResponse(request=request, path=Path.of([0, destination]), engine="e"),
            )
        assert cache.stats().size == 2
        assert cache.get("e", RouteRequest(source=0, destination=10)) is None

    def test_fallback_chain_answers_on_engine_failure(self, tiny):
        def always_fails(source, destination):
            raise NoPathError(source, destination, "synthetic failure")

        service = RoutingService()
        service.register(
            "broken", FunctionEngine(tiny.network, always_fails, name="broken"), fallback="Fastest"
        )
        service.register("Fastest", FastestBaseline(tiny.network).as_engine())
        response = service.route(RouteRequest(source=0, destination=9), engine="broken")
        assert response.ok
        assert response.engine == "Fastest"
        assert response.fallback_used
        assert service.stats().fallbacks == 1

    def test_unregistered_fallback_name_is_skipped(self, tiny):
        def always_fails(source, destination):
            raise NoPathError(source, destination)

        service = RoutingService()
        service.register(
            "broken", FunctionEngine(tiny.network, always_fails, name="broken"), fallback="typo"
        )
        response = service.route(RouteRequest(source=0, destination=9), engine="broken")
        assert not response.ok  # error response, not a KeyError crash
        assert "'typo' is not registered" in response.error  # typo surfaced
        responses = service.route_many([RouteRequest(source=0, destination=9)] * 3)
        assert all(not r.ok for r in responses)

    def test_reregistering_engine_invalidates_its_cache(self, tiny, fitted_l2r):
        service = RoutingService()
        service.register("E", FunctionEngine(tiny.network, lambda s, d: Path.of([s, d]), name="A"))
        request = RouteRequest(source=0, destination=1)
        first = service.route(request)
        assert first.engine == "E"  # responses carry the registry name
        assert first.path.vertices == (0, 1)
        service.register(
            "E", FunctionEngine(tiny.network, lambda s, d: Path.of([s, 2, d]), name="B")
        )
        replaced = service.route(request)
        assert not replaced.cache_hit
        assert replaced.path.vertices == (0, 2, 1)

    def test_reregistering_fallback_engine_drops_answers_served_through_it(self, tiny):
        def boom(source, destination):
            raise NoPathError(source, destination)

        service = RoutingService()
        service.register("A", FunctionEngine(tiny.network, boom, name="A"), fallback="B")
        service.register("B", FunctionEngine(tiny.network, lambda s, d: Path.of([s, d]), name="B"))
        request = RouteRequest(source=0, destination=1)
        first = service.route(request, engine="A")  # answered by B, cached under A's key
        assert first.engine == "B" and first.fallback_used
        service.register(
            "B", FunctionEngine(tiny.network, lambda s, d: Path.of([s, 2, d]), name="B")
        )
        replayed = service.route(request, engine="A")
        assert not replayed.cache_hit  # the old B's answer is gone
        assert replayed.path.vertices == (0, 2, 1)

    def test_raising_protocol_engine_yields_error_slot_in_batch(self, tiny):
        class Raising:
            name = "Raising"

            def route(self, request):
                raise NoPathError(request.source, request.destination, "synthetic")

        service = RoutingService()
        service.register("Raising", Raising())
        service.register("Fastest", FastestBaseline(tiny.network).as_engine())
        responses = service.route_many(
            [RouteRequest(source=0, destination=9)] * 2, engine="Raising"
        )
        assert all(not r.ok and r.error for r in responses)
        # With a fallback the raising engine still gets answered.
        service.register("Raising", service.engine("Raising"), fallback="Fastest")
        rescued = service.route(RouteRequest(source=0, destination=9), engine="Raising")
        assert rescued.ok and rescued.fallback_used

    def test_reregistration_invalidates_by_internal_engine_name(self, tiny):
        def boom(source, destination):
            raise NoPathError(source, destination)

        service = RoutingService()
        service.register("A", FunctionEngine(tiny.network, boom, name="A"), fallback="fast")
        # Registry name "fast" differs from the engine's internal name.
        service.register(
            "fast", FunctionEngine(tiny.network, lambda s, d: Path.of([s, d]), name="Internal")
        )
        request = RouteRequest(source=0, destination=1)
        first = service.route(request, engine="A")
        assert first.engine == "fast"  # registry name, not the internal one
        service.register(
            "fast", FunctionEngine(tiny.network, lambda s, d: Path.of([s, 2, d]), name="Internal")
        )
        replayed = service.route(request, engine="A")
        assert not replayed.cache_hit
        assert replayed.path.vertices == (0, 2, 1)

    def test_latency_samples_are_a_ring_buffer(self, monkeypatch):
        from repro.service import StatsAccumulator, stats
        from repro.service.cache import CacheStats

        monkeypatch.setattr(stats, "MAX_LATENCY_SAMPLES", 4)
        accumulator = StatsAccumulator()
        for latency in (0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0):
            accumulator.record(
                RouteResponse(
                    request=RouteRequest(source=0, destination=1),
                    path=Path.of([0, 1]),
                    engine="e",
                    latency_s=latency,
                )
            )
        stats = accumulator.snapshot(CacheStats(0, 0, 0, 0))
        # The window holds the most recent samples, not the startup ones.
        assert stats.latency_p50_s == pytest.approx(1.0)
        assert stats.latency_mean_s == pytest.approx(1.0)

    def test_fallback_cycles_terminate(self, tiny):
        def always_fails(source, destination):
            raise NoPathError(source, destination)

        service = RoutingService()
        service.register("a", FunctionEngine(tiny.network, always_fails, name="a"), fallback="b")
        service.register("b", FunctionEngine(tiny.network, always_fails, name="b"), fallback="a")
        response = service.route(RouteRequest(source=0, destination=9), engine="a")
        assert not response.ok

    def test_aliases_of_same_engine_name_are_tracked_separately(self, tiny, fitted_l2r):
        service = RoutingService()
        service.register("l2r-v1", L2REngine(fitted_l2r))
        service.register("l2r-v2", L2REngine(fitted_l2r))  # same internal name "L2R"
        request = RouteRequest(source=0, destination=5)
        assert service.route(request, engine="l2r-v1").engine == "l2r-v1"
        assert service.route(request, engine="l2r-v2").engine == "l2r-v2"
        stats = service.stats()
        assert stats.requests_by_engine == {"l2r-v1": 1, "l2r-v2": 1}
        # Re-registering one alias drops every cache line, the other alias's
        # too, and keeps the cache counters.
        before = service.stats().cache
        service.register("l2r-v1", L2REngine(fitted_l2r))
        assert service.stats().cache.size == 0
        assert not service.route(request, engine="l2r-v2").cache_hit
        after = service.stats().cache
        assert (after.hits, after.misses) == (before.hits, before.misses + 1)

    def test_close_is_idempotent_and_leaves_the_service_usable(self, fitted_l2r, requests):
        service = RoutingService(enable_cache=False)
        service.register("L2R", L2REngine(fitted_l2r))
        assert all(response.ok for response in service.route_many(requests))
        assert service.close() and service.close()
        assert all(response.ok for response in service.route_many(requests[:3]))

    def test_exhausted_chain_reports_requested_engines_error(self, tiny):
        def boom_a(source, destination):
            raise NoPathError(source, destination, "primary failure detail")

        def boom_b(source, destination):
            raise NoPathError(source, destination, "fallback failure")

        service = RoutingService()
        service.register("A", FunctionEngine(tiny.network, boom_a, name="A"), fallback="B")
        service.register("B", FunctionEngine(tiny.network, boom_b, name="B"))
        response = service.route(RouteRequest(source=0, destination=9), engine="A")
        assert not response.ok
        assert response.engine == "A"
        assert "primary failure detail" in response.error
        assert not response.fallback_used

    def test_fallback_serves_from_fallback_engines_cache(self, tiny):
        calls = {"n": 0}

        def counting_fast(source, destination):
            calls["n"] += 1
            return Path.of([source, destination])

        def boom(source, destination):
            raise NoPathError(source, destination)

        service = RoutingService()
        service.register("fast", FunctionEngine(tiny.network, counting_fast, name="fast"))
        service.register("A", FunctionEngine(tiny.network, boom, name="A"), fallback="fast")
        request = RouteRequest(source=0, destination=1)
        service.route(request, engine="fast")  # warm fast's own cache line
        assert calls["n"] == 1
        rescued = service.route(request, engine="A")
        assert rescued.ok and rescued.fallback_used and rescued.cache_hit
        assert calls["n"] == 1  # served from the fallback's cache, not recomputed
        # One outcome per logical request: the probe hit reclassified the
        # primary miss, leaving 1 miss (first route) and 1 hit (second).
        stats = service.stats()
        assert stats.cache.misses == 1
        assert stats.cache.hits == 1
        assert stats.fallbacks == 1

    def test_reregistering_fallback_engine_mid_flight_is_not_cached(self, tiny):
        import threading

        started = threading.Event()
        release = threading.Event()

        def boom(source, destination):
            raise NoPathError(source, destination)

        def slow_old_b(source, destination):
            started.set()
            assert release.wait(timeout=5)
            return Path.of([source, destination])

        service = RoutingService()
        service.register("A", FunctionEngine(tiny.network, boom, name="A"), fallback="B")
        service.register("B", FunctionEngine(tiny.network, slow_old_b, name="B"))
        request = RouteRequest(source=0, destination=1)
        worker = threading.Thread(target=lambda: service.route(request, engine="A"))
        worker.start()
        assert started.wait(timeout=5)  # old B is mid-flight via A's chain
        service.register(
            "B", FunctionEngine(tiny.network, lambda s, d: Path.of([s, 2, d]), name="B")
        )
        release.set()
        worker.join(timeout=5)
        follow = service.route(request, engine="A")
        assert not follow.cache_hit  # the in-flight old-B answer was vetoed
        assert follow.path.vertices == (0, 2, 1)

    def test_fallback_probe_does_not_inflate_miss_count(self, tiny):
        def boom(source, destination):
            raise NoPathError(source, destination)

        service = RoutingService()
        service.register("A", FunctionEngine(tiny.network, boom, name="A"), fallback="B")
        service.register("B", FunctionEngine(tiny.network, lambda s, d: Path.of([s, d]), name="B"))
        service.route(RouteRequest(source=0, destination=1), engine="A")
        stats = service.stats()
        assert stats.cache.misses == 1  # one logical request, one miss

    def test_cache_replays_do_not_inflate_fallback_count(self, tiny):
        def boom(source, destination):
            raise NoPathError(source, destination)

        service = RoutingService()
        service.register("A", FunctionEngine(tiny.network, boom, name="A"), fallback="B")
        service.register("B", FunctionEngine(tiny.network, lambda s, d: Path.of([s, d]), name="B"))
        request = RouteRequest(source=0, destination=1)
        for _ in range(5):
            service.route(request, engine="A")
        stats = service.stats()
        assert stats.fallbacks == 1  # the chain ran once; 4 cache replays
        assert stats.cache.hits == 4

    def test_cache_replays_do_not_inflate_retry_count(self, tiny):
        calls = []

        def flaky(source, destination):
            calls.append((source, destination))
            if len(calls) == 1:
                raise TransientEngineError("first call fails")
            return Path.of([source, destination])

        service = RoutingService(retry_policy=RetryPolicy(max_retries=2, base_delay_s=0.0))
        service.register("A", FunctionEngine(tiny.network, flaky, name="A"))
        request = RouteRequest(source=0, destination=1)
        first = service.route(request)
        assert first.ok and first.retries == 1
        replays = [service.route(request) for _ in range(5)]
        assert len(calls) == 2  # one miss with one retry; 5 cache replays
        assert all(r.cache_hit and r.retries == 0 for r in replays)
        assert service.stats().retries == 1

    def test_degraded_replays_report_the_failing_calls_retries(self, tiny):
        calls = []

        def fails_once_then_dies(source, destination):
            calls.append((source, destination))
            if len(calls) == 2:
                return Path.of([source, destination])
            raise TransientEngineError(f"call {len(calls)} fails")

        service = RoutingService(
            enable_cache=False, retry_policy=RetryPolicy(max_retries=2, base_delay_s=0.0)
        )
        service.register("A", FunctionEngine(tiny.network, fails_once_then_dies, name="A"))
        request = RouteRequest(source=0, destination=1)
        first = service.route(request)
        assert first.ok and first.retries == 1 and not first.degraded
        degraded = service.route(request)
        assert len(calls) == 5  # 2 attempts, then 3 that all fail
        assert degraded.degraded and degraded.retries == 2 and not degraded.batched
        assert service.stats().retries == 3

    def test_cache_hit_is_a_replay_of_the_entry(self, fitted_l2r, requests):
        service = RoutingService()
        service.register("L2R", L2REngine(fitted_l2r))
        first = service.route(requests[0])  # the object the cache now holds
        entry = dataclasses.replace(first)
        caller = dataclasses.replace(requests[0], request_id="caller", departure_time=60.0)
        hit = service.route(caller)
        assert hit.request is caller
        assert hit.cache_hit and hit.latency_s == 0.0
        assert first.diagnostics is not None
        assert hit.path is first.path and hit.diagnostics is first.diagnostics
        assert first == entry

    def test_cache_replay_leaves_the_cached_entry_unchanged(self):
        cache = RouteCache(max_size=4)
        stored = RouteResponse(
            request=RouteRequest(source=1, destination=2, request_id="stored"),
            path=Path.of([1, 2]),
            engine="A",
            latency_s=0.5,
            fallback_used=True,
            batched=True,
            retries=2,
        )
        snapshot = dataclasses.replace(stored)
        cache.put("A", stored)
        caller = RouteRequest(source=1, destination=2, request_id="caller")
        hit = cache.get("A", caller)
        assert hit is not stored and hit.request is caller
        assert hit == dataclasses.replace(
            stored,
            request=caller,
            cache_hit=True,
            latency_s=0.0,
            fallback_used=False,
            batched=False,
            retries=0,
        )
        assert stored == snapshot and stored.request.request_id == "stored"
        assert cache.get("A", caller) == hit

    def test_unregistered_engine_moves_no_cache_counter(self, tiny):
        service = RoutingService()
        service.register("A", FunctionEngine(tiny.network, lambda s, d: Path.of([s, d]), name="A"))
        request = RouteRequest(source=0, destination=1)
        service.route(request)
        service.route(request)
        before = service.stats().cache
        with pytest.raises(ConfigurationError):
            service.route(request, engine="B")
        assert service.stats().cache == before
        assert (before.hits, before.misses) == (1, 1)

    def test_stats_snapshot(self, tiny, fitted_l2r, requests):
        service = RoutingService()
        service.register("L2R", L2REngine(fitted_l2r))
        service.register("Fastest", FastestBaseline(tiny.network).as_engine())
        service.route_many(requests, engine="L2R")
        service.route_many(requests[:5], engine="Fastest")
        stats = service.stats()
        assert stats.requests == 20
        assert stats.requests_by_engine == {"L2R": 15, "Fastest": 5}
        assert stats.latency_p95_s >= stats.latency_p50_s >= 0.0
        assert sum(stats.case_histogram.values()) >= 1  # L2R reports cases
        assert stats.errors == 0
        service.reset_stats()
        fresh = service.stats()
        assert fresh.requests == 0
        # The cache window resets with the stats window (entries are kept).
        assert fresh.cache.hits == 0 and fresh.cache.misses == 0
        assert fresh.cache.size > 0


class TestPersistence:
    def test_round_trip_identical_routes(self, tiny, tiny_split, fitted_l2r, tmp_path):
        target = tmp_path / "model.pkl.gz"
        written = fitted_l2r.save(target)
        assert written == target
        assert not list(tmp_path.glob("*.tmp"))  # atomic write, no scratch left
        restored = LearnToRoute.load(target)
        assert restored.is_fitted
        for trajectory in tiny_split.test[:25]:
            original = fitted_l2r.route(trajectory.source, trajectory.destination)
            reloaded = restored.route(trajectory.source, trajectory.destination)
            assert original.vertices == reloaded.vertices

    def test_round_trip_preserves_region_graph(self, fitted_l2r, tmp_path):
        restored = LearnToRoute.load(fitted_l2r.save(tmp_path / "m.pkl.gz"))
        def summary(graph):
            return graph.region_count, len(graph.t_edges()), len(graph.b_edges()), graph.is_connected()

        assert summary(restored.region_graph) == summary(fitted_l2r.region_graph)

    def test_loaded_model_serves_through_service(self, tiny, tiny_split, fitted_l2r, tmp_path):
        restored = LearnToRoute.load(fitted_l2r.save(tmp_path / "m.pkl.gz"))
        service = RoutingService()
        service.register("L2R", restored.as_engine())
        trajectory = tiny_split.test[0]
        response = service.route(RouteRequest(trajectory.source, trajectory.destination))
        assert response.ok

    def test_unfitted_model_refused(self, tmp_path):
        with pytest.raises(ModelPersistenceError):
            save_model(LearnToRoute(), tmp_path / "m.pkl.gz")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ModelPersistenceError):
            load_model(tmp_path / "missing.pkl.gz")

    def test_garbage_file_rejected(self, tmp_path):
        import gzip
        import pickle

        target = tmp_path / "garbage.pkl.gz"
        with gzip.open(target, "wb") as handle:
            pickle.dump({"format": "something-else"}, handle)
        with pytest.raises(ModelPersistenceError):
            load_model(target)

    @pytest.mark.parametrize(
        "payload",
        [b"\x80\x09", b"X\x02\x00\x00\x00\xff\xfe."],
        ids=["unsupported-protocol", "bad-binunicode"],
    )
    def test_corrupt_pickle_rejected(self, tmp_path, payload):
        import gzip

        # The unpickler raises ValueError / UnicodeDecodeError for these.
        target = tmp_path / "corrupt.pkl.gz"
        with gzip.open(target, "wb") as handle:
            handle.write(payload)
        with pytest.raises(ModelPersistenceError, match="could not read"):
            load_model(target)

    def test_corrupt_gzip_body_rejected(self, fitted_l2r, tmp_path):
        target = save_model(fitted_l2r, tmp_path / "m.pkl.gz")
        body = bytearray(target.read_bytes())
        body[20] ^= 0xFF  # inside the deflate stream, past the 10-byte header
        target.write_bytes(bytes(body))
        with pytest.raises(ModelPersistenceError, match="could not read"):
            load_model(target)

    @pytest.mark.parametrize(
        "missing", ["repro.core.config\nNoSuchClass", "repro.no_such_module\nThing"]
    )
    def test_file_naming_a_missing_class_is_an_older_format(self, tmp_path, missing):
        import gzip

        from repro.service.persistence import MODEL_FORMAT_VERSION

        # A protocol-0 pickle calling a class (or module) the library lacks,
        # as a model saved by an older library version does.
        target = tmp_path / "old.pkl.gz"
        with gzip.open(target, "wb") as handle:
            handle.write(b"c" + missing.encode() + b"\n)R.")
        with pytest.raises(ModelPersistenceError, match=f"version {MODEL_FORMAT_VERSION}"):
            load_model(target)

    def test_format_2_file_is_refused(self, fitted_l2r, tmp_path, monkeypatch):
        from repro.service import persistence

        target = tmp_path / "format2.pkl.gz"
        with monkeypatch.context() as older:
            older.setattr(persistence, "MODEL_FORMAT_VERSION", 2)
            save_model(fitted_l2r, target)
        with pytest.raises(ModelPersistenceError, match="format version 2"):
            load_model(target)

    def test_format_3_file_is_refused(self, fitted_l2r, tmp_path, monkeypatch):
        """Format 3 pickled the network's Edge and Vertex objects; format 4
        carries arrays, and a format-3 header is refused before use."""
        from repro.service import persistence

        import copyreg
        import gzip
        import pickle

        from repro.network import RoadNetwork

        target = tmp_path / "format3.pkl.gz"
        with monkeypatch.context() as older:
            older.setattr(persistence, "MODEL_FORMAT_VERSION", 3)
            save_model(fitted_l2r, target)
        with pytest.raises(ModelPersistenceError, match="format version 3"):
            load_model(target)

        class Format3Network:
            """Pickles the way a format-3 network did: its instance dict."""

            def __reduce__(self):
                state = {"name": "n", "_vertices": {}, "_edges": {}, "_adjacency": {}}
                return copyreg._reconstructor, (RoadNetwork, object, None), state

        with gzip.open(target, "wb") as handle:
            pickle.dump(
                {"format": persistence.MODEL_FORMAT, "format_version": 3, "network": Format3Network()},
                handle,
            )
        with pytest.raises(ModelPersistenceError, match=f"version {persistence.MODEL_FORMAT_VERSION}"):
            load_model(target)


# --------------------------------------------------------------------------- #
# route_many == a route() loop, whatever the batch looks like
# --------------------------------------------------------------------------- #
def _mixed_batch(network, rng: random.Random) -> list[RouteRequest]:
    """Uniform pairs, a k x m hotspot block, duplicates, an unknown vertex,
    an unreachable pair and a ``cost_override`` minority, shuffled."""
    ids = sorted(network.vertex_ids())
    isolated = ids[-1]  # added by the caller, no edges
    ids = ids[:-1]
    pairs = [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 10))]
    for source in rng.sample(ids, rng.randint(0, 3)):
        pairs += [(source, d) for d in rng.sample(ids, rng.randint(1, 4)) if d != source]
    pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 3)) if pairs]
    if rng.random() < 0.5:
        pairs.append((rng.choice(ids), isolated + 1000))
    if rng.random() < 0.5:
        pairs.append((rng.choice(ids), isolated))
    rng.shuffle(pairs)
    return [
        RouteRequest(
            source=s,
            destination=d,
            cost_override=CostFeature.DISTANCE if rng.random() < 0.25 else None,
        )
        for s, d in pairs
    ]


class TestRouteManyEqualsRouteLoop:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=3, max_value=6),
        st.booleans(),
    )
    def test_same_answers_one_outcome_per_request(self, seed, rows, cols, cache):
        network = grid_city_network(rows=rows, cols=cols, seed=seed)
        network.add_vertex(max(network.vertex_ids()) + 1, lon=0.0, lat=0.0)
        batch = _mixed_batch(network, random.Random(seed))

        def service():
            built = RoutingService(enable_cache=cache)
            built.register("Fastest", FastestBaseline(network).as_engine())
            return built

        real = dispatch.try_route_many
        calls: list[tuple[object, list]] = []

        def counting(net, pairs, cost):
            calls.append((cost, list(pairs)))
            return real(net, pairs, cost)

        together, twin = service(), service()
        with mock.patch.object(dispatch, "try_route_many", counting):
            many = together.route_many(batch, "Fastest")
        loop = [twin.route(request, "Fastest") for request in batch]

        assert [r.request for r in many] == batch
        assert [r.path for r in many] == [r.path for r in loop]
        assert [r.error for r in many] == [r.error for r in loop]
        stats = together.stats()
        assert stats.requests == len(batch)
        assert stats.cache.hits + stats.cache.misses == (len(batch) if cache else 0)

        asked = Counter((r.cost_override, r.source) for r in batch)
        for response in many:
            if response.batched:
                request = response.request
                assert asked[(request.cost_override, request.source)] >= 2
        # One kernel call per cost view, no SSSP row for a source asked once.
        assert len({id(cost) for cost, _ in calls}) == len(calls) <= 2
        for _, pairs in calls:
            assert min(Counter(source for source, _ in pairs).values()) >= 2
