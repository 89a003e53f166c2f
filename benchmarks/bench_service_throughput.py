"""Serving throughput of ``RoutingService.route_many``.

Measures requests/second of the batch API against a
plain single-call loop over the same request set, on the D2-like scenario,
and reports the cache's effect on a repeated batch.  The timed unit is one
uncached ``route_many`` batch; the printed table summarizes all three serving
modes.
"""

from __future__ import annotations

import time

from repro.baselines import FastestBaseline
from repro.service import L2REngine, RouteRequest, RoutingService


def _requests(split, n: int = 40) -> list[RouteRequest]:
    return [
        RouteRequest(
            source=t.source,
            destination=t.destination,
            departure_time=t.departure_time,
            driver_id=t.driver_id,
        )
        for t in split.test[:n]
    ]


def _rps(n_requests: int, elapsed_s: float) -> float:
    return n_requests / elapsed_s if elapsed_s > 0 else float("inf")


def test_service_throughput(benchmark, d2):
    scenario, split, pipeline = d2
    requests = _requests(split)

    def build_service(enable_cache: bool) -> RoutingService:
        service = RoutingService(enable_cache=enable_cache)
        service.register("L2R", L2REngine(pipeline), fallback="Fastest", default=True)
        service.register("Fastest", FastestBaseline(scenario.network).as_engine())
        return service

    # Timed unit: one uncached batched route_many over the request set (the
    # service is built once outside the timed callable).
    bench_service = build_service(enable_cache=False)

    def batched():
        return bench_service.route_many(requests)

    responses = benchmark(batched)
    assert len(responses) == len(requests)
    assert all(r.ok for r in responses)

    # Comparison: single-call loop vs batch vs warm cache, on fresh services.
    loop_service = build_service(enable_cache=False)
    started = time.perf_counter()
    loop_responses = [loop_service.route(request) for request in requests]
    loop_s = time.perf_counter() - started

    batch_service = build_service(enable_cache=False)
    started = time.perf_counter()
    batch_responses = batch_service.route_many(requests)
    batch_s = time.perf_counter() - started

    cached_service = build_service(enable_cache=True)
    cached_service.route_many(requests)  # warm the cache
    started = time.perf_counter()
    cached_responses = cached_service.route_many(requests)
    cached_s = time.perf_counter() - started

    print()
    print("RoutingService throughput (D2-like, %d requests)" % len(requests))
    print(f"  single-call loop : {_rps(len(requests), loop_s):>10.0f} req/s")
    print(f"  route_many       : {_rps(len(requests), batch_s):>10.0f} req/s")
    print(f"  warm route cache : {_rps(len(requests), cached_s):>10.0f} req/s")
    stats = cached_service.stats()
    print(
        f"  cache hit rate {stats.cache_hit_rate:.0%}, "
        f"p50 {stats.latency_p50_s * 1e3:.3f} ms, p95 {stats.latency_p95_s * 1e3:.3f} ms"
    )

    # Same answers regardless of serving mode.
    for loop_r, batch_r, cached_r in zip(loop_responses, batch_responses, cached_responses):
        assert loop_r.path.vertices == batch_r.path.vertices == cached_r.path.vertices
    assert all(r.cache_hit for r in cached_responses)
