"""Quickstart: fit learn-to-route once, then serve requests with RoutingService.

Run with::

    python examples/quickstart.py

The script builds a small synthetic road network with simulated taxi
trajectories, fits the L2R pipeline (region graph + preference learning +
transfer), registers the fitted model and two baselines with a
:class:`~repro.service.RoutingService`, answers a batch of routing requests
through the unified request/response API, and finally saves / reloads the
fitted model to show that a serving process can start without re-running the
offline pipeline.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import LearnToRoute, RouteRequest, RoutingService
from repro.baselines import FastestBaseline, ShortestBaseline
from repro.datasets import tiny_scenario
from repro.datasets.splits import split_by_id
from repro.preferences import path_similarity


def main() -> None:
    # 1. A synthetic scenario: a 10x10 city grid plus 120 simulated trips.
    scenario = tiny_scenario(seed=3, n_trajectories=120)
    network = scenario.network
    print(f"Network: {network.vertex_count} vertices, {network.edge_count} edges")
    print(f"Trajectories: {len(scenario.trajectories)}")

    # 2. Temporal-style train / test split.
    split = split_by_id(scenario.trajectories, train_fraction=0.75)
    print(f"Training on {len(split.train)} trajectories, testing on {len(split.test)}")

    # 3. Fit the L2R pipeline (Steps 1-3 of the paper) — once, offline.
    pipeline = LearnToRoute().fit(network, split.train)
    region_graph = pipeline.region_graph
    print(
        f"Region graph: {region_graph.region_count} regions, "
        f"{len(region_graph.t_edges())} T-edges, {len(region_graph.b_edges())} B-edges, "
        f"connected={region_graph.is_connected()}"
    )

    # 4. One serving facade, many engines: L2R falls back to Fastest when it
    #    cannot answer, and every answer is cached for repeat queries.
    service = RoutingService(cache_size=1024)
    service.register("L2R", pipeline.as_engine(), fallback="Fastest", default=True)
    service.register("Shortest", ShortestBaseline(network).as_engine())
    service.register("Fastest", FastestBaseline(network).as_engine())

    requests = [
        RouteRequest(
            source=t.source,
            destination=t.destination,
            departure_time=t.departure_time,
            request_id=str(t.trajectory_id),
        )
        for t in split.test[:8]
    ]

    # 5. Batch-route through every engine and compare with the drivers' paths.
    print("\nPer-query Eq. 1 similarity against the driver's actual path:")
    print(f"{'query':>6} {'L2R':>8} {'Shortest':>10} {'Fastest':>10}")
    engine_names = ("L2R", "Shortest", "Fastest")
    per_engine = {name: service.route_many(requests, engine=name) for name in engine_names}
    for index, trajectory in enumerate(split.test[:8]):
        # Failed requests carry path=None plus an error instead of raising.
        scores = [
            path_similarity(network, trajectory.path, answer.path) if answer.ok else 0.0
            for answer in (per_engine[name][index] for name in engine_names)
        ]
        print(
            f"{trajectory.trajectory_id:>6} {scores[0] * 100:>7.1f}% "
            f"{scores[1] * 100:>9.1f}% {scores[2] * 100:>9.1f}%"
        )

    # 6. Inspect one response in detail (diagnostics, latency, cache).
    response = service.route(requests[0])  # repeat query -> served from cache
    print(f"\nQuery {response.request.source} -> {response.request.destination}")
    print(f"  engine       : {response.engine} (cache hit: {response.cache_hit})")
    if response.diagnostics is not None:
        print(
            f"  routing case : {response.diagnostics.case} "
            f"({response.diagnostics.region_hops} region hops)"
        )
    print(f"  path         : {response.path.vertices if response.ok else response.error}")

    stats = service.stats()
    print(
        f"\nServiceStats: {stats.requests} requests, "
        f"cache hit rate {stats.cache_hit_rate:.0%}, "
        f"p50 latency {stats.latency_p50_s * 1e3:.2f} ms, "
        f"p95 latency {stats.latency_p95_s * 1e3:.2f} ms"
    )

    # 7. Debug runs can wrap traffic under the coherence sanitizer: every
    #    cache hit served inside the block is checked against the live
    #    version counters, so stale replays surface immediately.
    from repro.analysis import sanitize

    with sanitize() as sanitizer:
        for request in requests[:10]:
            service.route(request)
    sanitizer.assert_clean()
    print(f"\nCoherence sanitizer: {len(sanitizer.findings)} stale cache hits")

    # 8. Degraded mode: when every live engine fails (crash, timeout, open
    #    circuit breaker), the service answers with the last known good
    #    route for the OD pair instead of an error — flagged, never
    #    silently.  FaultInjector scripts the failure deterministically.
    from repro.service import FaultInjector, FunctionEngine
    from repro.routing import fastest_path

    injector = FaultInjector(seed=7)
    flaky = injector.engine(
        FunctionEngine(network, lambda s, d: fastest_path(network, s, d), name="flaky"),
        script=["ok", "error"],  # first call answers, second one crashes
    )
    resilient = RoutingService(enable_cache=False)
    resilient.register("flaky", flaky)
    check_request = RouteRequest(requests[0].source, requests[0].destination)
    resilient.route(check_request)  # the good answer primes the stale store
    degraded = resilient.route(check_request)  # the crash degrades, not errors
    print(
        f"\nDegraded mode: ok={degraded.ok} degraded={degraded.degraded} "
        f"case={degraded.diagnostics.case} "
        f"served_cost_version={degraded.diagnostics.served_cost_version}"
    )
    print(f"  degraded responses counted: {resilient.stats().degraded_responses}")

    # 9. Persist the fitted model; a serving process reloads it instantly.
    with tempfile.TemporaryDirectory() as tmp:
        model_file = Path(tmp) / "l2r-model.pkl.gz"
        pipeline.save(model_file)
        restored = LearnToRoute.load(model_file)
        check = requests[0]
        same = (
            pipeline.route(check.source, check.destination).vertices
            == restored.route(check.source, check.destination).vertices
        )
        print(f"\nSaved {model_file.stat().st_size:,} bytes; reloaded routes identical: {same}")


if __name__ == "__main__":
    main()
