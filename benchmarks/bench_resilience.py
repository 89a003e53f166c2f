"""Benchmark: fault-free overhead of the PR 7 resilience layer.

The resilience knobs (deadline budgets, retries, circuit breakers,
admission control, degraded stale-route serving) must be close to free on
the fault-free fast path — that is the contract that lets them stay on in
production.  This benchmark runs the **same workload** through two
:class:`~repro.service.RoutingService` instances over the same network:

* **plain** — every resilience knob off (the pre-PR-7 configuration);
* **resilient** — deadline budget, retry policy, per-engine circuit
  breaker, and admission control all enabled (no faults are injected, so
  no retry/breaker/degraded machinery ever fires — only its bookkeeping).

Both sides are timed best-of-``--repeats`` to damp scheduler noise, and the
run fails when the resilient service is more than ``--max-overhead``
(default 10%) slower.  The merged JSON section reports
``faultfree_throughput_ratio`` = plain_seconds / resilient_seconds (higher
is better, ~1.0 expected) so ``check_bench_regression.py`` tracks it like
every other speedup ratio.

A final determinism check replays a seeded :class:`FaultInjector` chaos
schedule twice and asserts identical fault counters — the cheap smoke
version of ``tests/test_resilience.py``'s chaos suite.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke        # CI
    PYTHONPATH=src python benchmarks/bench_resilience.py --max-overhead 0.10
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path as FilePath

from repro.network import grid_city_network
from repro.routing import fastest_path
from repro.service import (
    FaultInjector,
    FunctionEngine,
    RetryPolicy,
    RouteRequest,
    RoutingService,
)

FULL_GRIDS = [(30, 30), (60, 60)]
# The overhead is a fixed few microseconds per call, so the smoke grid must
# be big enough that a route costs what real routes cost — on a 12x12 grid
# (~80us/route) the same absolute overhead reads as 2-3x the percentage.
SMOKE_GRIDS = [(20, 20)]


def _requests(network, count: int, seed: int) -> list[RouteRequest]:
    rng = random.Random(seed)
    ids = sorted(network.vertex_ids())
    requests = []
    while len(requests) < count:
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b:
            requests.append(RouteRequest(source=a, destination=b))
    return requests


def _build_service(network, *, resilient: bool) -> RoutingService:
    if resilient:
        service = RoutingService(
            enable_cache=False,
            deadline_s=30.0,
            retry_policy=RetryPolicy(max_retries=2, seed=0),
            breaker=True,
            max_in_flight=64,
        )
    else:
        service = RoutingService(enable_cache=False)
    engine = FunctionEngine(
        network, lambda s, d: fastest_path(network, s, d), name="fastest"
    )
    service.register("fastest", engine, default=True)
    return service


def _route_timed(service: RoutingService, request) -> float:
    start = time.perf_counter()
    response = service.route(request)
    elapsed = time.perf_counter() - start
    if not response.ok:
        raise AssertionError(f"fault-free workload failed: {response.error}")
    return elapsed


def _time_pair(plain, resilient, requests, repeats: int) -> tuple[float, float, float]:
    """Per-request paired timing; returns total times plus the median ratio.

    Each request is timed back to back through both services, giving one
    paired resilient/plain ratio per (request, round) sample; the order
    within a pair alternates every round so neither side systematically pays for
    cache/frequency drift the other caused.  The median over hundreds of
    paired samples is what the overhead gate compares — it is far more
    stable on noisy CI machines than a ratio of two wall-clock sums, whose
    single scheduler hiccup can swing the result by 10%.
    """
    plain_total = resilient_total = 0.0
    ratios = []
    for round_index in range(repeats):
        plain_first = round_index % 2 == 0
        for request in requests:
            if plain_first:
                plain_s = _route_timed(plain, request)
                resilient_s = _route_timed(resilient, request)
            else:
                resilient_s = _route_timed(resilient, request)
                plain_s = _route_timed(plain, request)
            plain_total += plain_s
            resilient_total += resilient_s
            ratios.append(resilient_s / plain_s)
    return plain_total / repeats, resilient_total / repeats, statistics.median(ratios)


def bench_grid(rows: int, cols: int, *, query_count: int, repeats: int, seed: int) -> dict:
    network = grid_city_network(rows=rows, cols=cols, seed=seed)
    network.compiled()
    requests = _requests(network, query_count, seed + 1)

    plain = _build_service(network, resilient=False)
    resilient = _build_service(network, resilient=True)

    # Warm both once (lazy compiled caches, code paths) before timing.
    for request in requests:
        _route_timed(plain, request)
        _route_timed(resilient, request)
    plain_seconds, resilient_seconds, median_ratio = _time_pair(
        plain, resilient, requests, repeats
    )

    stats = resilient.stats()
    if stats.retries or stats.shed or stats.breaker_trips or stats.degraded_responses:
        raise AssertionError(
            f"{rows}x{cols}: resilience machinery fired on the fault-free path "
            f"(retries={stats.retries} shed={stats.shed} "
            f"trips={stats.breaker_trips} degraded={stats.degraded_responses})"
        )

    overhead = median_ratio - 1.0
    return {
        "rows": rows,
        "cols": cols,
        "vertices": network.vertex_count,
        "edges": network.edge_count,
        "queries": len(requests),
        "plain_seconds": round(plain_seconds, 6),
        "resilient_seconds": round(resilient_seconds, 6),
        "faultfree_overhead": round(overhead, 4),
        "faultfree_throughput_ratio": round(1.0 / median_ratio, 3),
    }


def chaos_determinism_check(seed: int) -> dict:
    """Two identically seeded chaos runs must produce identical counters."""

    def run() -> tuple:
        network = grid_city_network(rows=8, cols=8, seed=seed)
        injector = FaultInjector(seed=seed)
        flaky = injector.engine(
            FunctionEngine(
                network, lambda s, d: fastest_path(network, s, d), name="flaky"
            ),
            error_rate=0.25,
        )
        service = RoutingService(
            enable_cache=False,
            retry_policy=RetryPolicy(max_retries=1, seed=seed),
            breaker=True,
        )
        service.register("flaky", flaky, default=True)
        outcomes = []
        for request in _requests(network, 40, seed + 1):
            response = service.route(request)
            outcomes.append((response.ok, response.degraded, response.retries))
        stats = service.stats()
        return (
            tuple(outcomes),
            flaky.counters.calls,
            flaky.counters.injected_errors,
            stats.retries,
            stats.degraded_responses,
            stats.breaker_trips,
        )

    first, second = run(), run()
    if first != second:
        raise AssertionError(
            "seeded chaos runs diverged: identical seeds must give identical "
            f"outcomes and counters ({first[1:]} vs {second[1:]})"
        )
    return {
        "seed": seed,
        "requests": 40,
        "engine_calls": first[1],
        "injected_errors": first[2],
        "deterministic": True,
    }


def merge_report(output: FilePath, resilience_report: dict) -> dict:
    """Merge the resilience section into the (possibly existing) routing JSON."""
    if output.exists():
        report = json.loads(output.read_text())
    else:
        report = {"benchmark": "bench_resilience"}
    report["resilience"] = resilience_report
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="one small grid (CI)")
    parser.add_argument("--queries", type=int, default=50, help="OD pairs per grid")
    parser.add_argument(
        "--repeats", type=int, default=15, help="paired timing rounds (interleaved)"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", default="BENCH_routing.json")
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.10,
        help="fail when the fully-armed service is more than this fraction "
        "slower than the plain one on the fault-free workload (0.10 = 10%%); "
        "0 disables the gate",
    )
    args = parser.parse_args(argv)

    # The smoke workload is tiny (milliseconds per round), so smoke keeps the
    # full repeat count — best-of over few rounds makes the 10% gate flaky.
    grids = SMOKE_GRIDS if args.smoke else FULL_GRIDS
    repeats = args.repeats

    resilience_report = {
        "mode": "smoke" if args.smoke else "full",
        "max_overhead": args.max_overhead,
        "grids": [],
    }
    for rows, cols in grids:
        print(f"benchmarking fault-free resilience overhead on {rows}x{cols} grid...", flush=True)
        grid_report = bench_grid(
            rows, cols, query_count=args.queries, repeats=repeats, seed=args.seed
        )
        resilience_report["grids"].append(grid_report)
        print(
            f"  {grid_report['queries']} queries: plain "
            f"{grid_report['plain_seconds'] * 1e3:.2f}ms  resilient "
            f"{grid_report['resilient_seconds'] * 1e3:.2f}ms  overhead "
            f"{grid_report['faultfree_overhead'] * 100:+.1f}%"
        )

    print("checking seeded chaos determinism...", flush=True)
    resilience_report["chaos_determinism"] = chaos_determinism_check(args.seed)
    print(
        f"  {resilience_report['chaos_determinism']['engine_calls']} engine calls, "
        f"{resilience_report['chaos_determinism']['injected_errors']} injected errors: "
        "two seeded runs identical"
    )

    largest = resilience_report["grids"][-1]
    resilience_report["largest_grid_faultfree_overhead"] = largest["faultfree_overhead"]

    output = FilePath(args.output)
    report = merge_report(output, resilience_report)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"merged resilience section into {output} (largest-grid fault-free "
        f"overhead: {largest['faultfree_overhead'] * 100:+.1f}%)"
    )

    if args.max_overhead:
        worst = max(grid["faultfree_overhead"] for grid in resilience_report["grids"])
        if worst > args.max_overhead:
            print(
                f"FAIL: fault-free overhead {worst * 100:.1f}% exceeds the "
                f"{args.max_overhead * 100:.0f}% gate",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
