"""Benchmark: ALT goal-directed search and batched ``route_many``.

Measures, on synthetic city grids:

* **ALT-A\\* vs plain compiled A\\*** — the same queries through the compiled
  A* kernel with the ALT landmark heuristic (the default) and with it
  disabled (per-vertex geometric heuristic callbacks), plus the dict-based
  reference for context; asserts along the way that every ALT answer is
  cost-identical to reference Dijkstra;
* **ALT bidirectional vs plain compiled bidirectional** — both frontiers on
  landmark-reduced costs vs the exact reference mirror;
* **batched vs serial ``route_many``** — one ``RoutingService`` answering
  the same request batch through the partitioned ``dijkstra_many`` path and
  through the one-request-at-a-time loop (cache disabled for fairness),
  asserting identical paths.

Results are merged into the routing benchmark JSON (default
``BENCH_routing.json``) under an ``"alt"`` key so the CI regression guard
(``check_bench_regression.py``) tracks the speedups across PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_alt_landmarks.py
    PYTHONPATH=src python benchmarks/bench_alt_landmarks.py --smoke          # CI
    PYTHONPATH=src python benchmarks/bench_alt_landmarks.py --min-speedup 1.5
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path as FilePath

from repro.baselines import FastestBaseline
from repro.network import alt_disabled, compiled_disabled, grid_city_network
from repro.routing import (
    CostFeature,
    astar,
    bidirectional_dijkstra,
    cost_function,
    dijkstra,
    heuristic_for,
)
from repro.service import AlgorithmEngine, RouteRequest, RoutingService

# The acceptance grid is 60x60; smoke keeps it (the CI gate is defined on
# it) but trims the query count.
FULL_GRIDS = [(30, 30), (60, 60)]
SMOKE_GRIDS = [(60, 60)]


def _queries(network, count: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    ids = sorted(network.vertex_ids())
    pairs = []
    while len(pairs) < count:
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b:
            pairs.append((a, b))
    return pairs


def _time_astar(network, queries, cost) -> float:
    start = time.perf_counter()
    for source, destination in queries:
        astar(
            network,
            source,
            destination,
            cost,
            heuristic_for(network, destination, CostFeature.TRAVEL_TIME),
        )
    return time.perf_counter() - start


def _time_bidirectional(network, queries, cost) -> float:
    start = time.perf_counter()
    for source, destination in queries:
        bidirectional_dijkstra(network, source, destination, cost)
    return time.perf_counter() - start


def bench_grid(rows: int, cols: int, *, query_count: int, landmarks: int, seed: int) -> dict:
    network = grid_city_network(rows=rows, cols=cols, seed=seed)
    cost = cost_function(CostFeature.TRAVEL_TIME)
    queries = _queries(network, query_count, seed + 1)

    build_start = time.perf_counter()
    network.prepare_landmarks(cost, count=landmarks)
    landmark_build_seconds = time.perf_counter() - build_start

    # Correctness first: every ALT answer must cost exactly what the
    # reference Dijkstra's answer costs (paths may differ among ties).
    for source, destination in queries[: min(15, len(queries))]:
        alt_path = astar(network, source, destination, cost)
        bidi_path = bidirectional_dijkstra(network, source, destination, cost)
        with compiled_disabled():
            reference = dijkstra(network, source, destination, cost)
        expected = network.path_travel_time_s(reference.vertices)
        for candidate in (alt_path, bidi_path):
            got = network.path_travel_time_s(candidate.vertices)
            if abs(got - expected) > 1e-6 * max(1.0, expected):
                raise AssertionError(
                    f"{rows}x{cols}: ALT answer costs {got}, reference {expected} "
                    f"on query ({source}, {destination})"
                )

    _time_astar(network, queries, cost)  # warm (tables, weight lists)
    astar_alt = _time_astar(network, queries, cost)
    with alt_disabled():
        _time_astar(network, queries[:5], cost)
        astar_plain = _time_astar(network, queries, cost)
    with compiled_disabled():
        astar_dict = _time_astar(network, queries, cost)

    bidi_alt = _time_bidirectional(network, queries, cost)
    with alt_disabled():
        bidi_plain = _time_bidirectional(network, queries, cost)

    return {
        "rows": rows,
        "cols": cols,
        "vertices": network.vertex_count,
        "edges": network.edge_count,
        "queries": len(queries),
        "landmark_build_seconds": round(landmark_build_seconds, 6),
        "astar_dict_seconds": round(astar_dict, 6),
        "astar_plain_seconds": round(astar_plain, 6),
        "astar_alt_seconds": round(astar_alt, 6),
        "alt_vs_plain_astar_speedup": (
            round(astar_plain / astar_alt, 3) if astar_alt else None
        ),
        "alt_vs_dict_astar_speedup": (
            round(astar_dict / astar_alt, 3) if astar_alt else None
        ),
        "bidirectional_plain_seconds": round(bidi_plain, 6),
        "bidirectional_alt_seconds": round(bidi_alt, 6),
        "alt_vs_plain_bidirectional_speedup": (
            round(bidi_plain / bidi_alt, 3) if bidi_alt else None
        ),
    }


def _compare_route_many(service, requests, rows: int, cols: int) -> tuple[float, float, int]:
    service.route_many(requests[: min(8, len(requests))])  # warm
    start = time.perf_counter()
    batched = service.route_many(requests)
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    serial = service.route_many(requests, batch_min_size=len(requests) + 1)
    serial_seconds = time.perf_counter() - start

    for a, b in zip(batched, serial):
        if not (a.ok and b.ok) or a.path.vertices != b.path.vertices:
            raise AssertionError(
                f"{rows}x{cols}: batched and serial route_many disagree on "
                f"({a.request.source}, {a.request.destination})"
            )
    return serial_seconds, batched_seconds, sum(1 for r in batched if r.batched)


def bench_route_many(rows: int, cols: int, *, request_count: int, seed: int) -> dict:
    network = grid_city_network(rows=rows, cols=cols, seed=seed)
    service = RoutingService(enable_cache=False)
    service.register("Fastest", AlgorithmEngine(FastestBaseline(network)))

    # Worst case for batching: every request has its own source, so the
    # batch saves only per-request service overhead.
    distinct = [
        RouteRequest(source=a, destination=b)
        for a, b in _queries(network, request_count, seed + 2)
    ]
    serial_seconds, batched_seconds, batch_answered = _compare_route_many(
        service, distinct, rows, cols
    )

    # Dispatch-style workload: requests cluster on a few pickup hotspots, so
    # the batch collapses to one SSSP per distinct source.
    rng = random.Random(seed + 3)
    ids = sorted(network.vertex_ids())
    hotspots = rng.sample(ids, max(2, request_count // 8))
    shared = []
    while len(shared) < request_count:
        source = rng.choice(hotspots)
        destination = rng.choice(ids)
        if destination != source:
            shared.append(RouteRequest(source=source, destination=destination))
    shared_serial, shared_batched, _ = _compare_route_many(service, shared, rows, cols)

    service.close()
    return {
        "requests": request_count,
        "batched_requests": batch_answered,
        "serial_seconds": round(serial_seconds, 6),
        "batched_seconds": round(batched_seconds, 6),
        "batched_vs_serial_speedup": (
            round(serial_seconds / batched_seconds, 3) if batched_seconds else None
        ),
        "shared_source_serial_seconds": round(shared_serial, 6),
        "shared_source_batched_seconds": round(shared_batched, 6),
        "shared_source_batched_vs_serial_speedup": (
            round(shared_serial / shared_batched, 3) if shared_batched else None
        ),
    }


def merge_report(output: FilePath, alt_report: dict) -> dict:
    """Merge the ALT section into the (possibly existing) routing JSON."""
    if output.exists():
        report = json.loads(output.read_text())
    else:
        report = {"benchmark": "bench_alt_landmarks"}
    report["alt"] = alt_report
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="60x60 grid only, fewer queries (CI)")
    parser.add_argument("--queries", type=int, default=40, help="OD pairs per grid")
    parser.add_argument("--landmarks", type=int, default=8, help="landmarks per table")
    parser.add_argument(
        "--batch-requests", type=int, default=64, help="route_many batch size (>= 32 for the acceptance bar)"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", default="BENCH_routing.json")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail unless ALT-A* beats plain compiled A* by this factor on "
        "the largest grid (0 = report only); the acceptance bar is 2, the "
        "CI smoke gate 1.5",
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=0.0,
        help="fail unless batched route_many beats the serial loop by "
        "this factor on the largest grid's hotspot (shared-source) workload "
        "(0 = report only)",
    )
    args = parser.parse_args(argv)

    grids = SMOKE_GRIDS if args.smoke else FULL_GRIDS
    queries = min(args.queries, 25) if args.smoke else args.queries

    alt_report = {
        "mode": "smoke" if args.smoke else "full",
        "landmarks": args.landmarks,
        "grids": [],
    }
    for rows, cols in grids:
        print(f"benchmarking ALT on {rows}x{cols} grid ({queries} queries)...", flush=True)
        grid_report = bench_grid(
            rows, cols, query_count=queries, landmarks=args.landmarks, seed=args.seed
        )
        grid_report["route_many"] = bench_route_many(
            rows, cols, request_count=args.batch_requests, seed=args.seed
        )
        alt_report["grids"].append(grid_report)
        print(
            f"  astar: dict {grid_report['astar_dict_seconds']:.4f}s  "
            f"plain {grid_report['astar_plain_seconds']:.4f}s  "
            f"ALT {grid_report['astar_alt_seconds']:.4f}s  "
            f"(ALT vs plain {grid_report['alt_vs_plain_astar_speedup']}x, "
            f"vs dict {grid_report['alt_vs_dict_astar_speedup']}x; "
            f"table build {grid_report['landmark_build_seconds'] * 1e3:.1f}ms)"
        )
        print(
            f"  bidirectional: plain {grid_report['bidirectional_plain_seconds']:.4f}s  "
            f"ALT {grid_report['bidirectional_alt_seconds']:.4f}s  "
            f"({grid_report['alt_vs_plain_bidirectional_speedup']}x)"
        )
        rm = grid_report["route_many"]
        print(
            f"  route_many x{rm['requests']}: serial {rm['serial_seconds']:.4f}s  "
            f"batched {rm['batched_seconds']:.4f}s  "
            f"({rm['batched_vs_serial_speedup']}x distinct sources, "
            f"{rm['shared_source_batched_vs_serial_speedup']}x hotspot sources; "
            f"{rm['batched_requests']}/{rm['requests']} batch-answered)"
        )

    largest = alt_report["grids"][-1]
    astar_speedup = largest["alt_vs_plain_astar_speedup"]
    # The headline batch ratio is the hotspot (shared-source) workload: with
    # fully distinct sources the batch saves only per-request overhead
    # (~1.1x, recorded per grid); source reuse is where dijkstra_many wins.
    batch_speedup = largest["route_many"]["shared_source_batched_vs_serial_speedup"]
    alt_report["largest_grid_alt_astar_speedup"] = astar_speedup
    alt_report["largest_grid_batched_route_many_speedup"] = batch_speedup

    output = FilePath(args.output)
    report = merge_report(output, alt_report)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"merged alt section into {output} (ALT-A* speedup {astar_speedup}x, "
        f"batched route_many {batch_speedup}x)"
    )

    failed = False
    if args.min_speedup and (astar_speedup or 0.0) < args.min_speedup:
        print(
            f"FAIL: ALT-A* speedup {astar_speedup}x below required {args.min_speedup}x",
            file=sys.stderr,
        )
        failed = True
    if args.min_batch_speedup and (batch_speedup or 0.0) < args.min_batch_speedup:
        print(
            f"FAIL: batched route_many speedup {batch_speedup}x below required "
            f"{args.min_batch_speedup}x",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
