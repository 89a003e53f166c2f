"""The benchmark's metric registry: names, units, directions, bounds, and
which end-to-end metric each layer metric is expected to move, where.

``declared`` metrics are the ones ``BENCHMARK.json`` lists and the result
line carries: the driver wants every declared metric from every workload,
non-zero, so only metrics all four workloads produce are declared.  The
rest (``fit_s``, ``traffic_apply_p50_ms``, ``l2r_accuracy_pct``,
``failed_share`` and the workload-specific layer rows) are printed, written
to ``--out`` and judged by ``compare.py`` with the bounds below.

Run ``python3 benchmarks/e2e/metrics.py`` to print the ``BENCHMARK.json``
this registry describes.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

from workloads import WORKLOAD_NAMES, WORKLOADS

RUN_SECONDS = 10

ALL = WORKLOAD_NAMES
_GRIDS = ("grid_cold", "grid_hot_traffic", "sharded_tcp")
_SMALL = ("l2r_city", "grid_hot_traffic", "sharded_tcp")
_COLD = ("grid_cold",)
_L2R = ("l2r_city",)
_HOT = ("grid_hot_traffic",)
_TCP = ("sharded_tcp",)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    """Share of the base median by which the metric may worsen; 0 = exact.
    The timing bounds sit at the driver's maximum, 0.25: ISSUE 11 proposed
    10-15%, but ten runs on this host spread up to 15% (IQR / median) even
    after host-speed scaling, and a bound may only be widened to what is
    observed (see the README's table of measured ranges)."""
    workloads: tuple[str, ...] = ALL
    declared: bool = True


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("fit_s", "s", "lower", 0.25, _L2R, declared=False),
    EndToEnd("routes_per_s", "1/s", "higher", 0.25),
    EndToEnd("route_p50_ms", "ms", "lower", 0.25),
    EndToEnd("route_p95_ms", "ms", "lower", 0.25),
    EndToEnd("traffic_apply_p50_ms", "ms", "lower", 0.25, _HOT + _TCP, declared=False),
    EndToEnd("l2r_accuracy_pct", "%", "higher", 0.0, _L2R, declared=False),
    EndToEnd("failed_share", "share", "lower", 0.0, declared=False),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    measured_as: str
    moves: tuple[tuple[str, str], ...] = ()
    """``(end-to-end metric, workload)`` pairs this row should move; empty
    means scoreboard diagnostic ("none")."""
    workloads: tuple[str, ...] = ALL
    declared: bool = True
    better: str = "lower"



def _moves(metrics: str, workloads: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    return tuple((metric, workload) for metric in metrics.split() for workload in workloads)


LAYERS = (
    # -- the paper's own layers (l2r_city only) -------------------------- #
    Layer(
        "regions.region_graph_s", "s",
        "offline_timings of the timed fit",
        moves=_moves("fit_s setup_s", _L2R),
        workloads=_L2R,
        declared=False,
    ),
    Layer(
        "preferences.learning_s", "s",
        "offline_timings of the timed fit",
        moves=_moves("fit_s setup_s", _L2R),
        workloads=_L2R,
        declared=False,
    ),
    Layer(
        "preferences.transfer_s", "s",
        "offline_timings of the timed fit",
        moves=_moves("fit_s setup_s", _L2R),
        workloads=_L2R,
        declared=False,
    ),
    Layer(
        "preferences.materialize_s", "s",
        "offline_timings of the timed fit",
        moves=_moves("fit_s setup_s", _L2R),
        workloads=_L2R,
        declared=False,
    ),
    Layer(
        "core.route_us", "us",
        "median direct pipeline.route_with_diagnostics",
        moves=_moves("route_p50_ms routes_per_s", _L2R),
        workloads=_L2R,
        declared=False,
    ),
    Layer(
        "core.cross_region_share", "share",
        "RouteDiagnostics.region_hops > 0 (repeats exactly)",
        moves=_moves("route_p95_ms", _L2R),
        workloads=_L2R,
        declared=False,
    ),
    Layer(
        "core.b_edge_share", "share",
        "RouteDiagnostics.used_b_edges > 0 (repeats exactly)",
        moves=_moves("route_p95_ms", _L2R),
        workloads=_L2R,
        declared=False,
    ),
    Layer(
        "core.fallback_share", "share",
        "RouteDiagnostics.case == fallback-fastest (repeats exactly)",
        moves=_moves("route_p95_ms", _L2R),
        workloads=_L2R,
        declared=False,
    ),
    Layer(
        "routing.preference_us", "us",
        "preference_dijkstra on same-region sample pairs",
        moves=_moves("route_p50_ms", _L2R),
        workloads=_L2R,
        declared=False,
    ),
    # -- replayed on every workload's own network and request sample ------ #
    Layer(
        "service.overhead_us", "us",
        "self time of service.route (span minus engine span), cache off",
        moves=_moves("routes_per_s", _HOT) + _moves("route_p50_ms", _COLD),
    ),
    Layer(
        "engine.overhead_us", "us",
        "engine.route(request) minus the direct path function, same pair",
        moves=_moves("route_p50_ms", _COLD),
    ),
    Layer(
        "routing.dijkstra_us", "us",
        "median fastest_path / shortest_path on the sample",
        moves=_moves("route_p50_ms routes_per_s", _COLD) + _moves("route_p95_ms", _HOT),
    ),
    Layer(
        "kernels.sssp_us", "us",
        "one-source dijkstra_many row",
        moves=_moves("route_p50_ms routes_per_s", _COLD) + _moves("route_p95_ms", _HOT),
    ),
    Layer(
        "kernels.reconstruct_us", "us",
        "shortest_paths_many for one pair minus that row",
        moves=_moves("route_p50_ms routes_per_s", _COLD) + _moves("route_p95_ms", _HOT),
    ),
    Layer("routing.astar_alt_us", "us", "astar_by_feature (ALT) on the sample"),
    Layer("routing.bidirectional_us", "us", "bidirectional_by_feature on the sample"),
    Layer("landmarks.build_ms", "ms", "prepare_landmarks on a cold copy"),
    Layer("service.route_many_us_per_route", "us", "route_many(256) amortised, cache off"),
    Layer(
        "ch.query_us", "us",
        "ch_shortest_path on the sample (networks <= 4,000 vertices)",
        workloads=_SMALL,
        declared=False,
    ),
    Layer(
        "ch.reweight_ms", "ms",
        "prepare_hierarchy refresh after one 32-edge batch",
        workloads=_SMALL,
        declared=False,
    ),
    Layer(
        "network.compile_ms", "ms",
        "cold RoadNetwork.compiled()",
        moves=_moves("setup_s", _GRIDS),
    ),
    Layer(
        "network.patch_ms", "ms",
        "update_edge_costs for one 32-edge batch",
        moves=_moves("traffic_apply_p50_ms", _HOT),
    ),
    Layer(
        "traffic.feed_apply_ms", "ms",
        "TrafficFeed.apply with no subscriber or journal",
        moves=_moves("traffic_apply_p50_ms", _HOT),
    ),
    Layer(
        "cache.hit_share", "share",
        "service.stats() counters over the first ten measured blocks (repeats exactly)",
        moves=_moves("routes_per_s route_p50_ms", _HOT),
        workloads=_HOT,
        declared=False,
        better="higher",
    ),
    Layer(
        "cache.evicted_per_batch", "count",
        "service.stats() counters over the first ten measured blocks (repeats exactly)",
        moves=_moves("routes_per_s route_p50_ms", _HOT),
        workloads=_HOT,
        declared=False,
    ),
    Layer(
        "cache.get_hit_us", "us",
        "direct RouteCache.get replay of the sample's responses",
        moves=_moves("route_p50_ms", _HOT),
    ),
    Layer(
        "cache.put_us", "us",
        "direct RouteCache.put replay of the sample's responses",
        moves=_moves("route_p50_ms", _HOT),
    ),
    Layer(
        "cache.invalidate_ms", "ms",
        "direct invalidate_edges on a full 2,048-entry cache",
        moves=_moves("traffic_apply_p50_ms", _HOT),
    ),
    Layer(
        "stats.record_us", "us",
        "direct StatsAccumulator.record(response)",
        moves=_moves("routes_per_s", _HOT),
    ),
    Layer(
        "durability.log_ms", "ms",
        "journal proxy span per batch on a private feed",
        moves=_moves("traffic_apply_p50_ms", _HOT),
    ),
    Layer(
        "durability.wal_bytes_per_batch", "bytes",
        "WAL bytes on disk / batches (exact)",
        moves=_moves("traffic_apply_p50_ms", _HOT),
    ),
    Layer("durability.snapshot_ms", "ms", "manager.snapshot"),
    Layer("durability.recover_ms", "ms", "manager.recover into a pristine copy, states_identical"),
    Layer("sharding.plan_ms", "ms", "build_shard_plan(network, 2)", moves=_moves("setup_s", _TCP)),
    Layer("shm.export_ms", "ms", "shm.export_graph", moves=_moves("setup_s", _TCP)),
    Layer(
        "sharding.worker_boot_ms", "ms",
        "in-process ShardWorker.boot()",
        moves=_moves("setup_s", _TCP),
    ),
    Layer(
        "sharding.worker_serve_ms", "ms",
        "slower shard's serve() of its share of a 64-request call",
        moves=_moves("routes_per_s route_p50_ms", _TCP),
    ),
    Layer(
        "sharding.coordinator_overhead_ms", "ms",
        "call latency minus slowest serve minus codec",
        moves=_moves("routes_per_s route_p50_ms", _TCP),
        workloads=_TCP,
        declared=False,
    ),
    Layer(
        "sharding.cross_shard_share", "share",
        "service.stats() cross / (cross + in) over the first ten blocks (repeats exactly)",
        moves=_moves("routes_per_s route_p50_ms", _TCP),
        workloads=_TCP,
        declared=False,
    ),
    Layer(
        "sharding.apply_diff_ms", "ms",
        "in-process ShardWorker.apply_diff(CostDiff)",
        moves=_moves("traffic_apply_p50_ms", _TCP),
    ),
    Layer(
        "overlay.apply_ms", "ms",
        "BoundaryOverlay.apply alone",
        moves=_moves("traffic_apply_p50_ms", _TCP),
    ),
    Layer(
        "shm.patch_ms", "ms",
        "SharedGraphSegment.patch",
        moves=_moves("traffic_apply_p50_ms", _TCP),
    ),
    Layer(
        "transport.encode_us", "us",
        "encode_frame of a real RouteWork + RouteResults",
        moves=_moves("routes_per_s", _TCP),
    ),
    Layer(
        "transport.decode_us", "us",
        "recv_frame of both, already buffered",
        moves=_moves("routes_per_s", _TCP),
    ),
    Layer(
        "transport.frame_bytes", "bytes",
        "both frames' sizes",
        moves=_moves("routes_per_s", _TCP),
    ),
    Layer(
        "transport.roundtrip_us", "us",
        "socketpair send_frame/recv_frame there and back",
        moves=_moves("routes_per_s", _TCP),
    ),
    Layer(
        "tracing_overhead_share", "share",
        "1 - traced / untraced block routes_per_s, alternating blocks",
    ),
)

DECLARED_END_TO_END = tuple(m for m in END_TO_END if m.declared)
DECLARED_LAYERS = tuple(m for m in LAYERS if m.declared)


def manifest() -> dict:
    """The ``BENCHMARK.json`` this registry describes."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": c.name, "why": c.why} for c in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in DECLARED_END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in DECLARED_LAYERS
        ],
    }


# ---------------------------------------------------------------------- #
# Summaries
# ---------------------------------------------------------------------- #
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
