"""Isolated replays: each layer's public function timed on a workload's inputs.

The same suite runs for every workload, on a private copy of that workload's
network at its final cost version and on a sample of that workload's own
request stream, so one layer can be compared across networks of different
size and shape.  Nothing here is on the measured path of the end-to-end
run; the numbers say what a layer costs when called directly, which is what
the live spans' self times are attributed against.
"""

from __future__ import annotations

import pickle
import shutil
import socket
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.baselines.cost_centric import FastestBaseline, ShortestBaseline
from repro.network.compiled import dijkstra_many, shm, shortest_paths_many
from repro.routing import (
    CostFeature,
    astar_by_feature,
    bidirectional_by_feature,
    ch_shortest_path,
    cost_function,
    fastest_path,
    preference_dijkstra,
    shortest_path,
)
from repro.routing.costs import FEATURE_EDGE_ATTRIBUTES
from repro.service import (
    DurabilityManager,
    RouteCache,
    RouteRequest,
    RoutingService,
    StatsAccumulator,
)
from repro.service.durability import final_state, states_identical
from repro.service.sharding import build_shard_plan
from repro.service.sharding.protocol import CostDiff, RouteWork, WorkerPayload
from repro.service.sharding.transport import encode_frame, recv_frame, send_frame
from repro.service.sharding.worker import ShardWorker
from repro.traffic import TrafficFeed

from spans import SpanRecorder, TimedEngine, TimedJournal, summarize
from systems import ENGINE_FEATURES, updates_of
from workloads import ENGINES, Stream

SAMPLE_ODS = 256
REPLAY_BATCHES = 8
REPLAY_EDGES = 32
CALL_SIZE = 64
SERVE_CALLS = 8
CODEC_REPEATS = 50
CH_MAX_VERTICES = 4000
"""Building the hierarchy takes ~6 s on 3,600 vertices and grows faster than
linearly, so the CH rows of the kernel scoreboard skip larger networks."""

DIRECT = {CostFeature.TRAVEL_TIME: fastest_path, CostFeature.DISTANCE: shortest_path}


def _each(function, items) -> list[float]:
    """Seconds taken by ``function(*item)`` for every item."""
    out = []
    for item in items:
        started = perf_counter()
        function(*item)
        out.append(perf_counter() - started)
    return out


def _timed(function, *args, **kwargs):
    started = perf_counter()
    result = function(*args, **kwargs)
    return result, perf_counter() - started


def _row(seconds: list[float] | float, unit: str, n: int | None = None) -> dict:
    """A layer metric from timings in seconds, scaled to ``us`` or ``ms``."""
    values = seconds if isinstance(seconds, list) else [seconds]
    scale = {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
    return {"value": statistics.median(values) * scale, "unit": unit, "n": n or len(values)}


def plain_row(value: float, unit: str, n: int) -> dict:
    """A metric row from a value already in its unit."""
    return {"value": float(value), "unit": unit, "n": n}


def _absolute(network, edges: np.ndarray, factors: np.ndarray) -> dict:
    """A traffic batch as the absolute values ``update_edge_costs`` takes."""
    return {
        (int(u), int(v)): {"travel_time_s": network.edge(int(u), int(v)).travel_time_s * float(f)}
        for (u, v), f in zip(edges, factors)
    }


def scale_rows(rows: dict[str, dict], factor: float) -> None:
    """Bring the timings not yet scaled to the reference host speed (see
    :mod:`calibrate`), keeping each raw reading beside the scaled one."""
    for row in rows.values():
        if "raw" not in row and row["unit"] in ("us", "ms", "s"):
            row["raw"] = row["value"]
            row["value"] /= factor


def replay_suite(system, stream: Stream, scratch: Path, probe) -> tuple[dict[str, dict], int]:
    """Every uniform layer metric for one workload; returns rows and the
    number of replay self-checks that failed.  Each section's timings are
    scaled by the host factor probed just before and after it."""
    blob = pickle.dumps(system.network)
    rows: dict[str, dict] = {}
    failed = 0
    reading = probe.factor()

    def settle() -> None:
        nonlocal reading
        now = probe.factor()
        scale_rows(rows, (reading + now) / 2)
        reading = now

    # ---- network: cold compile, landmark build -------------------------- #
    compile_s, landmark_s = [], []
    for _ in range(2):
        network = pickle.loads(blob)
        compile_s.append(_timed(network.compiled)[1])
        landmark_s.append(_timed(network.prepare_landmarks)[1])
    rows["network.compile_ms"] = _row(compile_s, "ms")
    rows["landmarks.build_ms"] = _row(landmark_s, "ms")
    graph = network.compiled()
    settle()

    # ---- the sample: this workload's own ODs ----------------------------- #
    ods = np.concatenate([stream.block(i).ods for i in range(3)])
    engine_ids = np.concatenate([stream.block(i).engine_ids for i in range(3)])
    names = [ENGINES[i] if i >= 0 else "Fastest" for i in engine_ids]
    sample = [(int(s), int(d), ENGINE_FEATURES[name]) for (s, d), name in zip(ods, names)]
    kernel_sample = sample[:SAMPLE_ODS]

    # ---- routing + kernels ---------------------------------------------- #
    rows["routing.dijkstra_us"] = _row(
        _each(lambda s, d, f: DIRECT[f](network, s, d), kernel_sample), "us"
    )
    sssp_s, pair_s = [], []
    for s, d, feature in kernel_sample:
        key, array, version = graph.resolve_cost(cost_function(feature))
        si, di = graph.index_of[s], graph.index_of[d]
        sssp_s.append(_timed(dijkstra_many, graph, key, array, version, [si])[1])
        pair_s.append(_timed(shortest_paths_many, graph, key, array, version, [(si, di)])[1])
    rows["kernels.sssp_us"] = _row(sssp_s, "us")
    rows["kernels.reconstruct_us"] = _row([p - q for p, q in zip(pair_s, sssp_s)], "us")
    rows["routing.astar_alt_us"] = _row(
        _each(lambda s, d, f: astar_by_feature(network, s, d, f), kernel_sample), "us"
    )
    rows["routing.bidirectional_us"] = _row(
        _each(lambda s, d, f: bidirectional_by_feature(network, s, d, f), kernel_sample), "us"
    )
    settle()

    # ---- engine and service object overhead ------------------------------ #
    engines = {
        "Fastest": FastestBaseline(network).as_engine(),
        "Shortest": ShortestBaseline(network).as_engine(),
    }
    requests = [RouteRequest(source=s, destination=d) for s, d, _ in kernel_sample]
    # Back to back per pair, alternating which goes first: the difference is
    # tens of microseconds on a call of hundreds, so host bursts must cancel.
    overhead_s = []
    for index, (request, name, pair) in enumerate(zip(requests, names, kernel_sample)):
        source, destination, feature = pair
        if index % 2:
            direct_s = _timed(DIRECT[feature], network, source, destination)[1]
            engine_s = _timed(engines[name].route, request)[1]
        else:
            engine_s = _timed(engines[name].route, request)[1]
            direct_s = _timed(DIRECT[feature], network, source, destination)[1]
        overhead_s.append(engine_s - direct_s)
    rows["engine.overhead_us"] = _row(overhead_s, "us")

    recorder = SpanRecorder()
    recorder.enabled = True
    service = RoutingService(enable_cache=False)
    for name, engine in engines.items():
        service.register(name, TimedEngine(engine, recorder))
    route = recorder.wrap("service.route", service.route)
    responses = [route(request, name) for request, name in zip(requests, names)]
    rows["service.overhead_us"] = _row(
        summarize(recorder.spans)["service.route"]["self_median_s"], "us", len(requests)
    )
    recorder.enabled = False
    many_s = [_timed(service.route_many, requests, "Fastest")[1] / len(requests) for _ in range(3)]
    rows["service.route_many_us_per_route"] = _row(many_s, "us")
    service.close()
    settle()

    # ---- cache and stats objects ----------------------------------------- #
    cache = RouteCache(max_size=2048)
    rows["cache.put_us"] = _row(
        _each(lambda r: cache.put(r.engine, r), [(r,) for r in responses]), "us"
    )
    rows["cache.get_hit_us"] = _row(
        _each(lambda r: cache.get(r.engine, r.request), [(r,) for r in responses]), "us"
    )
    batches = stream.replay_batches(REPLAY_BATCHES * 3, REPLAY_EDGES)
    invalidate_s = []
    for edges, _ in batches[:REPLAY_BATCHES]:
        # Distinct engine names multiply the sample into a full cache.
        for copy in range(-(-2048 // len(responses))):
            for response in responses:
                cache.put(f"{response.engine}-{copy}", response)
        touched = {(int(u), int(v)) for u, v in edges}
        invalidate_s.append(_timed(cache.invalidate_edges, touched, threshold=64)[1])
    rows["cache.invalidate_ms"] = _row(invalidate_s, "ms")
    accumulator = StatsAccumulator()
    rows["stats.record_us"] = _row(_each(accumulator.record, [(r,) for r in responses]), "us")
    settle()

    # ---- traffic write path ----------------------------------------------- #
    patch_s = [
        _timed(network.update_edge_costs, _absolute(network, edges, factors))[1]
        for edges, factors in batches[:REPLAY_BATCHES]
    ]
    rows["network.patch_ms"] = _row(patch_s, "ms")
    feed = TrafficFeed(network)
    feed_s = [
        _timed(feed.apply, updates_of(edges, factors))[1]
        for edges, factors in batches[REPLAY_BATCHES : 2 * REPLAY_BATCHES]
    ]
    rows["traffic.feed_apply_ms"] = _row(feed_s, "ms")
    settle()

    # ---- durability -------------------------------------------------------- #
    durability_rows, replay_failed = _durability(network, batches[2 * REPLAY_BATCHES :], scratch)
    rows.update(durability_rows)
    failed += replay_failed
    settle()

    # ---- sharding, shared memory, transport ------------------------------ #
    rows.update(_sharding(network, sample, stream))
    settle()

    # ---- contraction hierarchy (kernel scoreboard) ----------------------- #
    if network.vertex_count <= CH_MAX_VERTICES:
        hierarchy, build_s = _timed(network.prepare_hierarchy, CostFeature.TRAVEL_TIME)
        rows["ch.build_ms"] = _row(build_s, "ms")
        rows["ch.query_us"] = _row(
            _each(lambda s, d, f: ch_shortest_path(network, s, d, hierarchy), kernel_sample), "us"
        )
        reweight_s = []
        for edges, factors in stream.replay_batches(3, REPLAY_EDGES):
            network.update_edge_costs(_absolute(network, edges, factors))
            reweight_s.append(_timed(network.prepare_hierarchy, CostFeature.TRAVEL_TIME)[1])
        rows["ch.reweight_ms"] = _row(reweight_s, "ms")
        settle()
    return rows, failed


def _durability(network, batches, scratch: Path) -> tuple[dict[str, dict], int]:
    """WAL append, snapshot and recovery on a private feed."""
    directory = scratch / "replay-durability"
    shutil.rmtree(directory, ignore_errors=True)
    pristine = pickle.dumps(network)
    recorder = SpanRecorder()
    recorder.enabled = True
    feed = TrafficFeed(network)
    half = len(batches) // 2
    rows: dict[str, dict] = {}
    try:
        with DurabilityManager(directory, fsync="interval") as manager:
            feed.attach_journal(TimedJournal(manager, recorder))
            for edges, factors in batches[:half]:
                feed.apply(updates_of(edges, factors))
            wal_bytes = sum(f.stat().st_size for f in (directory / "wal").rglob("*") if f.is_file())
            rows["durability.wal_bytes_per_batch"] = plain_row(wal_bytes / half, "bytes", half)
            rows["durability.snapshot_ms"] = _row(_timed(manager.snapshot, network)[1], "ms")
            for edges, factors in batches[half:]:
                feed.apply(updates_of(edges, factors))
        log_s = [span[4] - span[3] for span in recorder.spans]
        rows["durability.log_ms"] = _row(log_s, "ms")
        recovered = pickle.loads(pristine)
        with DurabilityManager(directory, fsync="interval") as manager:
            rows["durability.recover_ms"] = _row(
                _timed(manager.recover, recovered, TrafficFeed(recovered))[1], "ms"
            )
        identical = states_identical(final_state(recovered), final_state(network))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return rows, 0 if identical else 1


def _sharding(network, sample, stream: Stream) -> dict[str, dict]:
    """Plan, segment export, two in-process workers, diffs and the codec."""
    rows: dict[str, dict] = {}
    plan, plan_s = _timed(build_shard_plan, network, 2)
    rows["sharding.plan_ms"] = _row(plan_s, "ms")
    graph = network.compiled()
    blob = pickle.dumps(network)
    started = perf_counter()
    with shm.export_graph(graph, cost_version=network.cost_version) as segment:
        rows["shm.export_ms"] = _row(perf_counter() - started, "ms")
        workers = []
        try:
            boot_s = []
            for shard_id in range(plan.shard_count):
                payload = WorkerPayload(
                    worker_id=shard_id, shard_id=shard_id, plan=plan,
                    network=pickle.loads(blob), spec=segment.spec, cache_size=0,
                )
                worker = ShardWorker(payload, transport=None)
                boot_s.append(_timed(worker.boot)[1])
                workers.append(worker)
            rows["sharding.worker_boot_ms"] = _row(boot_s, "ms")

            # One shard's share of a 64-request call; the slower worker sets
            # the call's time, so the per-call maximum is what is reported.
            slowest_s = []
            work = results = None
            for call in range(SERVE_CALLS):
                chunk = sample[call * CALL_SIZE : (call + 1) * CALL_SIZE]
                if not chunk:
                    break
                by_shard: dict[int, list[int]] = {}
                for position, (source, _, _) in enumerate(chunk):
                    by_shard.setdefault(plan.shard_of(source), []).append(position)
                serve_s = []
                for shard_id, positions in by_shard.items():
                    work = RouteWork(
                        task_id=call * plan.shard_count + shard_id,
                        engine="Fastest",
                        requests=tuple(
                            RouteRequest(source=chunk[p][0], destination=chunk[p][1])
                            for p in positions
                        ),
                        positions=tuple(positions),
                    )
                    results, seconds = _timed(workers[shard_id].serve, work)
                    serve_s.append(seconds)
                slowest_s.append(max(serve_s))
            rows["sharding.worker_serve_ms"] = _row(slowest_s, "ms")

            feed = TrafficFeed(network)
            patch_s, diff_s, overlay_s = [], [], []
            attributes = tuple(FEATURE_EDGE_ATTRIBUTES.values())
            for edges, factors in stream.replay_batches(4, REPLAY_EDGES):
                base_version = network.cost_version
                result = feed.apply(updates_of(edges, factors))
                slots = [graph.topology.slot_of[key] for key in result.touched_edges]
                patch_s.append(_timed(segment.patch, graph, slots, result.cost_version)[1])
                diff = CostDiff(
                    version=result.cost_version,
                    base_version=base_version,
                    changes=tuple(
                        (key, tuple((a, float(getattr(network.edge(*key), a))) for a in attributes))
                        for key in sorted(result.touched_edges)
                    ),
                )
                diff_s.append(_timed(workers[0].apply_diff, diff)[1])
                # The second worker takes the same two steps apply_diff does,
                # so the overlay's share can be timed on its own.
                changes = diff.as_updates()
                workers[1].network.update_edge_costs(changes)
                overlay_s.append(_timed(workers[1].overlay.apply, changes)[1])
                workers[1].version = diff.version
            rows["shm.patch_ms"] = _row(patch_s, "ms")
            rows["sharding.apply_diff_ms"] = _row(diff_s, "ms")
            rows["overlay.apply_ms"] = _row(overlay_s, "ms")
        finally:
            for worker in workers:
                worker.close()
    rows.update(_transport(work, results))
    return rows


def _transport(work: RouteWork, results) -> dict[str, dict]:
    """Frame codec and a socketpair round trip of one real work / results pair."""
    encode_s = [
        _timed(encode_frame, work)[1] + _timed(encode_frame, results)[1]
        for _ in range(CODEC_REPEATS)
    ]
    frame_bytes = len(encode_frame(work)) + len(encode_frame(results))
    left, right = socket.socketpair()
    try:
        trip_s, decode_s = [], []
        for _ in range(CODEC_REPEATS):
            started = perf_counter()
            send_frame(left, work)
            recv_frame(right, 1.0)
            send_frame(right, results)
            recv_frame(left, 1.0)
            trip_s.append(perf_counter() - started)
            # Decode alone: the frame is already in the socket buffer.
            send_frame(left, work)
            send_frame(right, results)
            decode_s.append(_timed(recv_frame, right, 1.0)[1] + _timed(recv_frame, left, 1.0)[1])
    finally:
        left.close()
        right.close()
    return {
        "transport.encode_us": _row(encode_s, "us"),
        "transport.decode_us": _row(decode_s, "us"),
        "transport.roundtrip_us": _row(trip_s, "us"),
        "transport.frame_bytes": plain_row(frame_bytes, "bytes", 1),
    }


def l2r_layers(system, stream: Stream, probe, fit_factor: float) -> dict[str, dict]:
    """The paper's own layers on ``l2r_city``: offline phases of the timed
    fit (scaled by the host factor around that set-up), direct pipeline
    routing, and the preference search."""
    pipeline = system.pipeline
    timings = pipeline.offline_timings
    before = probe.factor()
    rows = {
        "regions.region_graph_s": _row(timings.region_graph_s, "s"),
        "preferences.learning_s": _row(timings.preference_learning_s, "s"),
        "preferences.transfer_s": _row(timings.preference_transfer_s, "s"),
        "preferences.materialize_s": _row(timings.path_materialization_s, "s"),
    }
    scale_rows(rows, fit_factor)
    ods = [(int(s), int(d)) for s, d in stream.block(0).ods[:SAMPLE_ODS]]
    diagnostics = []
    route_s = []
    for source, destination in ods:
        (_, diagnostic), seconds = _timed(pipeline.route_with_diagnostics, source, destination)
        diagnostics.append(diagnostic)
        route_s.append(seconds)
    rows["core.route_us"] = _row(route_s, "us")
    count = len(diagnostics)
    for name, hit in (
        ("core.cross_region_share", lambda d: d.region_hops > 0),
        ("core.b_edge_share", lambda d: d.used_b_edges > 0),
        ("core.fallback_share", lambda d: d.case == "fallback-fastest"),
    ):
        rows[name] = plain_row(sum(map(hit, diagnostics)) / count, "share", count)
    # Connector searches: same-region pairs under that region graph's most
    # common learned preference.
    preferences = [
        edge.preference for edge in pipeline.region_graph.edges() if edge.preference is not None
    ]
    pairs = [
        (s, d) for s, d in ods
        if pipeline.region_of(s) is not None and pipeline.region_of(s) == pipeline.region_of(d)
    ]
    if preferences and pairs:
        preference = Counter(preferences).most_common(1)[0][0]
        rows["routing.preference_us"] = _row(
            _each(lambda s, d: preference_dijkstra(system.network, s, d, preference), pairs), "us"
        )
    scale_rows(rows, (before + probe.factor()) / 2)
    return rows
