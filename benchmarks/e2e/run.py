"""End-to-end serving benchmark: four seeded workloads, one command.

    python3 benchmarks/e2e/run.py                          # all four, untraced
    python3 benchmarks/e2e/run.py --workload grid_cold     # one workload
    python3 benchmarks/e2e/run.py --trace                  # per-layer table + span files
    python3 benchmarks/e2e/run.py --out runs.json          # append the full report

Each workload is generated from ``--seed``, driven through public functions
by one closed-loop client, checked, and reported metric by metric.  The
last line of standard output is the result object ``BENCHMARK.json``
describes (declared end-to-end metrics untraced, declared per-layer
metrics with ``--trace``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{__file__}: no src/repro under {ROOT}; run from a checkout of the repository")
sys.path[:0] = [str(path) for path in (HERE, ROOT / "src") if str(path) not in sys.path]

import numpy as np  # noqa: E402

from calibrate import Probe  # noqa: E402
from layers import l2r_layers, plain_row, replay_suite, scale_rows  # noqa: E402
from metrics import (  # noqa: E402
    DECLARED_END_TO_END,
    DECLARED_LAYERS,
    END_TO_END,
    RUN_SECONDS,
    quartiles,
)
from spans import SpanRecorder, summarize  # noqa: E402
from systems import PhaseCount, Tally, build, finish_lazy_setup  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    L2RCityConfig,
    Stream,
    environment,
    workload_rngs,
)

SETUP_REPEATS = (3, 5)
SETUP_BUDGET_S = 12.0
"""An untraced run sets up at least three times, and up to five while the
set-ups so far took under the budget; ``setup_s`` is their median."""
SETUP_PROBE_REPEATS = 9
"""Probe executions before and after a set-up: a set-up lasts seconds and
gets only these two readings, so each takes more repeats than a block's."""
OUT_DIR = HERE / "out"

ATTRIBUTION = {
    "l2r_city": [
        ("route_p50_ms", "span.service.route.self_us engine.object_us core.route_us"),
    ],
    "grid_cold": [
        (
            "route_p50_ms",
            "span.service.route.self_us engine.overhead_us kernels.sssp_us kernels.reconstruct_us",
        ),
    ],
    "grid_hot_traffic": [
        ("route_p50_ms", "cache.get_hit_us stats.record_us"),
        (
            "traffic_apply_p50_ms",
            "traffic.feed_apply_ms span.journal.log_traffic.us span.service.on_traffic_update.us",
        ),
    ],
    "sharded_tcp": [
        (
            "route_p50_ms",
            "sharding.worker_serve_ms transport.encode_us transport.decode_us "
            "transport.roundtrip_us",
        ),
        ("traffic_apply_p50_ms", "traffic.feed_apply_ms shm.patch_ms sharding.apply_diff_ms"),
    ],
}
"""Per workload: the layer rows along the blocking path of a client-visible
time.  Their sum is printed against the measured median; what is left over
is printed as unattributed."""


def peak_rss_mb() -> float:
    """This process's high-water mark plus that of its largest waited-for
    child (the shard workers; 0 for the in-process workloads)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


@dataclasses.dataclass
class BlockRecord:
    routes: int
    calls: int
    traffic: int
    seconds: float
    traced: bool
    factor: float
    """Host slowness around this block (see :mod:`calibrate`)."""


@dataclasses.dataclass
class Bench:
    """One set-up system and what the harness measures it with."""

    config: object
    system: object
    stream: Stream
    recorder: SpanRecorder | None
    probe: Probe
    scratch: Path
    setup_factor: float
    """Host factor around the set-up that built ``system``."""


@dataclasses.dataclass
class Measured:
    """What the measured phase left behind."""

    tally: Tally
    blocks: list[BlockRecord]
    observed: dict
    """Layer observations of ``after_block`` and ``finish``."""
    stats: object
    """Service counters after the first ``min_blocks`` blocks — the fixed
    prefix every run gets through, so count-type rows repeat exactly."""


def run_blocks(bench: Bench, seconds: float) -> Measured:
    """The measured phase: whole blocks until ``seconds`` have passed, at
    least ``min_blocks`` of them, the host-speed probe between blocks.  A
    traced run alternates untraced and traced blocks."""
    system, stream, probe = bench.system, bench.stream, bench.probe
    measured = Measured(Tally(), [], {}, None)
    deadline = perf_counter() + seconds
    index = 0
    # Calls served by worker processes wait for the slowest CPU, not for the
    # one this thread happens to sit on.
    slowest_cpu = system.worker_processes > 0
    before = probe.factor(slowest_cpu=slowest_cpu)
    while index < stream.config.min_blocks or perf_counter() < deadline:
        ops = system.prepare(stream.block(index))
        traced = bench.recorder is not None and index % 2 == 1
        system.set_tracing(traced)
        started = perf_counter()
        system.run_block(ops, measured.tally)
        elapsed = perf_counter() - started
        system.set_tracing(False)
        after = probe.factor(slowest_cpu=slowest_cpu)
        measured.blocks.append(
            BlockRecord(
                routes=ops.routes,
                calls=len(ops.calls),
                traffic=int(ops.updates is not None),
                seconds=elapsed,
                traced=traced,
                factor=(before + after) / 2,
            )
        )
        before = after
        measured.observed.update(system.after_block(index))
        index += 1
        if index == stream.config.min_blocks:
            measured.stats = system.stats()
    return measured


def _scaled(raw: float, value: float, unit: str, n: int, **extra) -> dict:
    return {"value": value, "raw": raw, "unit": unit, "n": n, **extra}


def summarize_phase(tally, blocks: list[BlockRecord], call_size: int) -> dict[str, dict]:
    """Block medians of per-block rates and latency percentiles, every
    timing divided (every rate multiplied) by its block's host factor.

    Percentiles are taken inside each block and the median over blocks is
    reported: this host slows down in bursts of 50-100 ms that hit a
    minority of blocks, and a percentile pooled over all calls sits right
    where those bursts end, so it flips between modes from run to run.  p99
    stays pooled; it is a diagnostic.
    """
    factors = np.array([b.factor for b in blocks])
    raw_rates = np.array([b.routes / b.seconds for b in blocks])
    q1, median, q3 = quartiles(list(raw_rates * factors))
    raw_rate = float(np.median(raw_rates))
    rows = {"routes_per_s": _scaled(raw_rate, median, "1/s", len(blocks), iqr=q3 - q1)}
    raw_ms = np.array(tally.route_s) * 1e3
    requests = len(raw_ms) * call_size
    per_block = np.split(raw_ms, np.cumsum([b.calls for b in blocks])[:-1])
    for name, q in (("route_p50_ms", 50), ("route_p95_ms", 95)):
        raw = np.array([np.percentile(calls, q) for calls in per_block])
        rows[name] = _scaled(float(np.median(raw)), float(np.median(raw / factors)), "ms", requests)
    pooled = raw_ms / np.repeat(factors, [b.calls for b in blocks])
    rows["route_p99_ms"] = _scaled(
        float(np.percentile(raw_ms, 99)), float(np.percentile(pooled, 99)), "ms", requests
    )
    if tally.traffic_s:
        raw_traffic = np.array(tally.traffic_s) * 1e3
        traffic_ms = raw_traffic / np.repeat(factors, [b.traffic for b in blocks])
        rows["traffic_apply_p50_ms"] = _scaled(
            float(np.median(raw_traffic)), float(np.median(traffic_ms)), "ms", len(traffic_ms)
        )
    return rows


def measure(config, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One run of one workload; returns the full report."""
    if smoke:
        config = config.smoke()
    rng = workload_rngs(seed)[config.name]
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    recorder = SpanRecorder() if trace else None
    probe = Probe()
    if isinstance(config, L2RCityConfig) and not smoke:
        finish_lazy_setup()

    least, most = (1, 1) if trace or smoke else SETUP_REPEATS
    setup_s, fit_s, setup_factors = [], [], []
    stream = warm = system = None
    while len(setup_s) < least or (len(setup_s) < most and sum(setup_s) < SETUP_BUDGET_S):
        if system is not None:
            system.close()
        before = probe.factor(SETUP_PROBE_REPEATS)
        started = perf_counter()
        system = build(config, recorder, scratch)
        build_s = perf_counter() - started
        if stream is None:
            stream = Stream(config, rng, system.shape())
            warm = system.prepare(stream.warmup)
        started = perf_counter()
        try:
            system.run_block(warm, Tally())
        except BaseException:
            system.close()
            raise
        setup_s.append(build_s + perf_counter() - started)
        setup_factors.append((before + probe.factor(SETUP_PROBE_REPEATS)) / 2)
        if system.fit_s is not None:
            fit_s.append(system.fit_s)

    # Move the set-up heap (tens of thousands of long-lived edge and model
    # objects) out of the collector's reach, as a serving process would after
    # loading: otherwise full collections land on random requests and p95
    # flips between two modes from run to run.
    gc.collect()
    gc.freeze()
    bench = Bench(config, system, stream, recorder, probe, scratch, setup_factors[-1])
    try:
        report = _measure_frozen(bench, seed, seconds, rng)
    finally:
        gc.unfreeze()
        with contextlib.suppress(OSError):
            scratch.rmdir()
    if not trace:
        rows = report["end_to_end"]
        q1, median, q3 = quartiles([s / f for s, f in zip(setup_s, setup_factors)])
        raw = statistics.median(setup_s)
        rows["setup_s"] = _scaled(raw, median, "s", len(setup_s), iqr=q3 - q1)
        if fit_s:
            scaled = statistics.median(s / f for s, f in zip(fit_s, setup_factors))
            rows["fit_s"] = _scaled(statistics.median(fit_s), scaled, "s", len(fit_s))
    return report


def _measure_frozen(bench: Bench, seed: int, seconds: float, rng) -> dict:
    """The measured phase, the checks and the report of a set-up system."""
    config, system = bench.config, bench.system
    try:
        system.service.reset_stats()
        measured = run_blocks(bench, seconds)
        tally = measured.tally
        phases = [
            PhaseCount("routes", tally.routes_sent, tally.routes_failed),
            PhaseCount("traffic", tally.traffic_sent, tally.traffic_failed),
            system.check(rng.spawn(1)[0]),
        ]
        more, finished = system.finish()
        phases += more
        measured.observed.update(finished)
    finally:
        system.close()

    attempted = sum(p.sent for p in phases)
    failed = sum(p.failed for p in phases)
    report = {
        "workload": config.name,
        "env": environment(ROOT, seed),
        "config": dataclasses.asdict(config),
        "network": system.shape().describe(),
        "stream_sha256": bench.stream.digest(),
        "seconds": seconds,
        "trace": bench.recorder is not None,
        "blocks": len(measured.blocks),
        "host_factor": statistics.median(b.factor for b in measured.blocks),
        "phases": [p.row() for p in phases if p.sent],
        "attempted": attempted,
        "failed": failed,
        "case_histogram": dict(measured.stats.case_histogram),
    }
    if bench.recorder is not None:
        report["layers"], replay_failed = layer_rows(bench, measured)
        report["failed"] += replay_failed
        report["attempted"] += 1
        report["attribution"] = attribute(config.name, report["layers"])
        bench.recorder.write(OUT_DIR / f"trace-{config.name}.json", config.name)
    else:
        rows = summarize_phase(tally, measured.blocks, config.call_size)
        observed = measured.observed
        if "l2r_accuracy_pct" in observed:
            rows["l2r_accuracy_pct"] = plain_row(
                observed["l2r_accuracy_pct"], "%", observed["heldout_queries"]
            )
        rows["failed_share"] = plain_row(failed / attempted, "share", attempted)
        rows["peak_rss_mb"] = plain_row(peak_rss_mb(), "MiB", 1)
        report["end_to_end"] = rows
    return report


def layer_rows(bench: Bench, measured: Measured) -> tuple[dict[str, dict], int]:
    """Everything the traced run knows per layer: live spans and counters,
    the paper's layers where fitted, and the isolated replays."""
    system, stats, blocks = bench.system, measured.stats, measured.blocks
    rows, failed = replay_suite(system, bench.stream, bench.scratch, bench.probe)
    if getattr(system, "pipeline", None) is not None:
        rows.update(l2r_layers(system, bench.stream, bench.probe, bench.setup_factor))

    rate = {
        flag: statistics.median(b.routes / b.seconds * b.factor for b in blocks if b.traced is flag)
        for flag in (False, True)
    }
    rows["tracing_overhead_share"] = plain_row(1.0 - rate[True] / rate[False], "share", len(blocks))
    for name, summary in summarize(bench.recorder.spans).items():
        rows[f"span.{name}.us"] = plain_row(summary["median_s"] * 1e6, "us", summary["count"])
        rows[f"span.{name}.self_us"] = plain_row(
            summary["self_median_s"] * 1e6, "us", summary["count"]
        )

    # Client-visible medians of this run, for the attribution below.  They
    # pool traced and untraced blocks; the end-to-end numbers proper come
    # from the untraced run.
    client = summarize_phase(measured.tally, blocks, bench.config.call_size)
    rows.update({f"client.{name}": row for name, row in client.items()})

    cache = stats.cache
    if cache.max_size:
        lookups = cache.hits + cache.misses
        rows["cache.hit_share"] = plain_row(cache.hits / lookups, "share", lookups)
        batches = stats.traffic_updates
        rows["cache.evicted_per_batch"] = plain_row(
            stats.traffic_evicted_routes / max(1, batches), "count", batches
        )
    observed = measured.observed
    if "snapshot_s" in observed:
        rows["live.durability.snapshot_ms"] = plain_row(observed["snapshot_s"] * 1e3, "ms", 1)
        rows["live.durability.recover_ms"] = plain_row(observed["recover_s"] * 1e3, "ms", 1)
    # The live rows to the reference host speed too, by the blocks' median
    # factor (replays were scaled section by section, client.* rows block by
    # block).
    scale_rows(rows, statistics.median(b.factor for b in blocks))

    def value(name: str) -> float:
        return rows[name]["value"]

    if "span.engine.route.us" in rows and "core.route_us" in rows:
        rows["engine.object_us"] = plain_row(
            value("span.engine.route.us") - value("core.route_us"), "us", rows["core.route_us"]["n"]
        )
    if stats.shards:
        served = stats.cross_shard_requests + stats.in_shard_requests
        rows["sharding.cross_shard_share"] = plain_row(
            stats.cross_shard_requests / served, "share", served
        )
        codec_ms = (value("transport.encode_us") + value("transport.decode_us")) / 1e3
        rows["sharding.coordinator_overhead_ms"] = plain_row(
            value("client.route_p50_ms") - value("sharding.worker_serve_ms") - codec_ms,
            "ms",
            rows["client.route_p50_ms"]["n"],
        )
    return rows, failed


def _as_ms(row: dict) -> float:
    return row["value"] / 1e3 if row["unit"] == "us" else row["value"]


def attribute(workload: str, rows: dict[str, dict]) -> list[dict]:
    """Sum the blocking-path layer rows against the client-visible median."""
    out = []
    for target, parts in ATTRIBUTION[workload]:
        measured = rows.get(f"client.{target}")
        if measured is None:
            continue
        present = {name: _as_ms(rows[name]) for name in parts.split() if name in rows}
        out.append({
            "target": target,
            "measured_ms": measured["value"],
            "parts_ms": present,
            "unattributed_ms": measured["value"] - sum(present.values()),
        })
    return out


# ---------------------------------------------------------------------- #
# Output
# ---------------------------------------------------------------------- #
def print_report(report: dict) -> None:
    network = report["network"]
    print(
        f"\n== {report['workload']}  seed {report['env']['seed']}  "
        f"{network['vertices']} vertices / {network['edges']} edges  "
        f"out-degree {network['out_degree_histogram']}  stream {report['stream_sha256'][:12]}"
    )
    for phase in report["phases"]:
        print(
            f"   phase {phase['phase']:<18} sent {phase['sent']:>7}  "
            f"ok {phase['succeeded']:>7}  failed {phase['failed']}"
        )
    if "end_to_end" in report:
        bounds = {m.name: m for m in END_TO_END}
        for name, row in report["end_to_end"].items():
            iqr = f"  block iqr {row['iqr']:.4g}" if "iqr" in row else ""
            if "raw" in row:
                iqr = f"  raw {row['raw']:.6g}{iqr}"
            meta = bounds.get(name)
            bound = f"  bound {meta.bound:.0%} {meta.better}" if meta else "  diagnostic"
            print(f"   {name:<24} {row['value']:>14.6g} {row['unit']:<6} n={row['n']}{iqr}{bound}")
        for meta in END_TO_END:
            if meta.name not in report["end_to_end"]:
                print(f"   {meta.name:<24} {'null':>14}")
    for name, row in sorted(report.get("layers", {}).items()):
        print(f"   {name:<40} {row['value']:>14.6g} {row['unit']:<6} n={row['n']}")
    for item in report.get("attribution", []):
        parts = " + ".join(f"{name} {value:.4g}" for name, value in item["parts_ms"].items())
        print(
            f"   blocking path of {item['target']}: measured {item['measured_ms']:.4g} ms "
            f"= {parts} + unattributed {item['unattributed_ms']:.4g} ms"
        )


def result_line(report: dict) -> str:
    """The object ``BENCHMARK.json`` promises on the last line of stdout."""
    if report["trace"]:
        source, wanted = report["layers"], DECLARED_LAYERS
    else:
        source, wanted = report["end_to_end"], DECLARED_END_TO_END
    metrics = {m.name: {"value": source[m.name]["value"], "unit": m.unit} for m in wanted}
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def append_run(path: Path, report: dict) -> None:
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(report)
    path.write_text(json.dumps({"runs": runs}, indent=1))


CHILD_EXIT_TIMEOUT_S = 20.0


def child_pids() -> set[int]:
    """Direct children of this process, running or not yet waited for."""
    pids: set[int] = set()
    for listing in Path("/proc/self/task").glob("*/children"):
        with contextlib.suppress(OSError):
            pids.update(int(pid) for pid in listing.read_text().split())
    return pids


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``ShardedRoutingService.close`` joins its workers, but ``multiprocessing``
    also starts a resource tracker (for the shared-memory segment) that only
    exits some time *after* its parent has: left alone it outlives the run.
    """
    for process in multiprocessing.active_children():
        process.terminate()
        process.join(CHILD_EXIT_TIMEOUT_S)
    # Whatever else is left (a worker whose spawn an interrupt cut short is
    # not among ``active_children``) would keep the tracker's pipe open.
    tracker = resource_tracker._resource_tracker
    for pid in child_pids() - {tracker._pid}:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    # Closes the tracker's keep-alive pipe and waits for it; a no-op when no
    # tracker was started (the three in-process workloads).
    tracker._stop()
    deadline = perf_counter() + CHILD_EXIT_TIMEOUT_S
    while perf_counter() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left, running or unreaped
        if pid == 0:
            sleep(0.05)
    raise RuntimeError("a child process is still running at exit")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    add = parser.add_argument
    add("--workload", choices=[c.name for c in WORKLOADS], help="default: all four")
    add("--seed", type=int, default=7)
    add("--seconds", type=float, default=RUN_SECONDS, help="measured phase per workload")
    add("--trace", nargs="?", type=int, const=1, default=0, help="per-layer run (0 or 1)")
    add("--smoke", action="store_true", help="1/50-size pass, one set-up, minimum blocks")
    add("--out", type=Path, help="append the full report(s) to this JSON file")
    args = parser.parse_args(argv)

    if args.workload is None:
        # One process per workload, as the driver runs them: peak RSS is a
        # per-process high-water mark and the heap of one workload would
        # otherwise sit under the next.
        passed = sys.argv[1:] if argv is None else argv
        command = [sys.executable, __file__, *passed, "--workload"]
        return max(subprocess.run([*command, config.name]).returncode for config in WORKLOADS)
    config = next(c for c in WORKLOADS if c.name == args.workload)
    seconds = 0.0 if args.smoke else args.seconds
    # A terminated run leaves through the same ``finally`` as a finished one.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        report = measure(config, args.seed, seconds, bool(args.trace), args.smoke)
    finally:
        stop_children()
    print_report(report)
    if args.out is not None:
        append_run(args.out, report)
    print(result_line(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
