"""CI guard: fail when a benchmark speedup ratio regresses past tolerance.

Compares a freshly produced routing benchmark JSON against a committed
baseline and fails when any *speedup ratio* — the fault-free
plain-vs-resilient throughput ratio (``bench_resilience.py``), say, or the
sharded-vs-single-process one (``bench_sharded_serving.py``) — drops by more
than ``--max-slowdown`` (default 30%).  Ratios, not absolute timings, are
compared: both sides of a ratio come from the same machine and run, which
makes the guard robust to CI hardware variance.  Only grids present in both
reports (matched by ``rows x cols``) are compared, so a smoke baseline guards
smoke runs — but a whole section (``resilience``, ``sharded``, ...) that the
baseline has and the fresh run lacks fails the guard: deleting or skipping a
benchmark script must not silently drop its gate (delete the section from
the baseline with it).

Usage::

    python benchmarks/check_bench_regression.py \
        --baseline benchmarks/BENCH_baseline_smoke.json \
        --fresh BENCH_routing.json --max-slowdown 0.30
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def collect_ratios(report: dict) -> dict[str, float]:
    """Flatten every named speedup ratio of one benchmark report."""
    ratios: dict[str, float] = {}
    for grid in report.get("resilience", {}).get("grids", []):
        label = f"{grid['rows']}x{grid['cols']}"
        # plain/resilient throughput on the fault-free path: ~1.0 when the
        # resilience layer is near-free, shrinking as its overhead grows —
        # higher-is-better like every other ratio here.
        ratio = grid.get("faultfree_throughput_ratio")
        if ratio:
            ratios[f"resilience/{label}/faultfree_throughput"] = float(ratio)
    for grid in report.get("durability", {}).get("grids", []):
        label = f"{grid['rows']}x{grid['cols']}"
        # plain/journaled throughput on the mixed serving workload: ~1.0
        # when write-ahead journaling is near-free, shrinking as its
        # overhead grows — higher-is-better like every other ratio here.
        ratio = grid.get("journaled_vs_plain_throughput_ratio")
        if ratio:
            ratios[f"durability/{label}/journaled_throughput"] = float(ratio)
    for grid in report.get("sharded", {}).get("grids", []):
        label = f"{grid['rows']}x{grid['cols']}"
        # Sharded-vs-single-process throughput per worker count, plus the
        # cross-shard/in-shard throughput split — all same-run, same-machine
        # ratios (higher is better).
        for entry in grid.get("workers", []):
            speedup = entry.get("throughput_vs_single")
            if speedup:
                ratios[f"sharded/{label}/{entry['workers']}w_throughput"] = float(speedup)
        split = grid.get("cross_vs_in_shard_throughput_ratio")
        if split:
            ratios[f"sharded/{label}/cross_vs_in_shard"] = float(split)
    return ratios


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument("--fresh", required=True, help="freshly produced JSON")
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=0.30,
        help="tolerated fractional drop of any speedup ratio (0.30 = 30%%)",
    )
    args = parser.parse_args(argv)

    baseline = collect_ratios(json.loads(Path(args.baseline).read_text()))
    fresh = collect_ratios(json.loads(Path(args.fresh).read_text()))

    comparable = sorted(set(baseline) & set(fresh))
    if not comparable:
        print(
            f"ERROR: no comparable speedup ratios between {args.baseline} "
            f"({sorted(baseline)}) and {args.fresh} ({sorted(fresh)}); "
            "the baseline grids must match the fresh run's grids",
            file=sys.stderr,
        )
        return 2

    failures = []
    for key in comparable:
        floor = baseline[key] * (1.0 - args.max_slowdown)
        status = "ok" if fresh[key] >= floor else "REGRESSED"
        print(
            f"  {key:>40}: baseline {baseline[key]:7.3f}x  fresh {fresh[key]:7.3f}x  "
            f"floor {floor:6.3f}x  {status}"
        )
        if fresh[key] < floor:
            failures.append(key)

    missing = sorted(set(baseline) - set(fresh))
    if missing:
        print(f"note: ratios only in baseline (not compared): {missing}")
    dropped = sorted(
        {key.split("/")[0] for key in baseline} - {key.split("/")[0] for key in fresh}
    )
    if dropped:
        print(
            f"FAIL: section(s) {dropped} are in the baseline but absent from the "
            "fresh run; a deleted benchmark takes its baseline section with it",
            file=sys.stderr,
        )

    if failures:
        print(
            f"FAIL: {len(failures)} speedup ratio(s) dropped more than "
            f"{args.max_slowdown:.0%} below baseline: {failures}",
            file=sys.stderr,
        )
    if failures or dropped:
        return 1
    print(f"bench regression guard passed ({len(comparable)} ratios within tolerance)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
