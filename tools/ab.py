"""Alternating A/B runs of the end-to-end benchmark, appended to ``BENCH_e2e.json``.

    python -m tools.ab --base REV --workload grid_hot_traffic --seed 7 --seconds 10 --pairs 5
    python -m tools.ab --base REV --workload l2r_city grid_cold grid_hot_traffic sharded_tcp
    python -m tools.ab --table

Checks ``REV`` out into a temporary ``git worktree`` and, for each of
``--pairs`` pairs and each workload, runs ``benchmarks/e2e/run.py --workload W
--seed S --seconds T --out`` once in that tree (A, the base) and once in this
repository's working tree (B, the change, uncommitted edits included), A
first in even pairs and B first in odd ones, so drift favours neither.  The
verdicts come from ``benchmarks/e2e/compare.py`` of the working tree,
unchanged.  One record per invocation is appended to ``BENCH_e2e.json`` at the
repository root: both commits (and, for an uncommitted change, the sha256
of its diff), the seed, the pairs, and per workload the host
factors, every pair's values and, per end-to-end metric, both medians and
quartiles, B/A, the number of pairs B won and the verdict.

It runs what it is told and records every run: it picks no seed, drops no
pair and retries nothing.  A run that exits non-zero is recorded with its
exit status, and its pair then carries no values.

``--table`` runs nothing: it prints the README's numbers table, per workload
the change side's medians in the newest record that holds the workload, and
names those records.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
RECORD = ROOT / "BENCH_e2e.json"

sys.path.insert(0, str(E2E))

import compare  # noqa: E402
from metrics import END_TO_END, quartiles, spread  # noqa: E402


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def head_block(root: Path = ROOT, record: str = RECORD.name) -> dict:
    """The change side of a record: the commit of ``root``'s working tree
    and whether its tracked files differ from it; when they do, also the
    sha256 of ``git diff HEAD``, which names the edit that was measured.
    The record file ``record`` itself is left out of both, so the records
    that consecutive invocations append over one edit name the same diff."""
    pathspec = ["--", ".", f":(exclude){record}"]
    block: dict = {
        "commit": git("rev-parse", "HEAD", cwd=root),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no", *pathspec, cwd=root)),
    }
    if block["dirty"]:
        diff = subprocess.run(
            ["git", "diff", "HEAD", *pathspec], cwd=root, check=True, capture_output=True
        ).stdout
        block["diff_sha256"] = hashlib.sha256(diff).hexdigest()
    return block


def run_once(tree: Path, workload: str, seed: int, seconds: float, out: Path) -> dict:
    """One ``run.py`` process in ``tree``; its exit status and report."""
    command = [
        sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--out", str(out),
    ]
    status = subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL).returncode
    report = compare.load(out)[-1] if out.exists() else None
    return {"exit": status, "report": report}


def summarise(pairs: list[tuple[dict, dict]]) -> dict:
    """One workload's pairs as the record holds them."""
    complete = [(a["report"], b["report"]) for a, b in pairs if a["report"] and b["report"]]
    base = [a for a, _ in complete]
    head = [b for _, b in complete]
    summary: dict = {
        "exit": [[a["exit"], b["exit"]] for a, b in pairs],
        "complete_pairs": len(complete),
        "stream_sha256_identical": len({r["stream_sha256"] for r in base + head}) == 1,
        "host_factor": {
            "base": [r["host_factor"] for r in base],
            "head": [r["host_factor"] for r in head],
        },
        "failed_operations": {
            "base": [r["failed"] for r in base],
            "head": [r["failed"] for r in head],
        },
        "metrics": {},
    }
    for metric in END_TO_END:
        a = [r["end_to_end"][metric.name]["value"] for r in base if metric.name in r["end_to_end"]]
        b = [r["end_to_end"][metric.name]["value"] for r in head if metric.name in r["end_to_end"]]
        if not a or len(a) != len(b):
            continue
        verdict, worse_by = compare.verdict(metric, a, b)
        better = (lambda x, y: y > x) if metric.better == "higher" else (lambda x, y: y < x)
        qa, qb = quartiles(a), quartiles(b)
        summary["metrics"][metric.name] = {
            "unit": metric.unit,
            "better": metric.better,
            "bound": metric.bound,
            "base": {"q1": qa[0], "median": qa[1], "q3": qa[2], "iqr_share": spread(a)},
            "head": {"q1": qb[0], "median": qb[1], "q3": qb[2], "iqr_share": spread(b)},
            "ratio": qb[1] / qa[1] if qa[1] else None,
            "wins": sum(better(x, y) for x, y in zip(a, b)),
            "verdict": verdict,
            "worse_by": worse_by,
            "pairs": [[x, y] for x, y in zip(a, b)],
        }
    return summary


#: The README table's rows: each workload and what it stresses.
ROLES = {
    "l2r_city": "fit + L2R region routing, 576-vertex city",
    "grid_cold": "kernel-bound: 100×100 grid, cache off",
    "grid_hot_traffic": "cache hits + live traffic, 60×60 grid",
    "sharded_tcp": "2 shard workers over TCP; an operation is one `route_many(64)`",
}

#: The README table's columns: metric, heading, format of the median.
COLUMNS = (
    ("routes_per_s", "routes/s", "{:,.0f}"),
    ("route_p50_ms", "route p50 ms", "{:#.3g}"),
    ("route_p95_ms", "route p95 ms", "{:#.3g}"),
    ("setup_s", "setup s", "{:.2f}"),
    ("peak_rss_mb", "peak RSS MiB", "{:.0f}"),
)


def table(records: list[dict]) -> str:
    """The README numbers table from ``records`` (oldest first), then a line
    naming the record each row comes from."""
    lines = [
        "| workload | what it stresses | " + " | ".join(head for _, head, _ in COLUMNS) + " |",
        "| --- | --- |" + " --- |" * len(COLUMNS),
    ]
    sources = []
    for workload, role in ROLES.items():
        holding = [n for n, record in enumerate(records, 1) if workload in record["workloads"]]
        if not holding:
            continue
        number = holding[-1]
        record = records[number - 1]
        summary = record["workloads"][workload]
        cells = [form.format(summary["metrics"][name]["head"]["median"]) for name, _, form in COLUMNS]
        lines.append(f"| `{workload}` | {role} | " + " | ".join(cells) + " |")
        sources.append(
            f"`{workload}`: record {number} (seed {record['seed']}, "
            f"{summary['complete_pairs']} pairs)"
        )
    return "\n".join(lines) + "\n\nRows from " + "; ".join(sources) + "."


def print_summary(workload: str, summary: dict) -> None:
    pairs = summary["complete_pairs"]
    print(f"{workload}: {pairs} complete pairs, digests "
          f"{'identical' if summary['stream_sha256_identical'] else 'DIFFERENT'}")
    for name, row in summary["metrics"].items():
        ratio = f"{row['ratio']:.4f}" if row["ratio"] is not None else "n/a"
        print(f"  {name:<22} A {row['base']['median']:<12.5g} B {row['head']['median']:<12.5g}"
              f" B/A {ratio:<8} wins {row['wins']}/{pairs}  {row['verdict']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="the revision to compare against (A)")
    parser.add_argument("--workload", nargs="+")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--table", action="store_true",
                        help=f"print the README numbers table from {RECORD.name} and exit")
    args = parser.parse_args(argv)
    if args.table:
        print(table(json.loads(RECORD.read_text())["records"]))
        return 0
    if args.base is None or args.workload is None or args.seed is None:
        parser.error("--base, --workload and --seed are required unless --table is given")

    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "base": {"rev": args.base, "commit": git("rev-parse", f"{args.base}^{{commit}}")},
        "head": head_block(),
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "order": "per pair and workload: base first in even pairs, head first in odd",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        base_tree = Path(scratch) / "base"
        git("worktree", "add", "--detach", str(base_tree), record["base"]["commit"])
        try:
            runs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in args.workload}
            for pair in range(args.pairs):
                for workload in args.workload:
                    sides = [(base_tree, "a"), (ROOT, "b")][:: 1 if pair % 2 == 0 else -1]
                    done = {
                        side: run_once(tree, workload, args.seed, args.seconds,
                                       Path(scratch) / f"{side}-{workload}-{pair}.json")
                        for tree, side in sides
                    }
                    a, b = done["a"], done["b"]
                    runs[workload].append((a, b))
                    print(f"pair {pair + 1}/{args.pairs} {workload}: exit {a['exit']} / {b['exit']}",
                          flush=True)
        finally:
            git("worktree", "remove", "--force", str(base_tree))
    for workload, pairs in runs.items():
        record["workloads"][workload] = summary = summarise(pairs)
        print_summary(workload, summary)

    history = json.loads(RECORD.read_text()) if RECORD.exists() else {"records": []}
    history["records"].append(record)
    RECORD.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended record {len(history['records'])} to {RECORD.name}")
    failed = any(a["exit"] or b["exit"] for pairs in runs.values() for a, b in pairs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
