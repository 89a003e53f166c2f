"""Compare two sets of benchmark runs written with ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload x end-to-end metric: both medians with quartiles, the
ratio B/A (base: A's median), the bound and a verdict —

* ``ok``          B's median is no worse than A's by more than the bound;
* ``regressed``   it is worse by more than the bound;
* ``unresolved``  the inter-quartile spread of either side exceeds the
                  bound, so the runs cannot tell.

Metrics with bound 0 (``l2r_accuracy_pct``, ``failed_share``) must not
worsen at all.  Stream digests and, where both files hold traced runs of
one seed, the count-type layer rows are reported as identical or not.  Exit
status is non-zero on any regression or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, EndToEnd, quartiles, spread  # noqa: E402


COUNT_UNITS = ("share", "count", "bytes")


def load(path: Path) -> list[dict]:
    return json.loads(path.read_text())["runs"]


def by_workload(runs: list[dict], section: str) -> dict[str, list[dict]]:
    """The reports that have ``section`` (``end_to_end`` for untraced runs,
    ``layers`` for traced ones), grouped by workload."""
    grouped: dict[str, list[dict]] = {}
    for report in runs:
        if section in report:
            grouped.setdefault(report["workload"], []).append(report)
    return grouped


def count_rows(report: dict) -> dict[str, float]:
    """Layer rows that are counts, which must repeat exactly for one seed."""
    return {
        name: row["value"]
        for name, row in report["layers"].items()
        if row["unit"] in COUNT_UNITS and name != "tracing_overhead_share"
    }


def compare_counts(a: dict[str, list[dict]], b: dict[str, list[dict]]) -> list[str]:
    lines = []
    for workload in sorted(set(a) & set(b)):
        first = a[workload][0]
        seed = first["env"]["seed"]
        others = [r for r in a[workload][1:] + b[workload] if r["env"]["seed"] == seed]
        differing = sorted(
            name for name, value in count_rows(first).items()
            if any(count_rows(other).get(name) != value for other in others)
        )
        outcome = f"DIFFERENT: {', '.join(differing)}"
        if not differing:
            outcome = (
                f"identical ({len(count_rows(first))} rows, "
                f"{len(others) + 1} traced runs of seed {seed})"
            )
        lines.append(f"{workload:<18}{'count-type layers':<22}{outcome}")
    return lines


def values_of(reports: list[dict], metric: str) -> list[float]:
    return [r["end_to_end"][metric]["value"] for r in reports if metric in r["end_to_end"]]


def verdict(metric: EndToEnd, base: list[float], other: list[float]) -> tuple[str, float]:
    """``(verdict, worse_by)`` where ``worse_by`` is a share of A's median
    (an absolute difference when that median is 0)."""
    base_median, other_median = quartiles(base)[1], quartiles(other)[1]
    worse = other_median - base_median if metric.better == "lower" else base_median - other_median
    worse_by = worse / base_median if base_median else worse
    if metric.bound == 0:
        return ("regressed" if worse_by > 0 else "ok"), worse_by
    if max(spread(base), spread(other)) > metric.bound:
        return "unresolved", worse_by
    return ("regressed" if worse_by > metric.bound else "ok"), worse_by


def compare(a: dict[str, list[dict]], b: dict[str, list[dict]]) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':<18}{'metric':<22}{'A q1/median/q3':<36}{'B q1/median/q3':<36}"
        f"{'B/A (base A)':<14}{'bound':<8}verdict"
    ]
    bad = False
    for workload in sorted(set(a) & set(b)):
        for metric in END_TO_END:
            base, other = values_of(a[workload], metric.name), values_of(b[workload], metric.name)
            if not base or not other:
                continue
            outcome, _ = verdict(metric, base, other)
            bad |= outcome == "regressed"
            qa, qb = quartiles(base), quartiles(other)
            ratio = f"{qb[1] / qa[1]:.4f}" if qa[1] else "n/a (A=0)"
            lines.append(
                f"{workload:<18}{metric.name:<22}"
                f"{'/'.join(f'{v:.5g}' for v in qa):<36}{'/'.join(f'{v:.5g}' for v in qb):<36}"
                f"{ratio:<14}{metric.bound:<8.0%}{outcome} (n={len(base)},{len(other)})"
            )
        seed = a[workload][0]["env"]["seed"]
        digests = [
            {r["stream_sha256"] for r in side[workload] if r["env"]["seed"] == seed}
            for side in (a, b)
        ]
        same = "identical" if digests[0] == digests[1] and len(digests[0]) == 1 else "DIFFERENT"
        lines.append(f"{workload:<18}{'stream_sha256':<22}{same} for seed {seed}")
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    first, second = load(Path(args[0])), load(Path(args[1]))
    lines, bad = compare(by_workload(first, "end_to_end"), by_workload(second, "end_to_end"))
    lines += compare_counts(by_workload(first, "layers"), by_workload(second, "layers"))
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
