"""The paper-fidelity record: Eq. 1 accuracy per scenario, appended to ``BENCH_fidelity.json``.

    python -m tools.fidelity            # the default grid; appends one record
    python -m tools.fidelity --check    # re-runs the newest record; exit 1 on any difference

Per cell — a scenario, its scale and seed — it fits L2R on the 75 % id split
of the scenario's trajectories and replays every held-out trajectory through
an :class:`~repro.evaluation.EvaluationHarness` holding L2R, ``Fastest`` and
``Shortest``.  The cell records:

* each engine's Eq. 1 accuracy (percent), overall and per region category,
  as :meth:`~repro.evaluation.EvaluationReport.overall` and ``by_region``
  aggregate it, with the number of held-out queries in each category;
* two ceilings: the trip's *true* preference (the generator's, which L2R
  never sees) routed by Algorithm 2 on the public network, and on the
  drivers' congested network;
* the share of held-out queries whose ends lie in two regions joined by a
  region edge (``queries``) and whose edge preference — learnt, or
  transferred for a B-edge — equals the trip's true preference;
* the region count and median region size, the T- and B-edge counts, and
  ``fit_s``, the fit's wall time.

A record holds its cells, L2R's median margin over the better of
``Fastest`` and ``Shortest`` across the ``d2_like`` cells, and the stamp of
the tree it ran in: commit, dirty flag and, for a dirty tree, the
sha256 of ``git diff HEAD`` without the record file, as ``tools/ab.py``
stamps its records.

The runs are seeded and deterministic, so ``--check`` runs the newest
record's grid again and fails on any recorded value that comes out
different — every one but ``fit_s``, a timing — and appends nothing.  A
change that moves route quality on purpose appends a new record.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "BENCH_fidelity.json"

sys.path.insert(0, str(ROOT / "src"))

from repro.baselines import FastestBaseline, ShortestBaseline  # noqa: E402
from repro.core import LearnToRoute  # noqa: E402
from repro.datasets import d1_like_scenario, d2_like_scenario, split_by_id  # noqa: E402
from repro.evaluation import EvaluationHarness, RegionCategory, accuracy_eq1  # noqa: E402
from repro.routing import preference_dijkstra  # noqa: E402

#: Scenario builders by name, each taking ``(scale, seed)``.
SCENARIOS = {
    "d2_like": lambda scale, seed: d2_like_scenario(scale=scale, seed=seed),
    "d1_like": lambda scale, seed: d1_like_scenario(scale=scale, seed=seed),
}

#: ``d2_like(0.25)`` seeds 1–10 (seed 7 is the ``l2r_city`` workload) and
#: ``d1_like(0.25, 11)``.
DEFAULT_GRID = [{"scenario": "d2_like", "scale": 0.25, "seed": seed} for seed in range(1, 11)] + [
    {"scenario": "d1_like", "scale": 0.25, "seed": 11}
]

ENGINES = ("L2R", "Fastest", "Shortest")

#: Recorded values that are timings, so ``--check`` does not compare them.
TIMINGS = frozenset({"fit_s"})


def run_cell(cell: dict) -> dict:
    """Fit, evaluate and measure one scenario cell; the cell's record entry."""
    scenario = SCENARIOS[cell["scenario"]](cell["scale"], cell["seed"])
    network, data = scenario.network, scenario.data
    split = split_by_id(scenario.trajectories, 0.75)
    started = time.perf_counter()
    pipeline = LearnToRoute().fit(network, split.train)
    fit_s = time.perf_counter() - started
    graph = pipeline.region_graph

    harness = EvaluationHarness(network=network, region_graph=graph, bands_km=scenario.bands_km)
    harness.add_engine(pipeline.as_engine(name="L2R"))
    harness.add_engine(FastestBaseline(network).as_engine(name="Fastest"))
    harness.add_engine(ShortestBaseline(network).as_engine(name="Shortest"))
    report = harness.evaluate(split.test)
    # A category no held-out query falls in has no aggregate row.
    rows = {(row.algorithm, row.group): row for row in report.overall() + report.by_region()}
    groups = ("overall", *(category.value for category in RegionCategory))
    accuracy = {
        engine: {
            group: rows[engine, group].mean_accuracy_eq1 if (engine, group) in rows else None
            for group in groups
        }
        for engine in ENGINES
    }
    categories = {
        group: rows["L2R", group].query_count if ("L2R", group) in rows else 0 for group in groups[1:]
    }

    ceilings: dict[str, list[float]] = {"true_preference_public": [], "true_preference_drivers": []}
    drivers = data.congested_network or network
    matched = joined = 0
    for trajectory in split.test:
        truth = data.trip_preferences[trajectory.trajectory_id]
        ends = (trajectory.source, trajectory.destination)
        for name, routed_on in (("true_preference_public", network), ("true_preference_drivers", drivers)):
            path = preference_dijkstra(routed_on, *ends, truth)
            ceilings[name].append(accuracy_eq1(network, trajectory.path, path))
        regions = tuple(graph.region_of(vertex) for vertex in ends)
        if None not in regions and regions[0] != regions[1] and graph.has_edge(*regions):
            joined += 1
            matched += graph.edge(*regions).preference == truth

    sizes = [len(region.vertices) for region in graph.regions()]
    return {
        **cell,
        "heldout": len(split.test),
        "categories": categories,
        "accuracy_pct": accuracy,
        "ceilings_pct": {name: statistics.mean(values) for name, values in ceilings.items()},
        "learnt_equals_true": {"queries": joined, "share": matched / joined if joined else None},
        "regions": {"count": graph.region_count, "median_size": float(statistics.median(sizes))},
        "t_edges": len(graph.t_edges()),
        "b_edges": len(graph.b_edges()),
        "fit_s": fit_s,
    }


def margin_median(cells: list[dict]) -> float | None:
    """L2R's median margin, in points, over the better cost-centric baseline
    across the ``d2_like`` cells."""
    margins = [
        cell["accuracy_pct"]["L2R"]["overall"]
        - max(cell["accuracy_pct"]["Fastest"]["overall"], cell["accuracy_pct"]["Shortest"]["overall"])
        for cell in cells
        if cell["scenario"] == "d2_like"
    ]
    return statistics.median(margins) if margins else None


def differences(recorded, fresh, path: str = "") -> list[str]:
    """Every leaf where ``fresh`` differs from ``recorded``, timings aside."""
    if isinstance(recorded, dict) and isinstance(fresh, dict):
        found = []
        for key in sorted(set(recorded) | set(fresh)):
            if key in TIMINGS:
                continue
            found += differences(recorded.get(key), fresh.get(key), f"{path}.{key}")
        return found
    if isinstance(recorded, list) and isinstance(fresh, list) and len(recorded) == len(fresh):
        return [d for i, pair in enumerate(zip(recorded, fresh)) for d in differences(*pair, f"{path}[{i}]")]
    return [] if recorded == fresh else [f"{path or '.'}: recorded {recorded!r}, now {fresh!r}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="re-run the newest record and exit 1 on any difference")
    args = parser.parse_args(argv)

    history = json.loads(RECORD.read_text()) if RECORD.exists() else {"records": []}
    if args.check:
        if not history["records"]:
            print(f"{RECORD.name} holds no record to check")
            return 1
        newest = history["records"][-1]
        cells = [run_cell({k: cell[k] for k in ("scenario", "scale", "seed")}) for cell in newest["cells"]]
        found = differences(
            {"cells": newest["cells"], "l2r_margin_median": newest["l2r_margin_median"]},
            # JSON round trip, so the comparison sees what a record would hold.
            json.loads(json.dumps({"cells": cells, "l2r_margin_median": margin_median(cells)})),
        )
        for line in found:
            print(line)
        print(f"record {len(history['records'])}: {len(cells)} cells, {len(found)} differences")
        return 1 if found else 0

    from tools.ab import head_block

    cells = [run_cell(cell) for cell in DEFAULT_GRID]
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "head": head_block(ROOT, RECORD.name),
        "l2r_margin_median": margin_median(cells),
        "cells": cells,
    }
    for cell in cells:
        l2r, fastest, shortest = (cell["accuracy_pct"][engine]["overall"] for engine in ENGINES)
        print(f"{cell['scenario']}({cell['scale']}, {cell['seed']}): L2R {l2r:.1f}  "
              f"Fastest {fastest:.1f}  Shortest {shortest:.1f}  fit {cell['fit_s']:.2f} s")
    history["records"].append(record)
    RECORD.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended record {len(history['records'])} to {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
