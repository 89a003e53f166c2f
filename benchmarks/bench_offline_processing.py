"""Offline processing time (Section VII-C, text).

The paper reports the offline cost of (1) building the region graph, (2)
learning T-edge preferences, (3) transferring preferences to B-edges, and (4)
materializing B-edge paths — and notes that learning dominates.  Since Step 1
searches in batches that no longer holds here (learning and transfer are of
one size), so the benchmark measures one full ``fit`` on the D2-like scenario,
prints the breakdown, and checks that the four phases account for the total
and that every region edge came out with a preference.
"""

from __future__ import annotations

import pytest

from repro.core import LearnToRoute


def test_offline_processing_breakdown(benchmark, d2):
    scenario, split, _ = d2

    def fit_once():
        return LearnToRoute().fit(scenario.network, split.train[:120])

    pipeline = benchmark.pedantic(fit_once, rounds=1, iterations=1)
    timings = pipeline.offline_timings

    print()
    print("Offline processing time (D2-like, 120 training trajectories)")
    print(f"  Region graph construction : {timings.region_graph_s:8.2f} s")
    print(f"  Preference learning       : {timings.preference_learning_s:8.2f} s")
    print(f"  Preference transfer       : {timings.preference_transfer_s:8.2f} s")
    print(f"  B-edge path materialization: {timings.path_materialization_s:7.2f} s")
    print(f"  Total                     : {timings.total_s:8.2f} s")

    assert timings.total_s > 0.0
    assert timings.total_s == pytest.approx(
        timings.region_graph_s
        + timings.preference_learning_s
        + timings.preference_transfer_s
        + timings.path_materialization_s
    )
    region_graph = pipeline.region_graph
    assert region_graph.t_edges() and region_graph.b_edges()
    assert all(edge.preference is not None for edge in region_graph.edges())
