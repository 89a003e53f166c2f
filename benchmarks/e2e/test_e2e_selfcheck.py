"""Self-check of the end-to-end benchmark: manifest schema, metric registry,
stream determinism, span arithmetic, the comparison verdicts and a smoke pass.

Spawns no processes and stays under ten seconds; the sharded workload and
full sizes are exercised by running the benchmark itself.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_matches_registry_and_contract():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert manifest == metrics.manifest()
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(manifest) == keys
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = []
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_registry_rows_point_at_existing_metrics_and_workloads():
    end_to_end = {m.name: m for m in metrics.END_TO_END}
    assert len(end_to_end) == 9
    for metric in metrics.END_TO_END:
        assert set(metric.workloads) <= set(workloads.WORKLOAD_NAMES)
        # Only metrics every workload produces can be declared to the driver.
        assert not metric.declared or metric.workloads == workloads.WORKLOAD_NAMES
    for layer in metrics.LAYERS:
        assert set(layer.workloads) <= set(workloads.WORKLOAD_NAMES)
        assert not layer.declared or layer.workloads == workloads.WORKLOAD_NAMES
        for target, workload in layer.moves:
            assert workload in end_to_end[target].workloads, (layer.name, target, workload)
    for workload, paths in run.ATTRIBUTION.items():
        assert workload in workloads.WORKLOAD_NAMES
        assert all(target in end_to_end for target, _ in paths)


def _digests(seed: int) -> dict[str, str]:
    shape = workloads.NetworkShape(
        vertex_ids=np.arange(100, dtype=np.int64),
        edge_keys=np.array([(i, (i + 1) % 100) for i in range(100)], dtype=np.int64),
        heldout_ods=np.array([(1, 50), (2, 60), (3, 70)], dtype=np.int64),
    )
    rngs = workloads.workload_rngs(seed)
    return {
        config.name: workloads.Stream(config.smoke(), rngs[config.name], shape).digest()
        for config in workloads.WORKLOADS
    }


def test_same_seed_same_streams_different_seed_different():
    first, again, other = _digests(7), _digests(7), _digests(8)
    assert first == again
    assert all(first[name] != other[name] for name in first)
    assert len(set(first.values())) == len(first)


def test_later_blocks_do_not_depend_on_replay_draws():
    shape = workloads.NetworkShape.of(_ring(50))
    config = workloads.GridHotTrafficConfig().smoke()
    plain = workloads.Stream(config, workloads.workload_rngs(3)[config.name], shape)
    drawn = workloads.Stream(config, workloads.workload_rngs(3)[config.name], shape)
    drawn.replay_batches(5, 4)
    late = config.min_blocks + 2
    assert np.array_equal(plain.block(late).ods, drawn.block(late).ods)
    ods = plain.block(0).ods
    assert (ods[:, 0] != ods[:, 1]).all()


def _ring(n: int):
    from repro.network import RoadNetwork, RoadType

    network = RoadNetwork(name="ring")
    for i in range(n):
        network.add_vertex(i, lon=10.0 + 0.01 * i, lat=56.0)
    for i in range(n):
        network.add_edge(
            i, (i + 1) % n, road_type=RoadType.RESIDENTIAL, distance_m=500.0, bidirectional=True
        )
    return network


def test_span_self_time_subtracts_the_union_of_children():
    # root [0, 10] with children [1, 4], [3, 6] (overlapping) and [8, 12]
    # (sticking out); grandchild [2, 3] under the first child.
    tree = [
        ["root", -1, 1, 0.0, 10.0],
        ["a", 0, 1, 1.0, 4.0],
        ["b", 0, 1, 3.0, 6.0],
        ["c", 0, 1, 8.0, 12.0],
        ["a1", 1, 1, 2.0, 3.0],
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - (5.0 + 2.0), 2.0, 3.0, 4.0, 1.0])
    summary = spans.summarize(tree)
    assert summary["root"]["self_median_s"] == pytest.approx(3.0)
    assert summary["a"]["median_s"] == pytest.approx(3.0)


def test_recorder_nests_spans_and_shares_request_ids():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", lambda: 1)
    outer = recorder.wrap("outer", lambda: inner() + inner())
    assert outer() == 2 and recorder.spans == []  # disabled: straight through
    recorder.enabled = True
    outer()
    outer()
    assert [s[spans.NAME] for s in recorder.spans] == ["outer", "inner", "inner"] * 2
    assert [s[spans.PARENT] for s in recorder.spans] == [-1, 0, 0, -1, 3, 3]
    assert [s[spans.REQUEST] for s in recorder.spans] == [1, 1, 1, 2, 2, 2]


def test_compare_verdicts():
    lower = metrics.EndToEnd("t", "ms", "lower", 0.10)
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(lower, steady, [v * 1.05 for v in steady])[0] == "ok"
    assert compare.verdict(lower, steady, [v * 1.20 for v in steady])[0] == "regressed"
    assert compare.verdict(lower, steady, [0.8, 1.0, 1.3, 1.6, 0.9])[0] == "unresolved"
    higher = metrics.EndToEnd("r", "1/s", "higher", 0.10)
    assert compare.verdict(higher, steady, [v * 0.8 for v in steady])[0] == "regressed"
    exact = metrics.EndToEnd("failed_share", "share", "lower", 0.0)
    assert compare.verdict(exact, [0.0, 0.0], [0.0, 0.0])[0] == "ok"
    assert compare.verdict(exact, [0.0, 0.0], [0.0, 0.01, 0.01])[0] == "regressed"


@pytest.mark.parametrize("name", ["grid_cold", "grid_hot_traffic"])
def test_smoke_pass_of_the_in_process_grid_workloads(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    config = next(c for c in workloads.WORKLOADS if c.name == name)
    report = run.measure(config, seed=7, seconds=0.0, trace=False, smoke=True)
    assert report["failed"] == 0 and report["attempted"] > 256
    assert report["blocks"] == config.min_blocks
    line = json.loads(run.result_line(report))
    assert line["correct"] is True
    assert set(line["metrics"]) == {m.name for m in metrics.DECLARED_END_TO_END}
    assert all(row["value"] > 0 for row in line["metrics"].values())
    assert ("traffic_apply_p50_ms" in report["end_to_end"]) == (name == "grid_hot_traffic")
    assert not any(tmp_path.iterdir())  # scratch cleaned up


def test_traced_smoke_pass_reports_every_declared_layer(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    config = next(c for c in workloads.WORKLOADS if c.name == "grid_hot_traffic")
    report = run.measure(config, seed=7, seconds=0.0, trace=True, smoke=True)
    assert report["failed"] == 0
    line = json.loads(run.result_line(report))
    assert set(line["metrics"]) == {m.name for m in metrics.DECLARED_LAYERS}
    layers = report["layers"]
    assert 0.0 < layers["cache.hit_share"]["value"] < 1.0
    assert layers["durability.wal_bytes_per_batch"]["value"] > 0
    traced = json.loads((tmp_path / "trace-grid_hot_traffic.json").read_text())
    names = {span["name"] for span in traced["spans"]}
    assert names == {
        "service.route",
        "engine.route",
        "feed.apply",
        "journal.log_traffic",
        "service.on_traffic_update",
    }
    by_id = {span["id"]: span for span in traced["spans"]}
    for span in traced["spans"]:
        if span["parent"] >= 0:
            parent = by_id[span["parent"]]
            assert parent["request"] == span["request"]
            assert parent["start_us"] <= span["start_us"] and span["end_us"] <= parent["end_us"]
    targets = {item["target"] for item in report["attribution"]}
    assert targets == {"route_p50_ms", "traffic_apply_p50_ms"}
    for item in report["attribution"]:
        total = sum(item["parts_ms"].values()) + item["unattributed_ms"]
        assert total == pytest.approx(item["measured_ms"])
