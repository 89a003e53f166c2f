"""The batched offline fit (ISSUE 14) against the per-item code it replaced.

Step 1: the table-first learner must decide exactly what the per-path
learner decided — a copy of that learner lives here as the reference — with
the batch search and pair by pair, and the masked cost view must
construct Algorithm 2's paths.  Step 2: the blocked adjacency must equal
pairwise ``reSim``, and the one multi-column conjugate-gradient solve must
match a dense ``np.linalg.solve`` of Eq. 3 at every size.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path as FilePath

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.core import LearnToRoute
from repro.datasets import d2_like_scenario, tiny_scenario
from repro.datasets.splits import split_by_id
from repro.exceptions import NoPathError, TransferError
from repro.network import RoadNetwork, RoadType, compiled_disabled
from repro.network.compiled import dispatch
from repro.preferences import (
    FeatureCatalog,
    LearnedPreference,
    PreferenceLearner,
    PreferenceTransfer,
    PreferenceVector,
    TransferConfig,
    learning,
    path_similarity,
    region_edge_similarity,
    conjugate_gradient,
    single_type_feature,
)
from repro.preferences import transfer as transfer_module
from repro.preferences.solvers import SolverResult
from repro.preferences.learning import _SimilarityTable
from repro.regions import TrajectoryGraph, build_region_graph, cluster_trajectory_graph
from repro.regions.region_graph import RegionEdge
from repro.routing import CostFeature, cost_function, dijkstra, preference_dijkstra
from repro.routing.dijkstra import lowest_cost_path
from repro.routing.path import Path
from repro.routing.preference_dijkstra import preference_cost
from repro.traffic import TrafficFeed, synthetic_congestion

from support import reference as reference_module
from support.reference import dict_preference_search

REPO_ROOT = FilePath(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # `tools` lives at the repo root, not in src/
    sys.path.insert(0, str(REPO_ROOT))


# --------------------------------------------------------------------------- #
# Reference: the per-path learner and the two-dict Eq. 1 this PR replaced
# --------------------------------------------------------------------------- #
def _reference_similarity(network, ground_truth, constructed) -> float:
    def lengths(path):
        vertices = list(path)
        return {
            (vertices[i], vertices[i + 1]): network.w_di(vertices[i], vertices[i + 1])
            for i in range(len(vertices) - 1)
        }

    gt_lengths = lengths(ground_truth)
    constructed_edges = set(lengths(constructed))
    shared = sum(length for key, length in gt_lengths.items() if key in constructed_edges)
    total = sum(gt_lengths.values())
    return shared / total if total > 0 else 0.0


class _ReferenceLearner:
    """One point-to-point search per (path, preference), no table."""

    def __init__(self, network, catalog=None):
        self._network = network
        self._catalog = catalog or FeatureCatalog()

    def learn(self, paths) -> LearnedPreference:
        usable = [p for p in paths if len(p) >= 2][: learning.MAX_PATHS_PER_EDGE]
        if not usable:
            default = PreferenceVector(master=CostFeature.TRAVEL_TIME, slave=None)
            return LearnedPreference(preference=default, similarity=0.0)
        learned = [self._learn_single(path) for path in usable]
        per_path = [preference for preference, _ in learned]
        # A path whose masters tie on its top similarity casts no vote.
        counted = Counter(preference for preference, votes in learned if votes)
        if not counted:
            default = PreferenceVector(master=CostFeature.TRAVEL_TIME, slave=None)
            return LearnedPreference(
                preference=default, similarity=0.0, per_path_preferences=per_path
            )
        top_count = counted.most_common(1)[0][1]
        candidates = [pref for pref, count in counted.items() if count == top_count]
        best_pref = candidates[0]
        best_score = -1.0
        if len(candidates) > 1:
            for pref in candidates:
                score = self._score(pref, usable)
                if score > best_score:
                    best_score = score
                    best_pref = pref
        else:
            best_score = self._score(best_pref, usable)
        return LearnedPreference(
            preference=best_pref, similarity=best_score, per_path_preferences=per_path
        )

    def _learn_single(self, path) -> tuple[PreferenceVector, bool]:
        """The path's preference, and whether its master is unambiguous
        (no other master reaches its top similarity)."""
        source, destination = path.source, path.destination
        best_master = self._catalog.cost_features[0]
        best_similarity = -1.0
        similarities = []
        for feature in self._catalog.cost_features:
            try:
                candidate = lowest_cost_path(self._network, source, destination, feature)
            except NoPathError:
                continue
            similarity = _reference_similarity(self._network, path, candidate)
            similarities.append(similarity)
            if similarity > best_similarity:
                best_similarity = similarity
                best_master = feature
        votes = similarities.count(best_similarity) < 2
        if best_similarity >= 1.0 - 1e-9:
            return PreferenceVector(master=best_master, slave=None), votes
        ground_truth_types = {self._network.w_rt(u, v) for u, v in path.edge_keys}
        best_slave = None
        best_gain = learning.MIN_IMPROVEMENT
        for road_feature in self._catalog.road_condition_features:
            if not (road_feature.road_types & ground_truth_types):
                continue
            preference = PreferenceVector(master=best_master, slave=road_feature)
            try:
                candidate = preference_dijkstra(self._network, source, destination, preference)
            except NoPathError:
                continue
            gain = _reference_similarity(self._network, path, candidate) - best_similarity
            if gain > best_gain:
                best_gain = gain
                best_slave = road_feature
        return PreferenceVector(master=best_master, slave=best_slave), votes

    def _score(self, preference, paths, sample=4) -> float:
        total = 0.0
        count = 0
        for path in paths[:sample]:
            try:
                constructed = preference_dijkstra(
                    self._network, path.source, path.destination, preference
                )
            except NoPathError:
                continue
            total += _reference_similarity(self._network, path, constructed)
            count += 1
        return total / count if count else 0.0


def _t_edge_path_sets(network, trajectories) -> list[list[Path]]:
    trajectory_graph = TrajectoryGraph.from_trajectories(network, trajectories)
    region_graph = build_region_graph(
        network, cluster_trajectory_graph(trajectory_graph), trajectories
    )
    return [edge.paths() for edge in region_graph.t_edges()]


def _assert_same_as_reference(network, path_sets, catalog=None):
    learned = PreferenceLearner(network, catalog=catalog).learn_many(path_sets)
    reference = _ReferenceLearner(network, catalog=catalog)
    assert len(learned) == len(path_sets)
    for paths, got in zip(path_sets, learned):
        # Dataclass equality: preference, similarity and per-path preferences, all ==.
        assert got == reference.learn(paths)
    return learned


@pytest.fixture(scope="module")
def tiny_sets():
    """Own tiny network (the traffic test patches its costs) and its T-edge path sets."""
    scenario = tiny_scenario(seed=3, n_trajectories=120)
    split = split_by_id(scenario.trajectories, train_fraction=0.75)
    return scenario.network, _t_edge_path_sets(scenario.network, split.train)


@pytest.fixture(scope="module")
def city_sets():
    scenario = d2_like_scenario(scale=0.05, seed=7)
    split = split_by_id(scenario.trajectories, train_fraction=0.75)
    return scenario.network, _t_edge_path_sets(scenario.network, split.train)


# --------------------------------------------------------------------------- #
# Step 1: table-first learner == per-path learner
# --------------------------------------------------------------------------- #
class TestTableFirstLearner:
    def test_tiny_scenario(self, tiny_sets):
        network, path_sets = tiny_sets
        learned = _assert_same_as_reference(network, path_sets)
        assert len({result.preference for result in learned}) > 1
        assert any(result.preference.slave is not None for result in learned)

    def test_city_scenario(self, city_sets, monkeypatch):
        network, path_sets = city_sets
        monkeypatch.setattr(learning, "MAX_PATHS_PER_EDGE", 4)
        _assert_same_as_reference(network, path_sets)

    def test_single_cost_feature_catalog(self, tiny_sets):
        network, path_sets = tiny_sets
        catalog = FeatureCatalog(cost_features=[CostFeature.DISTANCE])
        learned = _assert_same_as_reference(network, path_sets[:80], catalog=catalog)
        assert {result.preference.master for result in learned} == {CostFeature.DISTANCE}

    def test_single_edge_is_the_batch_of_one(self, tiny_sets):
        network, path_sets = tiny_sets
        learner = PreferenceLearner(network)
        assert [learner.learn_many([paths])[0] for paths in path_sets[:25]] == learner.learn_many(
            path_sets[:25]
        )
        assert learner.learn_many([[]]) == [
            LearnedPreference(preference=PreferenceVector(CostFeature.TRAVEL_TIME), similarity=0.0)
        ]
        # Empty and too-short path sets in the middle of a batch keep their slots.
        mixed = [path_sets[0], [], [Path.of([path_sets[1][0].source])], path_sets[1]]
        assert learner.learn_many(mixed) == [learner.learn_many([paths])[0] for paths in mixed]

    def test_compiled_disabled_searches_pair_by_pair(self, tiny_sets):
        network, path_sets = tiny_sets
        with compiled_disabled():
            _assert_same_as_reference(network, path_sets[:40])

    def test_batch_answers_with_holes_fall_back_per_pair(self, tiny_sets, monkeypatch):
        network, path_sets = tiny_sets
        expected = PreferenceLearner(network).learn_many(path_sets[:40])

        def holey(network, pairs, cost):
            answers = dispatch.try_route_many(network, pairs, cost)
            return [None if i % 2 else answer for i, answer in enumerate(answers)]

        monkeypatch.setattr(learning, "try_route_many", holey)
        assert PreferenceLearner(network).learn_many(path_sets[:40]) == expected

    def test_unreachable_pairs_are_skipped_like_no_path_errors(self, tiny_sets, monkeypatch):
        network, path_sets = tiny_sets
        paths = path_sets[0][:3]
        monkeypatch.setattr(
            learning, "try_route_many", lambda network, pairs, cost: [()] * len(pairs)
        )
        learned = PreferenceLearner(network).learn_many([paths])[0]
        # What the per-path learner returns when every search raises NoPathError.
        first = PreferenceVector(FeatureCatalog().cost_features[0])
        assert learned == LearnedPreference(
            preference=first, similarity=0.0, per_path_preferences=[first] * len(paths)
        )

    def test_after_traffic_batches_the_masked_view_follows_cost_version(self, tiny_sets):
        network, path_sets = tiny_sets
        preference = PreferenceVector(CostFeature.TRAVEL_TIME, single_type_feature(RoadType.PRIMARY))
        graph = network.compiled()
        feed = TrafficFeed(network)
        with sanitize(strict=True):
            before = graph.resolve_cost(preference_cost(network, preference))[1]
            for updates in synthetic_congestion(network, seed=4, fraction=0.3, steps=3):
                feed.apply(updates)
                _assert_same_as_reference(network, path_sets[:30])
            key, after, version = graph.resolve_cost(preference_cost(network, preference))
        assert version == graph.costs.version > 0
        assert key == ("built", ("slave-masked", "travel_time_s", preference.slave))
        assert not np.array_equal(before, after)
        finite = np.isfinite(after)
        assert np.array_equal(after[finite], graph.array("travel_time_s")[finite])

    def test_masked_view_passes_the_version_stamp_rule(self):
        from tools.reprolint import ALL_RULES, lint_source

        source = (REPO_ROOT / "src/repro/routing/preference_dijkstra.py").read_text()
        # Linted as if it sat inside RL001's scope.
        assert lint_source(source, "src/repro/network/compiled/masked.py", ALL_RULES).ok


# --------------------------------------------------------------------------- #
# Algorithm 2 as a masked cost view
# --------------------------------------------------------------------------- #
def _random_pairs(network, count, seed):
    rng = random.Random(seed)
    ids = sorted(network.vertex_ids())
    return [tuple(rng.sample(ids, 2)) for _ in range(count)]


class TestMaskedCostView:
    @pytest.mark.parametrize("which", ["tiny", "city"])
    def test_batch_equals_preference_dijkstra_pair_by_pair(
        self, which, tiny_sets, city_sets, monkeypatch
    ):
        network = (tiny_sets if which == "tiny" else city_sets)[0]
        pairs = _random_pairs(network, 40, seed=11)
        catalog = FeatureCatalog()
        # The reference search calls dijkstra only once its constrained
        # search ran dry, to fall back to the master cost.
        fallbacks = []

        def recording_dijkstra(network, source, destination, cost):
            fallbacks.append((source, destination))
            return dijkstra(network, source, destination, cost)

        exhausted = 0
        for master in catalog.cost_features:
            for slave in catalog.road_condition_features:
                preference = PreferenceVector(master, slave)
                answers = dispatch.try_route_many(
                    network, pairs, preference_cost(network, preference)
                )
                assert answers is not None
                for (source, destination), answer in zip(pairs, answers):
                    if answer == ():
                        exhausted += 1
                        with monkeypatch.context() as patch:
                            patch.setattr(reference_module, "dijkstra", recording_dijkstra)
                            dict_preference_search(network, source, destination, preference)
                        assert fallbacks == [(source, destination)]
                        fallbacks.clear()
                        continue
                    assert Path.of(answer) == preference_dijkstra(
                        network, source, destination, preference
                    )
                    assert Path.of(answer) == dict_preference_search(
                        network, source, destination, preference
                    )
        assert exhausted  # the fallback is not a corner case on these cities

    def test_no_slave_is_the_plain_master_cost(self):
        master_only = preference_cost(RoadNetwork(), PreferenceVector(CostFeature.FUEL))
        assert master_only is cost_function(CostFeature.FUEL)

    def test_slave_that_prunes_every_route_falls_back_to_the_master_path(self):
        # 0 -> 1 -> 2 is the ground truth, 0 -> 2 the cheaper road, and 0 -> 9 a
        # motorway spur into a dead end: Algorithm 2 under a motorway slave
        # leaves 0 by the spur only and runs dry.
        network = RoadNetwork(name="spur")
        for vertex, lon in ((0, 10.0), (1, 10.01), (2, 10.02), (9, 10.0)):
            network.add_vertex(vertex, lon=lon, lat=56.0 if vertex != 9 else 56.01)
        network.add_edge(0, 1, road_type=RoadType.RESIDENTIAL, distance_m=1_000.0)
        network.add_edge(1, 2, road_type=RoadType.MOTORWAY, distance_m=1_000.0)
        network.add_edge(0, 2, road_type=RoadType.RESIDENTIAL, distance_m=1_500.0)
        network.add_edge(0, 9, road_type=RoadType.MOTORWAY, distance_m=500.0)
        truth = Path.of([0, 1, 2])
        master = PreferenceVector(CostFeature.DISTANCE)
        constrained = PreferenceVector(CostFeature.DISTANCE, single_type_feature(RoadType.MOTORWAY))

        view = preference_cost(network, constrained)
        assert dispatch.try_route_many(network, [(0, 2)], view) == [()]
        fallback = preference_dijkstra(network, 0, 2, constrained)
        assert fallback == dijkstra(network, 0, 2, cost_function(CostFeature.DISTANCE))

        table = _SimilarityTable(network, [truth])
        table.fill([(0, master), (0, constrained)])
        assert table[0, constrained] == table[0, master] == path_similarity(network, truth, fallback)
        learned = PreferenceLearner(network).learn_many([[truth]])
        assert learned == [_ReferenceLearner(network).learn([truth])]


# --------------------------------------------------------------------------- #
# Step 2: blocked adjacency, one multi-column solve
# --------------------------------------------------------------------------- #
def _synthetic_edges(n: int, seed: int) -> list[RegionEdge]:
    rng = random.Random(seed)
    types = list(RoadType)
    pairs = [(a, b) for a in types for b in types]
    edges = []
    for i in range(n):
        distance = 0.0 if rng.random() < 0.05 else rng.uniform(200.0, 9_000.0)
        functionality = frozenset(rng.sample(pairs, rng.choice((0, 1, 2, 4))))
        edges.append(
            RegionEdge(
                region_a=i, region_b=i + 1, kind="T" if i % 3 else "B",
                centroid_distance_m=distance, functionality=functionality,
            )
        )
    return edges


def _labels(edges, seed: int) -> list[PreferenceVector | None]:
    rng = random.Random(seed)
    catalog = FeatureCatalog()
    slaves = (None,) + catalog.road_condition_features[:3]
    return [
        PreferenceVector(rng.choice(catalog.cost_features), rng.choice(slaves))
        if edge.is_t_edge
        else None
        for edge in edges
    ]


class TestTransferSolve:
    def test_blocked_adjacency_equals_pairwise_resim(self):
        edges = _synthetic_edges(300, seed=2)  # more than one block of rows
        amr = 0.7
        matrix = PreferenceTransfer(config=TransferConfig(amr=amr)).build_adjacency(edges)
        expected = np.zeros((len(edges), len(edges)))
        for i, a in enumerate(edges):
            for j, b in enumerate(edges):
                similarity = region_edge_similarity(a, b)
                if i != j and similarity >= amr:
                    expected[i, j] = similarity
        assert np.array_equal(matrix, expected)
        assert np.array_equal(matrix, matrix.T)
        assert PreferenceTransfer().build_adjacency([]).shape == (0, 0)

    @pytest.mark.parametrize("n", [50, 700])
    def test_multi_column_cg_matches_direct(self, n):
        edges = _synthetic_edges(n, seed=n)
        labels = _labels(edges, seed=n)
        transfer = PreferenceTransfer()
        result = transfer.transfer(edges, labels)
        # Eq. 3 solved densely: (S + mu1 (D - M) + mu2 I) Yhat = S Y.
        mu1, mu2 = transfer_module.MU1, transfer_module.MU2
        adjacency = transfer.build_adjacency(edges)
        y, s_diag = transfer.build_labels(edges, labels)
        system = np.diag(s_diag + mu1 * adjacency.sum(axis=1) + mu2)
        system -= mu1 * adjacency
        direct = np.linalg.solve(system, s_diag[:, None] * y)
        assert np.abs(result.y_hat - direct).max() <= 1e-8
        decoded = [
            known
            if known is not None
            else PreferenceVector.from_row(
                row, FeatureCatalog(), slave_threshold=transfer_module.NULL_THRESHOLD
            )
            for known, row in zip(labels, direct)
        ]
        assert result.preferences == decoded
        assert any(p is not None for p, known in zip(result.preferences, labels) if known is None)
        # Iterations are those of the one solve over every column.
        assert 1 < result.solver_iterations < n
        assert result.diagnostics["converged"] == 1.0
        assert result.diagnostics["residual_norm"] < 1e-7
        linked = np.count_nonzero(np.triu(adjacency, 1))
        assert result.adjacency_density == linked / (n * (n - 1) / 2)

    def test_solve_takes_all_columns_at_once(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.0, 1.0, size=(40, 40))
        matrix = (a + a.T) / 2 + 40 * np.eye(40)  # symmetric positive definite
        rhs = rng.normal(size=(40, 5))
        rhs[:, 2] = 0.0  # a feature no T-edge learnt
        expected = np.linalg.solve(matrix, rhs)
        result = conjugate_gradient(matrix, rhs)
        assert result.converged and result.x.shape == rhs.shape
        np.testing.assert_allclose(result.x, expected, rtol=1e-6, atol=1e-7)
        assert not result.x[:, 2].any()
        one = conjugate_gradient(matrix, rhs[:, 0])
        np.testing.assert_allclose(one.x, expected[:, 0], rtol=1e-8, atol=1e-10)

    def test_unconverged_solve_is_reported(self, monkeypatch):
        edges = _synthetic_edges(50, seed=5)

        def stalls(matrix, rhs):
            return SolverResult(x=np.zeros_like(rhs), iterations=7, residual_norm=1.0, converged=False)

        monkeypatch.setattr(transfer_module, "conjugate_gradient", stalls)
        with pytest.raises(TransferError, match="after 7 iterations"):
            PreferenceTransfer().transfer(edges, _labels(edges, seed=5))


class TestPersistence:
    def test_save_load_round_trips_the_fitted_model(self, tmp_path):
        scenario = tiny_scenario(seed=3, n_trajectories=120)
        split = split_by_id(scenario.trajectories, train_fraction=0.75)
        pipeline = LearnToRoute().fit(scenario.network, split.train)
        restored = LearnToRoute.load(pipeline.save(tmp_path / "model.pkl.gz"))
        assert restored.model.learned_preferences == pipeline.model.learned_preferences
        original, loaded = pipeline.model.transfer_result, restored.model.transfer_result
        assert loaded.preferences == original.preferences
        assert np.array_equal(loaded.y_hat, original.y_hat)
        assert loaded.diagnostics == original.diagnostics
        for trajectory in split.test[:15]:
            assert restored.route(trajectory.source, trajectory.destination) == pipeline.route(
                trajectory.source, trajectory.destination
            )
