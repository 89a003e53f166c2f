"""Tests for preference learning (Step 1), the CG solver, transfer (Step 2), apply (Step 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TransferError
from repro.preferences import (
    FeatureCatalog,
    LOCAL_ROADS,
    MAJOR_ROADS,
    PreferenceLearner,
    PreferenceTransfer,
    PreferenceVector,
    TransferConfig,
    conjugate_gradient,
    evaluate_transfer_accuracy,
    learn_t_edge_preferences,
    learning,
    materialize_b_edge_paths,
    transfer_to_b_edges,
)
from repro.regions.region_graph import RegionEdge
from repro.routing import CostFeature, fastest_path, preference_dijkstra, shortest_path
from repro.routing.path import Path


class TestPreferenceLearner:
    def test_learns_distance_preference_from_shortest_paths(self, grid_network):
        learner = PreferenceLearner(grid_network)
        paths = [shortest_path(grid_network, 0, 27), shortest_path(grid_network, 3, 56)]
        learned = learner.learn_many([paths])[0]
        assert learned.preference.master is CostFeature.DISTANCE

    def test_learns_travel_time_preference_from_fastest_paths(self, grid_network):
        learner = PreferenceLearner(grid_network)
        paths = [fastest_path(grid_network, 0, 99), fastest_path(grid_network, 9, 90)]
        learned = learner.learn_many([paths])[0]
        assert learned.preference.master is CostFeature.TRAVEL_TIME

    def test_learns_slave_road_preference(self, grid_network):
        # Ground-truth paths follow a distance-master preference restricted to
        # major roads; the learner should recover a major-road slave feature.
        preference = PreferenceVector(master=CostFeature.DISTANCE, slave=MAJOR_ROADS)
        paths = [
            preference_dijkstra(grid_network, 0, 99, preference),
            preference_dijkstra(grid_network, 5, 95, preference),
        ]
        learned = PreferenceLearner(grid_network).learn_many([paths])[0]
        constructed = preference_dijkstra(grid_network, 0, 99, learned.preference)
        from repro.preferences import path_similarity

        assert path_similarity(grid_network, paths[0], constructed) >= 0.9

    def test_similarity_reported_high_for_consistent_paths(self, grid_network):
        paths = [shortest_path(grid_network, 1, 88)]
        learned = PreferenceLearner(grid_network).learn_many([paths])[0]
        assert learned.similarity > 0.9

    def test_empty_path_set_defaults_to_fastest(self, grid_network):
        learned = PreferenceLearner(grid_network).learn_many([[]])[0]
        assert learned.preference.master is CostFeature.TRAVEL_TIME
        assert learned.similarity == 0.0

    def test_per_path_preferences_counted(self, grid_network):
        paths = [shortest_path(grid_network, 0, 27), fastest_path(grid_network, 0, 99)]
        learned = PreferenceLearner(grid_network).learn_many([paths])[0]
        assert len(learned.per_path_preferences) == 2
        assert learned.unique_preference_count >= 1

    def test_learn_t_edge_preferences_annotates_edges(self, tiny, tiny_region_graph, monkeypatch):
        monkeypatch.setattr(learning, "MAX_PATHS_PER_EDGE", 3)
        results = learn_t_edge_preferences(tiny.network, tiny_region_graph)
        assert results
        for edge in tiny_region_graph.t_edges():
            assert edge.preference is not None
            assert not edge.preference_transferred


class TestSolvers:
    def _spd_system(self, n: int = 8, seed: int = 1):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        matrix = a @ a.T + n * np.eye(n)
        rhs = rng.normal(size=n)
        return matrix, rhs

    def test_cg_matches_direct(self):
        matrix, rhs = self._spd_system()
        expected = np.linalg.solve(matrix, rhs)
        result = conjugate_gradient(matrix, rhs)
        assert result.converged
        np.testing.assert_allclose(result.x, expected, rtol=1e-6, atol=1e-8)

    def test_cg_on_trivial_zero_rhs(self):
        matrix = np.eye(3)
        result = conjugate_gradient(matrix, np.zeros(3))
        assert result.converged
        np.testing.assert_allclose(result.x, np.zeros(3))


def _region_edge(distance_m: float, types: frozenset, kind: str = "T") -> RegionEdge:
    return RegionEdge(region_a=0, region_b=1, kind=kind, centroid_distance_m=distance_m, functionality=types)


class TestTransfer:
    def _catalog(self):
        return FeatureCatalog()

    def test_transfer_copies_to_identical_edge(self):
        from repro.network import RoadType

        functionality = frozenset({(RoadType.PRIMARY, RoadType.RESIDENTIAL)})
        t_edge = _region_edge(1_000.0, functionality, "T")
        b_edge = _region_edge(1_050.0, functionality, "B")
        known = PreferenceVector(master=CostFeature.TRAVEL_TIME, slave=MAJOR_ROADS)
        transfer = PreferenceTransfer(config=TransferConfig(amr=0.7))
        result = transfer.transfer([t_edge, b_edge], [known, None])
        assert result.preferences[1] is not None
        assert result.preferences[1].master is CostFeature.TRAVEL_TIME
        assert result.null_rate == 0.0

    def test_dissimilar_b_edge_gets_null(self):
        from repro.network import RoadType

        t_edge = _region_edge(500.0, frozenset({(RoadType.PRIMARY, RoadType.PRIMARY)}), "T")
        b_edge = _region_edge(50_000.0, frozenset({(RoadType.RESIDENTIAL, RoadType.RESIDENTIAL)}), "B")
        known = PreferenceVector(master=CostFeature.DISTANCE, slave=LOCAL_ROADS)
        result = PreferenceTransfer(config=TransferConfig(amr=0.9)).transfer(
            [t_edge, b_edge], [known, None]
        )
        assert result.preferences[1] is None
        assert result.null_rate == 1.0

    def test_needs_at_least_one_label(self):
        b_edge = _region_edge(100.0, frozenset(), "B")
        with pytest.raises(TransferError):
            PreferenceTransfer().transfer([b_edge], [None])

    def test_misaligned_inputs_rejected(self):
        t_edge = _region_edge(100.0, frozenset(), "T")
        with pytest.raises(TransferError):
            PreferenceTransfer().transfer([t_edge], [])

    def test_empty_input(self):
        result = PreferenceTransfer().transfer([], [])
        assert result.preferences == []

    def test_t_edges_keep_their_preferences(self):
        from repro.network import RoadType

        functionality = frozenset({(RoadType.PRIMARY, RoadType.PRIMARY)})
        t1 = _region_edge(1_000.0, functionality, "T")
        t2 = _region_edge(1_100.0, functionality, "T")
        known1 = PreferenceVector(master=CostFeature.DISTANCE)
        known2 = PreferenceVector(master=CostFeature.TRAVEL_TIME)
        result = PreferenceTransfer().transfer([t1, t2], [known1, known2])
        assert result.preferences[0] == known1
        assert result.preferences[1] == known2

    def test_amr_controls_adjacency_density(self):
        from repro.network import RoadType

        functionality = frozenset({(RoadType.PRIMARY, RoadType.PRIMARY)})
        edges = [_region_edge(1_000.0 + 300.0 * i, functionality, "T") for i in range(6)]
        labels = [PreferenceVector(master=CostFeature.DISTANCE)] * 6
        loose = PreferenceTransfer(config=TransferConfig(amr=0.5)).transfer(edges, labels)
        strict = PreferenceTransfer(config=TransferConfig(amr=1.9)).transfer(edges, labels)
        assert loose.adjacency_density >= strict.adjacency_density

    def test_transfer_to_region_graph_b_edges(self, tiny, fitted_l2r):
        region_graph = fitted_l2r.region_graph
        b_edges = region_graph.b_edges()
        if not b_edges:
            pytest.skip("tiny scenario produced no B-edges")
        transferred = [e for e in b_edges if e.preference is not None]
        # Each transferred B-edge must be flagged as transferred.
        assert all(e.preference_transferred for e in transferred)

    def test_evaluate_transfer_accuracy_perfect(self):
        prefs = [PreferenceVector(master=CostFeature.DISTANCE, slave=MAJOR_ROADS)] * 3
        assert evaluate_transfer_accuracy([None] * 3, prefs, prefs) == pytest.approx(1.0)

    def test_evaluate_transfer_accuracy_empty(self):
        assert evaluate_transfer_accuracy([], [], []) == 0.0


class TestApply:
    def test_materialize_attaches_paths(self, tiny, fitted_l2r):
        region_graph = fitted_l2r.region_graph
        b_edges = region_graph.b_edges()
        if not b_edges:
            pytest.skip("tiny scenario produced no B-edges")
        with_paths = [e for e in b_edges if e.paths()]
        assert with_paths, "at least some B-edges must receive materialized paths"
        for edge in with_paths[:10]:
            assert all(path.is_valid(tiny.network) for path in edge.paths())

    def test_materialize_is_idempotent_in_count_shape(self, tiny, tiny_region_graph, monkeypatch):
        monkeypatch.setattr(learning, "MAX_PATHS_PER_EDGE", 2)
        learn_t_edge_preferences(tiny.network, tiny_region_graph)
        if tiny_region_graph.b_edges():
            transfer_to_b_edges(tiny_region_graph)
        first = materialize_b_edge_paths(tiny.network, tiny_region_graph)
        second = materialize_b_edge_paths(tiny.network, tiny_region_graph)
        assert second <= first or first == 0
