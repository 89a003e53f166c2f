"""Tests for the driver-population trajectory generator and the scenarios."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.datasets import d2_like_scenario, tiny_scenario
from repro.datasets.splits import k_fold_partitions, split_by_id
from repro.trajectories import GeneratorConfig, TrajectoryGenerator
from repro.trajectories.generator import DriverProfile


class TestGenerator:
    def test_generates_requested_count(self, generated_grid):
        assert len(generated_grid.trajectories) == 80

    def test_all_paths_valid(self, grid_network, generated_grid):
        assert all(t.path.is_valid(grid_network) for t in generated_grid.trajectories)

    def test_deterministic_given_seed(self, grid_network):
        config = GeneratorConfig(n_drivers=5, n_trajectories=20, seed=77)
        a = TrajectoryGenerator(grid_network, config).generate()
        b = TrajectoryGenerator(grid_network, config).generate()
        assert [t.path.vertices for t in a.trajectories] == [t.path.vertices for t in b.trajectories]

    def test_driver_ids_in_range(self, generated_grid):
        driver_ids = {t.driver_id for t in generated_grid.trajectories}
        assert driver_ids <= set(range(10))

    def test_hotspot_skew_concentrates_endpoints(self, grid_network):
        config = GeneratorConfig(
            n_drivers=8,
            n_trajectories=60,
            hotspot_count=2,
            hotspot_probability=0.95,
            hotspot_radius_m=350.0,
            seed=5,
        )
        data = TrajectoryGenerator(grid_network, config).generate()
        sources = [t.source for t in data.trajectories]
        # With 2 hotspots and 0.95 probability, a few source vertices dominate.
        from collections import Counter

        top_share = sum(c for _, c in Counter(sources).most_common(10)) / len(sources)
        assert top_share > 0.5

    def test_trip_preferences_recorded(self, generated_grid):
        assert len(generated_grid.trip_preferences) == len(generated_grid.trajectories)

    def test_drivers_have_profiles(self, generated_grid):
        assert all(isinstance(d, DriverProfile) for d in generated_grid.drivers)
        assert all(0.5 <= d.adherence <= 1.0 for d in generated_grid.drivers)

    def test_too_small_network_rejected(self):
        from repro.network import RoadNetwork

        network = RoadNetwork()
        for i in range(3):
            network.add_vertex(i, 10.0 + i * 0.001, 56.0)
        with pytest.raises(ValueError):
            TrajectoryGenerator(network)

    def test_departure_times_within_day(self, generated_grid):
        assert all(0 <= t.departure_time < 86_400 for t in generated_grid.trajectories)


class TestScenarios:
    def test_tiny_scenario_contents(self, tiny):
        assert tiny.network.vertex_count == 100
        assert len(tiny.trajectories) > 50
        assert tiny.bands_km

    def test_scenario_scale_validation(self):
        with pytest.raises(ValueError):
            d2_like_scenario(scale=0.0)

    def test_tiny_scenario_deterministic(self):
        a = tiny_scenario(seed=3, n_trajectories=30)
        b = tiny_scenario(seed=3, n_trajectories=30)
        assert [t.path.vertices for t in a.trajectories] == [t.path.vertices for t in b.trajectories]


class TestSplits:
    def test_split_by_id_deterministic_partition(self, tiny):
        a = split_by_id(tiny.trajectories, train_fraction=0.75)
        b = split_by_id(tiny.trajectories, train_fraction=0.75)
        assert [t.trajectory_id for t in a.train] == [t.trajectory_id for t in b.train]
        assert len(a.train) + len(a.test) == len(tiny.trajectories)
        assert 0.5 < len(a.train) / len(tiny.trajectories) < 0.95

    @pytest.mark.parametrize("fraction, buckets", [(0.29, 29), (0.57, 57), (0.75, 75)])
    def test_split_by_id_selects_rounded_bucket_count(self, fraction, buckets):
        # The hash multiplier is coprime to 100, so ids 0..99 fill each of
        # the 100 buckets once; 0.29 * 100 is 28.999... in binary.
        trajectories = [SimpleNamespace(trajectory_id=i) for i in range(100)]
        split = split_by_id(trajectories, train_fraction=fraction)
        assert len(split.train) == buckets

    def test_split_fraction_validation(self, tiny):
        with pytest.raises(ValueError):
            split_by_id(tiny.trajectories, train_fraction=1.5)
        with pytest.raises(ValueError):
            split_by_id(tiny.trajectories, train_fraction=0.0)

    def test_k_fold_partitions(self):
        folds = k_fold_partitions(list(range(10)), k=5)
        assert len(folds) == 5
        assert sorted(x for fold in folds for x in fold) == list(range(10))
        assert all(len(fold) == 2 for fold in folds)

    def test_k_fold_validation(self):
        with pytest.raises(ValueError):
            k_fold_partitions([1, 2, 3], k=1)
