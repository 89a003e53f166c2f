"""Tests for the HMM map matcher and the spatial index feeding it."""

from __future__ import annotations

import pytest

from repro.exceptions import MapMatchingError
from repro.network import SpatialIndex
from repro.preferences import path_similarity
from repro.routing import fastest_path, shortest_path
from repro.trajectories import (
    GPSRecord,
    HMMMapMatcher,
    SamplingSpec,
    Trajectory,
    high_frequency_sampler,
    sample_path,
)
from repro.trajectories import map_matching


class TestSpatialIndex:
    def test_candidate_edges_sorted_by_distance(self, grid_network):
        index = SpatialIndex(grid_network)
        point = grid_network.coordinates(10)
        candidates = index.candidate_edges(point, radius_m=200.0)
        assert candidates
        distances = [d for _, d in candidates]
        assert distances == sorted(distances)


class TestHMMMapMatcher:
    @pytest.fixture(scope="class")
    def matcher(self, grid_network):
        return HMMMapMatcher(grid_network)

    def test_matches_clean_trajectory_exactly(self, grid_network, matcher):
        ground_truth = shortest_path(grid_network, 0, 77)
        raw = sample_path(
            grid_network, ground_truth, high_frequency_sampler(noise_std_m=0.0), 1, 1
        )
        matched = matcher.match(raw)
        similarity = path_similarity(grid_network, ground_truth, matched.path)
        assert similarity > 0.9

    def test_matches_noisy_trajectory_reasonably(self, grid_network, matcher):
        ground_truth = fastest_path(grid_network, 3, 93)
        raw = sample_path(
            grid_network, ground_truth, high_frequency_sampler(noise_std_m=6.0), 2, 1
        )
        matched = matcher.match(raw)
        assert matched.path.is_valid(grid_network)
        assert path_similarity(grid_network, ground_truth, matched.path) > 0.6

    def test_matched_metadata_preserved(self, grid_network, matcher):
        ground_truth = shortest_path(grid_network, 5, 55)
        raw = sample_path(
            grid_network, ground_truth, high_frequency_sampler(noise_std_m=2.0),
            trajectory_id=17, driver_id=4, departure_time=3_600.0,
        )
        matched = matcher.match(raw)
        assert matched.trajectory_id == 17
        assert matched.driver_id == 4
        assert matched.departure_time == pytest.approx(3_600.0)
        assert matched.raw is raw

    def test_unmatchable_trajectory_raises(self, grid_network, matcher):
        far = Trajectory(
            trajectory_id=9,
            driver_id=9,
            records=(GPSRecord(0.0, 0.0, 0.0), GPSRecord(0.001, 0.0, 10.0)),
        )
        with pytest.raises(MapMatchingError):
            matcher.match(far)

    def test_match_many_skips_failures(self, grid_network, matcher):
        good_path = shortest_path(grid_network, 0, 33)
        good = sample_path(grid_network, good_path, high_frequency_sampler(0.0), 1, 1)
        bad = Trajectory(
            trajectory_id=2,
            driver_id=2,
            records=(GPSRecord(0.0, 0.0, 0.0), GPSRecord(0.001, 0.0, 10.0)),
        )
        matched = matcher.match_many([good, bad])
        assert len(matched) == 1

    def test_match_many_raises_when_requested(self, grid_network, matcher):
        bad = Trajectory(
            trajectory_id=2,
            driver_id=2,
            records=(GPSRecord(0.0, 0.0, 0.0), GPSRecord(0.001, 0.0, 10.0)),
        )
        with pytest.raises(MapMatchingError):
            matcher.match_many([bad], skip_failures=False)

    def test_low_frequency_matching_still_connected(self, grid_network, monkeypatch):
        monkeypatch.setattr(map_matching, "CANDIDATE_RADIUS_M", 150.0)
        matcher = HMMMapMatcher(grid_network)
        ground_truth = fastest_path(grid_network, 0, 99)
        sampling = SamplingSpec(interval_s=25.0, noise_std_m=5.0)
        raw = sample_path(grid_network, ground_truth, sampling, 3, 1)
        matched = matcher.match(raw)
        assert matched.path.is_valid(grid_network)
        assert matched.source == ground_truth.source
        assert matched.destination == ground_truth.destination
