"""Tests for trajectory models, GPS sampling, I/O, and statistics."""

from __future__ import annotations

import csv

import pytest

from repro.exceptions import TrajectoryError
from repro.routing import Path, shortest_path
from repro.trajectories import (
    D1_DISTANCE_BANDS_KM,
    D2_DISTANCE_BANDS_KM,
    GPSRecord,
    MatchedTrajectory,
    Trajectory,
    band_index,
    distance_band_statistics,
    format_distance_table,
    high_frequency_sampler,
    load_matched_jsonl,
    sample_path,
    save_matched_jsonl,
    save_raw_csv,
)
from repro.trajectories.sampling import SamplingSpec


def _make_trajectory(records=None, trajectory_id=1, driver_id=2):
    if records is None:
        records = (
            GPSRecord(10.0, 56.0, 0.0),
            GPSRecord(10.001, 56.0, 10.0),
            GPSRecord(10.002, 56.0, 20.0),
        )
    return Trajectory(trajectory_id=trajectory_id, driver_id=driver_id, records=tuple(records))


class TestTrajectoryModel:
    def test_needs_two_records(self):
        with pytest.raises(TrajectoryError):
            Trajectory(trajectory_id=1, driver_id=1, records=(GPSRecord(10.0, 56.0, 0.0),))

    def test_timestamps_must_be_monotone(self):
        with pytest.raises(TrajectoryError):
            _make_trajectory(
                records=(GPSRecord(10.0, 56.0, 10.0), GPSRecord(10.0, 56.0, 5.0))
            )

    def test_duration_and_sampling(self):
        trajectory = _make_trajectory()
        assert trajectory.duration_s == 20.0
        assert [record.timestamp for record in trajectory.records] == [0.0, 10.0, 20.0]

    def test_coordinates(self):
        trajectory = _make_trajectory()
        assert trajectory.records[0].lonlat == (10.0, 56.0)

    def test_len_and_iter(self):
        trajectory = _make_trajectory()
        assert len(trajectory) == 3


class TestMatchedTrajectory:
    def test_requires_two_vertices(self):
        with pytest.raises(TrajectoryError):
            MatchedTrajectory(
                trajectory_id=1, driver_id=1, path=Path.of([5]), departure_time=0.0, duration_s=10.0
            )

    def test_source_destination(self, line_network):
        matched = MatchedTrajectory(
            trajectory_id=1, driver_id=1, path=Path.of([0, 1, 2]), departure_time=0.0, duration_s=60.0
        )
        assert matched.source == 0
        assert matched.destination == 2
        assert matched.distance_km(line_network) == pytest.approx(2.0)


class TestSampling:
    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SamplingSpec(interval_s=0.0, noise_std_m=1.0)
        with pytest.raises(ValueError):
            SamplingSpec(interval_s=1.0, noise_std_m=-1.0)
        with pytest.raises(ValueError):
            SamplingSpec(interval_s=1.0, noise_std_m=1.0, speed_factor=0.0)

    def test_presets(self):
        assert high_frequency_sampler().interval_s == 1.0

    def test_high_frequency_emits_many_records(self, grid_network):
        path = shortest_path(grid_network, 0, 99)
        trajectory = sample_path(
            grid_network, path, high_frequency_sampler(noise_std_m=0.0), trajectory_id=1, driver_id=1
        )
        # At 1 Hz the number of records tracks the travel time in seconds.
        assert len(trajectory) >= path.travel_time_s(grid_network) * 0.8

    def test_low_frequency_emits_fewer_records(self, grid_network):
        path = shortest_path(grid_network, 0, 99)
        high = sample_path(grid_network, path, high_frequency_sampler(0.0), 1, 1)
        low = sample_path(grid_network, path, SamplingSpec(interval_s=20.0, noise_std_m=0.0), 2, 1)
        assert len(low) < len(high)

    def test_records_are_time_ordered(self, grid_network):
        path = shortest_path(grid_network, 0, 45)
        trajectory = sample_path(grid_network, path, high_frequency_sampler(), 3, 1)
        times = [r.timestamp for r in trajectory.records]
        assert times == sorted(times)

    def test_departure_time_respected(self, grid_network):
        path = shortest_path(grid_network, 0, 12)
        trajectory = sample_path(
            grid_network, path, high_frequency_sampler(), 4, 1, departure_time=1000.0
        )
        assert trajectory.departure_time == pytest.approx(1000.0)

    def test_noise_zero_puts_first_record_on_source(self, grid_network):
        path = shortest_path(grid_network, 0, 12)
        spec = SamplingSpec(interval_s=1.0, noise_std_m=0.0)
        trajectory = sample_path(grid_network, path, spec, 5, 1)
        assert trajectory.records[0].lonlat == grid_network.coordinates(0)


class TestStatistics:
    def test_band_index_half_open(self):
        assert band_index(0.5, D2_DISTANCE_BANDS_KM) == 0
        assert band_index(2.0, D2_DISTANCE_BANDS_KM) == 0
        assert band_index(2.1, D2_DISTANCE_BANDS_KM) == 1
        assert band_index(40.0, D2_DISTANCE_BANDS_KM) is None
        assert band_index(0.0, D2_DISTANCE_BANDS_KM) == 0

    def test_d1_bands_cover_long_trips(self):
        assert band_index(250.0, D1_DISTANCE_BANDS_KM) == 3

    def test_distance_band_statistics(self, tiny):
        stats = distance_band_statistics(tiny.trajectories, tiny.network, D2_DISTANCE_BANDS_KM)
        assert stats.total > 0
        assert sum(stats.counts) == stats.total
        assert sum(stats.percentages) == pytest.approx(100.0, abs=0.1)

    def test_format_distance_table(self, tiny):
        stats = distance_band_statistics(tiny.trajectories, tiny.network, D2_DISTANCE_BANDS_KM)
        text = format_distance_table(stats, title="Tiny")
        assert "Tiny" in text
        assert "Percentage" in text

    def test_empty_statistics(self, tiny):
        stats = distance_band_statistics([], tiny.network, D2_DISTANCE_BANDS_KM)
        assert stats.total == 0
        assert all(p == 0.0 for p in stats.percentages)


class TestIO:
    def test_raw_csv_round_trip(self, tmp_path, grid_network):
        path = shortest_path(grid_network, 0, 25)
        trajectory = sample_path(grid_network, path, high_frequency_sampler(), 7, 3)
        target = tmp_path / "raw.csv"
        save_raw_csv([trajectory], target)
        with open(target, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(trajectory)
        assert {(row["trajectory_id"], row["driver_id"]) for row in rows} == {("7", "3")}
        assert float(rows[0]["lon"]) == pytest.approx(trajectory.records[0].lon)

    def test_matched_jsonl_round_trip(self, tmp_path, tiny):
        target = tmp_path / "matched.jsonl"
        sample = tiny.trajectories[:10]
        save_matched_jsonl(sample, target)
        loaded = load_matched_jsonl(target)
        assert len(loaded) == 10
        assert loaded[0].path.vertices == sample[0].path.vertices
        assert loaded[0].departure_time == pytest.approx(sample[0].departure_time)
