"""Trajectory substrate: GPS models, simulation, map matching, statistics,
and files: raw GPS written as CSV, matched trajectories as JSON Lines."""

from .models import GPSRecord, MatchedTrajectory, Trajectory, TrajectorySet
from .sampling import SamplingSpec, high_frequency_sampler, sample_path
from .map_matching import HMMMapMatcher
from .generator import (
    DriverProfile,
    GeneratedData,
    GeneratorConfig,
    TrajectoryGenerator,
)
from .statistics import (
    D1_DISTANCE_BANDS_KM,
    D2_DISTANCE_BANDS_KM,
    DistanceBandStatistics,
    band_index,
    distance_band_statistics,
    format_distance_table,
)
from .io import (
    load_matched_jsonl,
    save_matched_jsonl,
    save_raw_csv,
)

__all__ = [
    "D1_DISTANCE_BANDS_KM",
    "D2_DISTANCE_BANDS_KM",
    "DistanceBandStatistics",
    "DriverProfile",
    "GPSRecord",
    "GeneratedData",
    "GeneratorConfig",
    "HMMMapMatcher",
    "MatchedTrajectory",
    "SamplingSpec",
    "Trajectory",
    "TrajectoryGenerator",
    "TrajectorySet",
    "band_index",
    "distance_band_statistics",
    "format_distance_table",
    "high_frequency_sampler",
    "load_matched_jsonl",
    "sample_path",
    "save_matched_jsonl",
    "save_raw_csv",
]
