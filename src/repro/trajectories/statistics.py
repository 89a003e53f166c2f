"""Trajectory-set statistics (Table II of the paper).

Table II reports, per data set, how many trajectories fall into each travel
distance band and the corresponding percentages.  This module computes the
same breakdown for any trajectory set and any band specification, and renders
it as a text table for the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..network.road_network import RoadNetwork
from .models import MatchedTrajectory

D1_DISTANCE_BANDS_KM: tuple[tuple[float, float], ...] = (
    (0.0, 10.0),
    (10.0, 50.0),
    (50.0, 100.0),
    (100.0, 500.0),
)
"""The distance bands used for D1 (Denmark) in Table II and Figs. 10-13."""

D2_DISTANCE_BANDS_KM: tuple[tuple[float, float], ...] = (
    (0.0, 2.0),
    (2.0, 5.0),
    (5.0, 10.0),
    (10.0, 35.0),
)
"""The distance bands used for D2 (Chengdu) in Table II and Figs. 10-13."""


@dataclass(frozen=True)
class DistanceBandStatistics:
    """Counts and percentages of trajectories per distance band."""

    bands_km: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    total: int

    @property
    def percentages(self) -> tuple[float, ...]:
        if self.total == 0:
            return tuple(0.0 for _ in self.counts)
        return tuple(100.0 * c / self.total for c in self.counts)

    def band_label(self, index: int) -> str:
        lo, hi = self.bands_km[index]
        return f"({lo:g},{hi:g}]"


def band_index(distance_km: float, bands_km: Sequence[tuple[float, float]]) -> int | None:
    """The index of the band containing ``distance_km`` (half-open ``(lo, hi]``)."""
    for i, (lo, hi) in enumerate(bands_km):
        if lo < distance_km <= hi:
            return i
    # Distances of exactly zero belong to the first band by convention.
    if distance_km == 0.0 and bands_km:
        return 0
    return None


def distance_band_statistics(
    trajectories: Sequence[MatchedTrajectory],
    network: RoadNetwork,
    bands_km: Sequence[tuple[float, float]] = D1_DISTANCE_BANDS_KM,
) -> DistanceBandStatistics:
    """Compute Table II style distance-band statistics."""
    counts = [0] * len(bands_km)
    total = 0
    for trajectory in trajectories:
        distance_km = trajectory.distance_km(network)
        index = band_index(distance_km, bands_km)
        if index is None:
            continue
        counts[index] += 1
        total += 1
    return DistanceBandStatistics(
        bands_km=tuple(bands_km), counts=tuple(counts), total=total
    )


def format_distance_table(stats: DistanceBandStatistics, title: str = "Trajectories") -> str:
    """Render the statistics as a Table-II-like text table."""
    lines = [title]
    header = "Distance (km)  " + "  ".join(f"{stats.band_label(i):>12}" for i in range(len(stats.bands_km)))
    lines.append(header)
    lines.append(
        "# Trajectories " + "  ".join(f"{c:>12d}" for c in stats.counts)
    )
    lines.append(
        "Percentage (%) " + "  ".join(f"{p:>12.1f}" for p in stats.percentages)
    )
    return "\n".join(lines)
