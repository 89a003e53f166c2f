"""Trajectory data model.

A :class:`Trajectory` is a time-ordered sequence of :class:`GPSRecord`
observations produced by one vehicle on one trip.  A
:class:`MatchedTrajectory` additionally carries the road-network path produced
by map matching; it is the unit that the region-graph construction, preference
learning, and the evaluation harness consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import TrajectoryError
from ..network.road_network import RoadNetwork, VertexId
from ..network.spatial import LonLat
from ..routing.path import Path


@dataclass(frozen=True)
class GPSRecord:
    """One GPS observation: position, timestamp (seconds), and optional speed."""

    lon: float
    lat: float
    timestamp: float
    speed_kmh: float | None = None

    @property
    def lonlat(self) -> LonLat:
        return (self.lon, self.lat)


@dataclass(frozen=True)
class Trajectory:
    """A raw (not yet map-matched) GPS trajectory."""

    trajectory_id: int
    driver_id: int
    records: tuple[GPSRecord, ...]
    occupied: bool = True
    """For taxi data: True while a passenger is on board (the paper only uses
    occupied parts of D2 trips)."""

    def __post_init__(self) -> None:
        if len(self.records) < 2:
            raise TrajectoryError(
                f"trajectory {self.trajectory_id} needs at least two GPS records"
            )
        times = [r.timestamp for r in self.records]
        if any(times[i] > times[i + 1] for i in range(len(times) - 1)):
            raise TrajectoryError(
                f"trajectory {self.trajectory_id} has non-monotone timestamps"
            )

    def __len__(self) -> int:
        return len(self.records)

    @property
    def departure_time(self) -> float:
        return self.records[0].timestamp

    @property
    def arrival_time(self) -> float:
        return self.records[-1].timestamp

    @property
    def duration_s(self) -> float:
        return self.arrival_time - self.departure_time


@dataclass(frozen=True)
class MatchedTrajectory:
    """A trajectory aligned with the road network by map matching."""

    trajectory_id: int
    driver_id: int
    path: Path
    departure_time: float
    duration_s: float
    raw: Trajectory | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise TrajectoryError(
                f"matched trajectory {self.trajectory_id} must visit at least two vertices"
            )

    @property
    def source(self) -> VertexId:
        return self.path.source

    @property
    def destination(self) -> VertexId:
        return self.path.destination

    def distance_m(self, network: RoadNetwork) -> float:
        return self.path.distance_m(network)

    def distance_km(self, network: RoadNetwork) -> float:
        return self.distance_m(network) / 1000.0


TrajectorySet = list[MatchedTrajectory]
"""A collection of matched trajectories (the library's working unit)."""
