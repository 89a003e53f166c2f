"""GPS sampling simulation.

Turns a ground-truth road-network path into a raw GPS trajectory by driving
along the path at edge speeds and emitting observations at a configurable
sampling interval with Gaussian position noise.
:func:`high_frequency_sampler` (1 Hz) mirrors the paper's D1 data set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..network.road_network import RoadNetwork
from ..network.spatial import LonLat
from ..routing.path import Path
from .models import GPSRecord, Trajectory


@dataclass(frozen=True)
class SamplingSpec:
    """How to turn a driven path into GPS observations."""

    interval_s: float
    noise_std_m: float
    speed_factor: float = 1.0
    """Multiplier on free-flow speeds (values < 1 model congestion)."""

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        if self.noise_std_m < 0:
            raise ValueError("noise standard deviation cannot be negative")
        if self.speed_factor <= 0:
            raise ValueError("speed factor must be positive")


def high_frequency_sampler(noise_std_m: float = 4.0) -> SamplingSpec:
    """1 Hz sampling with modest noise — mirrors the paper's D1 fleet."""
    return SamplingSpec(interval_s=1.0, noise_std_m=noise_std_m)


def _jitter(point: LonLat, noise_std_m: float, rng: random.Random) -> LonLat:
    if noise_std_m <= 0:
        return point
    # 1 degree latitude ~= 111.32 km; longitude scaled by cos(lat).
    import math

    dlat = rng.gauss(0.0, noise_std_m) / 111_320.0
    dlon = rng.gauss(0.0, noise_std_m) / (111_320.0 * max(0.2, math.cos(math.radians(point[1]))))
    return (point[0] + dlon, point[1] + dlat)


def sample_path(
    network: RoadNetwork,
    path: Path,
    spec: SamplingSpec,
    trajectory_id: int,
    driver_id: int,
    departure_time: float = 0.0,
    rng: random.Random | None = None,
    occupied: bool = True,
) -> Trajectory:
    """Simulate driving along ``path`` and emit a raw :class:`Trajectory`.

    The vehicle moves edge by edge at ``speed_factor`` times the edge's
    free-flow speed; a GPS record is emitted every ``spec.interval_s`` seconds
    of simulated time (plus one record at the very start and end).
    """
    rng = rng or random.Random(trajectory_id * 7919 + driver_id)
    records: list[GPSRecord] = []

    start = network.coordinates(path.source)
    records.append(
        GPSRecord(*_jitter(start, spec.noise_std_m, rng), timestamp=departure_time)
    )

    clock = departure_time
    next_emit = departure_time + spec.interval_s

    for source, target in path.edge_keys:
        edge = network.edge(source, target)
        a = network.coordinates(source)
        b = network.coordinates(target)
        speed = max(1.0, edge.speed_kmh * spec.speed_factor)
        edge_duration = edge.distance_m / (speed / 3.6)
        edge_end = clock + edge_duration
        while next_emit <= edge_end:
            t = (next_emit - clock) / edge_duration if edge_duration > 0 else 1.0
            point = (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)
            records.append(
                GPSRecord(
                    *_jitter(point, spec.noise_std_m, rng),
                    timestamp=next_emit,
                    speed_kmh=speed,
                )
            )
            next_emit += spec.interval_s
        clock = edge_end

    end = network.coordinates(path.destination)
    final_time = max(clock, records[-1].timestamp + 1e-3)
    records.append(GPSRecord(*_jitter(end, spec.noise_std_m, rng), timestamp=final_time))

    return Trajectory(
        trajectory_id=trajectory_id,
        driver_id=driver_id,
        records=tuple(records),
        occupied=occupied,
    )
