"""Trajectory (de)serialization.

Raw GPS trajectories use a CSV format with one record per line (the layout
commonly used for published taxi data sets); matched trajectories use a JSON
Lines format carrying the vertex path, which is compact and stream-friendly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path as FilePath
from typing import Iterable

from ..routing.path import Path
from .models import MatchedTrajectory, Trajectory

_CSV_HEADER = ["trajectory_id", "driver_id", "timestamp", "lon", "lat", "speed_kmh", "occupied"]


def save_raw_csv(trajectories: Iterable[Trajectory], path: str | FilePath) -> None:
    """Write raw GPS trajectories to a CSV file (one record per row)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        for trajectory in trajectories:
            for record in trajectory.records:
                writer.writerow(
                    [
                        trajectory.trajectory_id,
                        trajectory.driver_id,
                        f"{record.timestamp:.3f}",
                        f"{record.lon:.7f}",
                        f"{record.lat:.7f}",
                        "" if record.speed_kmh is None else f"{record.speed_kmh:.2f}",
                        int(trajectory.occupied),
                    ]
                )


def save_matched_jsonl(trajectories: Iterable[MatchedTrajectory], path: str | FilePath) -> None:
    """Write matched trajectories as JSON Lines (one trajectory per line)."""
    with open(path, "w") as handle:
        for trajectory in trajectories:
            handle.write(
                json.dumps(
                    {
                        "trajectory_id": trajectory.trajectory_id,
                        "driver_id": trajectory.driver_id,
                        "vertices": list(trajectory.path.vertices),
                        "departure_time": trajectory.departure_time,
                        "duration_s": trajectory.duration_s,
                    }
                )
            )
            handle.write("\n")


def load_matched_jsonl(path: str | FilePath) -> list[MatchedTrajectory]:
    """Read matched trajectories previously written by :func:`save_matched_jsonl`."""
    trajectories: list[MatchedTrajectory] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            trajectories.append(
                MatchedTrajectory(
                    trajectory_id=int(payload["trajectory_id"]),
                    driver_id=int(payload["driver_id"]),
                    path=Path.of([int(v) for v in payload["vertices"]]),
                    departure_time=float(payload["departure_time"]),
                    duration_s=float(payload["duration_s"]),
                )
            )
    return trajectories
