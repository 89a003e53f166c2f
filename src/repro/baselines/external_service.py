"""A simulated commercial routing service (the paper's Google Maps comparison).

The paper queries the Google Directions API and compares the returned
way-point polylines against ground-truth paths using a 10 m band (Fig. 14).
Without network access we simulate a comparable service:

* it routes for *time* on its own slightly different travel-time model — a
  global perturbation of edge speeds plus a bias that favours major roads
  (commercial services weigh live traffic and road hierarchy, not local
  drivers' preferences);
* it does not return an edge path but a sparse sequence of way-points in
  lon/lat (as the Directions API does), optionally with coordinate jitter;
* the comparison against a ground-truth path therefore uses the band-matching
  methodology (:func:`repro.network.spatial.match_waypoints_to_polyline`),
  exactly as the paper does for Google paths.

The simulated service's behaviour is the module constants below.
"""

from __future__ import annotations

import math
import random

from ..network.road_network import Edge, RoadNetwork, VertexId
from ..network.spatial import LonLat, match_waypoints_to_polyline
from ..routing.astar import astar, travel_time_heuristic
from ..routing.path import Path
from .base import RoutingAlgorithm


MAJOR_ROAD_BIAS = 0.85
"""Multiplier (< 1) applied to major-road travel times — the service
prefers the arterial hierarchy."""
SPEED_PERTURBATION = 0.10
"""Relative amplitude of the per-edge random perturbation of travel times
(models the service's independent traffic model)."""
WAYPOINT_STRIDE = 4
"""A way-point is emitted every this many path vertices."""
WAYPOINT_JITTER_M = 3.0
"""Gaussian jitter applied to emitted way-points."""
SEED = 20180417
"""Seed of the perturbation and of the per-request way-point jitter."""


class ExternalRoutingService(RoutingAlgorithm):
    """Google-Directions-like routing: time-optimal, major-road biased."""

    name = "Google"

    def __init__(self, network: RoadNetwork) -> None:
        super().__init__(network)
        rng = random.Random(SEED)
        self._perturbation: dict[tuple[VertexId, VertexId], float] = {}
        for edge in network.edges():
            self._perturbation[edge.key] = 1.0 + rng.uniform(
                -SPEED_PERTURBATION, SPEED_PERTURBATION
            )

    # ------------------------------------------------------------------ #
    def _service_time(self, edge: Edge) -> float:
        factor = self._perturbation.get(edge.key, 1.0)
        if edge.road_type.is_major:
            factor *= MAJOR_ROAD_BIAS
        return edge.travel_time_s * factor

    def route(
        self,
        source: VertexId,
        destination: VertexId,
        departure_time: float | None = None,
        driver_id: int | None = None,
    ) -> Path:
        """The service's internal edge path (used for the uniform harness)."""
        return astar(
            self._network,
            source,
            destination,
            self._service_time,
            travel_time_heuristic(self._network, destination),
        )

    def directions(
        self,
        source: VertexId,
        destination: VertexId,
        departure_time: float | None = None,
    ) -> list[LonLat]:
        """The service's public answer: a sparse way-point polyline."""
        path = self.route(source, destination, departure_time=departure_time)
        rng = random.Random(SEED ^ (source * 1_000_003 + destination))
        waypoints: list[LonLat] = []
        vertices = path.vertices
        indices = list(range(0, len(vertices), WAYPOINT_STRIDE))
        if indices[-1] != len(vertices) - 1:
            indices.append(len(vertices) - 1)
        for index in indices:
            lon, lat = self._network.coordinates(vertices[index])
            lat_jitter = rng.gauss(0.0, WAYPOINT_JITTER_M) / 111_320.0
            lon_jitter = rng.gauss(0.0, WAYPOINT_JITTER_M) / (
                111_320.0 * max(0.2, math.cos(math.radians(lat)))
            )
            waypoints.append((lon + lon_jitter, lat + lat_jitter))
        return waypoints


def waypoint_accuracy(
    network: RoadNetwork,
    ground_truth: Path,
    waypoints: list[LonLat],
    band_m: float = 10.0,
) -> float:
    """Accuracy of a way-point answer against a ground-truth path (Fig. 14).

    The ground-truth path is widened into a ``band_m`` band; the matched
    ground-truth length between consecutive in-band way-point projections,
    divided by the total ground-truth length, is the Eq. 1 style accuracy.
    """
    polyline = ground_truth.coordinates(network)
    matched, total = match_waypoints_to_polyline(waypoints, polyline, band_m=band_m)
    return matched / total if total > 0 else 0.0
