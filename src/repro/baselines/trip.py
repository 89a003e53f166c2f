"""TRIP — personalized travel-time routing (Letchner et al., AAAI 2006 [27]).

TRIP models personalized travel times: for each driver it learns the ratio
between the driver's observed travel times and the average (free-flow) travel
times, and uses the resulting personalized edge weights for shortest-path
finding.  We learn the ratio per driver *and per road type*, which is what
makes a TRIP route differ from the plain fastest path: a driver who is
observed to be slow on residential roads but fast on motorways gets routes
biased toward motorways.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from ..network.road_network import Edge, RoadNetwork, VertexId
from ..network.road_types import RoadType
from ..routing.dijkstra import dijkstra
from ..routing.path import Path
from ..trajectories.models import MatchedTrajectory
from .base import RoutingAlgorithm

#: Training trajectories per driver the ratios are learned from (the first
#: ones in training order).
MAX_TRAJECTORIES_PER_DRIVER = 20


class TripBaseline(RoutingAlgorithm):
    """Per-driver travel-time-ratio routing."""

    name = "TRIP"

    def __init__(self, network: RoadNetwork, training: Sequence[MatchedTrajectory]) -> None:
        super().__init__(network)
        self._ratios: dict[int, dict[RoadType, float]] = {}
        self._fit(training)

    # ------------------------------------------------------------------ #
    def _fit(self, training: Sequence[MatchedTrajectory]) -> None:
        per_driver: dict[int, list[MatchedTrajectory]] = defaultdict(list)
        for trajectory in training:
            per_driver[trajectory.driver_id].append(trajectory)

        for driver_id, trajectories in per_driver.items():
            observed: dict[RoadType, float] = defaultdict(float)
            freeflow: dict[RoadType, float] = defaultdict(float)
            for trajectory in trajectories[:MAX_TRAJECTORIES_PER_DRIVER]:
                path_freeflow = trajectory.path.travel_time_s(self._network)
                if path_freeflow <= 0:
                    continue
                # Distribute the observed duration over edges proportionally
                # to their free-flow travel times.
                scale = trajectory.duration_s / path_freeflow if trajectory.duration_s > 0 else 1.0
                for source, target in trajectory.path.edge_keys:
                    edge = self._network.edge(source, target)
                    freeflow[edge.road_type] += edge.travel_time_s
                    observed[edge.road_type] += edge.travel_time_s * scale
            ratios: dict[RoadType, float] = {}
            for road_type in RoadType:
                if freeflow.get(road_type, 0.0) > 0:
                    ratios[road_type] = max(0.25, min(4.0, observed[road_type] / freeflow[road_type]))
                else:
                    ratios[road_type] = 1.0
            self._ratios[driver_id] = ratios

    def driver_ratios(self, driver_id: int | None) -> dict[RoadType, float]:
        """The learned per-road-type time ratios (all 1.0 for unknown drivers)."""
        if driver_id is None or driver_id not in self._ratios:
            return {road_type: 1.0 for road_type in RoadType}
        return dict(self._ratios[driver_id])

    # ------------------------------------------------------------------ #
    def route(
        self,
        source: VertexId,
        destination: VertexId,
        departure_time: float | None = None,
        driver_id: int | None = None,
    ) -> Path:
        ratios = self.driver_ratios(driver_id)

        def personalized_time(edge: Edge) -> float:
            return edge.travel_time_s * ratios.get(edge.road_type, 1.0)

        # Compiled form: a per-road-type ratio lookup table applied to the
        # flat travel-time array (memoized per distinct ratio profile, so all
        # queries of one driver share the same precomputed cost array).
        profile = tuple(sorted((int(rt), ratio) for rt, ratio in ratios.items()))

        def build_cost_array(graph):
            def build():
                table = np.ones(max(int(rt) for rt in RoadType) + 1, dtype=np.float64)
                for value, ratio in profile:
                    table[value] = ratio
                return graph.array("travel_time_s") * table[graph.road_type_values]

            return graph.memo(("trip-personalized", profile), build)

        personalized_time.build_cost_array = build_cost_array  # type: ignore[attr-defined]
        personalized_time.cost_cache_key = ("trip-personalized", profile)  # type: ignore[attr-defined]
        return dijkstra(self._network, source, destination, personalized_time)
