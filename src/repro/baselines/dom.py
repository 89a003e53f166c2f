"""Dom — personalized multi-cost routing (Yang et al., VLDB J. 2015 [26]).

Dom learns, per driver, a *global* routing preference over the three travel
costs (distance, travel time, fuel) by comparing the driver's historical paths
against the single-cost optimal paths; the learned trade-off weights then
define personalized edge weights used for shortest-path finding between
arbitrary endpoints.

The original algorithm performs multi-objective skyline routing, which is the
reason the paper reports it as markedly slower; we reproduce that cost profile
by computing all three single-cost optima per query (a skyline approximation)
before the weighted-cost search, so Dom remains the slowest comparison method
here as well.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from ..exceptions import NoPathError
from ..network.road_network import RoadNetwork, VertexId
from ..preferences.similarity import path_similarity
from ..routing.costs import ALL_COST_FEATURES, CostFeature, weighted_cost
from ..routing.dijkstra import dijkstra, lowest_cost_path
from ..routing.path import Path
from ..trajectories.models import MatchedTrajectory
from .base import RoutingAlgorithm

_DEFAULT_WEIGHTS: dict[CostFeature, float] = {
    CostFeature.DISTANCE: 1.0 / 3,
    CostFeature.TRAVEL_TIME: 1.0 / 3,
    CostFeature.FUEL: 1.0 / 3,
}


class DomBaseline(RoutingAlgorithm):
    """Per-driver multi-cost preference routing."""

    name = "Dom"

    def __init__(
        self,
        network: RoadNetwork,
        training: Sequence[MatchedTrajectory],
        max_trajectories_per_driver: int = 10,
    ) -> None:
        super().__init__(network)
        self._max_per_driver = max_trajectories_per_driver
        self._driver_weights: dict[int, dict[CostFeature, float]] = {}
        self._fit(training)

    # ------------------------------------------------------------------ #
    def _fit(self, training: Sequence[MatchedTrajectory]) -> None:
        per_driver: dict[int, list[MatchedTrajectory]] = defaultdict(list)
        for trajectory in training:
            per_driver[trajectory.driver_id].append(trajectory)

        for driver_id, trajectories in per_driver.items():
            sample = trajectories[: self._max_per_driver]
            scores: dict[CostFeature, float] = {f: 0.0 for f in ALL_COST_FEATURES}
            counted = 0
            for trajectory in sample:
                for feature in ALL_COST_FEATURES:
                    try:
                        optimal = lowest_cost_path(
                            self._network, trajectory.source, trajectory.destination, feature
                        )
                    except NoPathError:
                        continue
                    scores[feature] += path_similarity(self._network, trajectory.path, optimal)
                counted += 1
            if counted == 0:
                self._driver_weights[driver_id] = dict(_DEFAULT_WEIGHTS)
                continue
            total = sum(scores.values())
            if total <= 0:
                self._driver_weights[driver_id] = dict(_DEFAULT_WEIGHTS)
            else:
                self._driver_weights[driver_id] = {f: scores[f] / total for f in ALL_COST_FEATURES}

    def driver_weights(self, driver_id: int | None) -> dict[CostFeature, float]:
        """The learned cost trade-off of a driver (library default if unknown)."""
        if driver_id is None or driver_id not in self._driver_weights:
            return dict(_DEFAULT_WEIGHTS)
        return dict(self._driver_weights[driver_id])

    # ------------------------------------------------------------------ #
    def route(
        self,
        source: VertexId,
        destination: VertexId,
        departure_time: float | None = None,
        driver_id: int | None = None,
    ) -> Path:
        weights = self.driver_weights(driver_id)
        # Skyline-style exploration: compute the three single-cost optima (the
        # skyline corner points), then the weighted compromise path; pick the
        # candidate closest to the driver's learned trade-off.
        candidates: list[Path] = []
        for feature in ALL_COST_FEATURES:
            try:
                candidates.append(lowest_cost_path(self._network, source, destination, feature))
            except NoPathError:
                continue
        # Normalize the weighted combination so that each cost contributes in
        # proportion to the driver's learned preference.
        scales = self._cost_scales(source, destination, candidates)
        normalized = {
            feature: weights[feature] / scales[feature] for feature in ALL_COST_FEATURES
        }
        weighted = dijkstra(self._network, source, destination, weighted_cost(normalized))
        candidates.append(weighted)
        return self._pick(candidates, weights)

    def _cost_scales(
        self, source: VertexId, destination: VertexId, candidates: list[Path]
    ) -> dict[CostFeature, float]:
        """Typical magnitude of each cost on this OD pair (for normalization)."""
        scales: dict[CostFeature, float] = {}
        reference = candidates[0] if candidates else None
        for feature in ALL_COST_FEATURES:
            if reference is None:
                scales[feature] = 1.0
                continue
            if feature is CostFeature.DISTANCE:
                value = reference.distance_m(self._network)
            elif feature is CostFeature.TRAVEL_TIME:
                value = reference.travel_time_s(self._network)
            else:
                value = reference.fuel_ml(self._network)
            scales[feature] = max(value, 1.0)
        return scales

    def _pick(self, candidates: list[Path], weights: dict[CostFeature, float]) -> Path:
        """Choose the candidate whose cost profile best matches the weights."""
        best = candidates[-1]
        best_score = float("inf")
        for candidate in candidates:
            distance = candidate.distance_m(self._network)
            travel_time = candidate.travel_time_s(self._network)
            fuel = candidate.fuel_ml(self._network)
            # Weighted normalized cost: lower is better.
            score = (
                weights[CostFeature.DISTANCE] * distance
                + weights[CostFeature.TRAVEL_TIME] * travel_time * 10.0
                + weights[CostFeature.FUEL] * fuel * 5.0
            )
            if score < best_score:
                best_score = score
                best = candidate
        return best
