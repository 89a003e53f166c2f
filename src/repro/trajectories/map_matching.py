"""HMM map matching (Newson & Krumm style).

Aligns a raw GPS trajectory with the road-network path it traversed.  Each
GPS record gets candidate edges from the spatial index; emission probabilities
decrease with the perpendicular distance from the record to the candidate
edge; transition probabilities decrease with the difference between the
great-circle distance of consecutive records and the network distance between
the candidate positions.  Viterbi decoding picks the most likely candidate
sequence, which is then expanded into a connected vertex path.  The
matcher's tuning is the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import MapMatchingError, NoPathError
from ..network.road_network import Edge, RoadNetwork, VertexId
from ..network.spatial import equirectangular_m
from ..network.spatial_index import SpatialIndex
from ..routing.costs import CostFeature, cost_function
from ..routing.dijkstra import dijkstra
from ..routing.path import Path
from .models import MatchedTrajectory, Trajectory


CANDIDATE_RADIUS_M = 120.0
"""Edges farther than this from a GPS record are not its candidates."""
MAX_CANDIDATES = 6
"""Closest candidate edges kept per record."""
EMISSION_SIGMA_M = 15.0
"""Standard deviation of the Gaussian GPS-noise emission model."""
TRANSITION_BETA = 40.0
"""Scale of the exponential transition model over the great-circle vs
network distance difference."""
MAX_ROUTE_DETOUR_FACTOR = 4.0
"""Candidate transitions whose network distance exceeds this factor times
the great-circle distance are pruned (they imply an implausible detour)."""


@dataclass(frozen=True)
class _Candidate:
    edge: Edge
    distance_m: float

    @property
    def anchor(self) -> VertexId:
        """The vertex used to stitch the matched path (edge target)."""
        return self.edge.target


class HMMMapMatcher:
    """Hidden-Markov-model map matcher over a fixed road network."""

    def __init__(self, network: RoadNetwork) -> None:
        self._network = network
        self._index = SpatialIndex(network)
        self._distance_cost = cost_function(CostFeature.DISTANCE)

    # ------------------------------------------------------------------ #
    def match(self, trajectory: Trajectory) -> MatchedTrajectory:
        """Match one trajectory; raises :class:`MapMatchingError` on failure."""
        candidates = self._candidates_per_record(trajectory)
        states = self._viterbi(trajectory, candidates)
        path = self._stitch(states)
        return MatchedTrajectory(
            trajectory_id=trajectory.trajectory_id,
            driver_id=trajectory.driver_id,
            path=path,
            departure_time=trajectory.departure_time,
            duration_s=trajectory.duration_s,
            raw=trajectory,
        )

    def match_many(
        self, trajectories: list[Trajectory], skip_failures: bool = True
    ) -> list[MatchedTrajectory]:
        """Match a batch, optionally skipping trajectories that fail."""
        matched: list[MatchedTrajectory] = []
        for trajectory in trajectories:
            try:
                matched.append(self.match(trajectory))
            except MapMatchingError:
                if not skip_failures:
                    raise
        return matched

    # ------------------------------------------------------------------ #
    def _candidates_per_record(self, trajectory: Trajectory) -> list[list[_Candidate]]:
        result: list[list[_Candidate]] = []
        for record in trajectory.records:
            found = self._index.candidate_edges(record.lonlat, CANDIDATE_RADIUS_M)
            if not found:
                # Leave the record out rather than failing the whole match; a
                # single noisy outlier should not discard the trajectory.
                continue
            result.append(
                [_Candidate(edge=e, distance_m=d) for e, d in found[:MAX_CANDIDATES]]
            )
        if len(result) < 2:
            raise MapMatchingError(
                f"trajectory {trajectory.trajectory_id}: fewer than two records have "
                "candidate edges within the matching radius"
            )
        return result

    def _emission_log_prob(self, candidate: _Candidate) -> float:
        return -0.5 * (candidate.distance_m / EMISSION_SIGMA_M) ** 2

    def _transition_log_prob(
        self,
        prev: _Candidate,
        curr: _Candidate,
        great_circle_m: float,
    ) -> float:
        # Same candidate edge: the vehicle stayed on the edge, the network
        # movement is (approximately) the straight-line movement itself.
        if prev.edge.key == curr.edge.key:
            return 0.0
        network_m = self._network_distance(prev.anchor, curr.anchor)
        if network_m is None:
            return -math.inf
        # Prune only blatant detours; the margin absorbs the whole-edge
        # granularity of candidate anchors at dense sampling rates.
        detour_limit = max(
            MAX_ROUTE_DETOUR_FACTOR * great_circle_m, 3.0 * curr.edge.distance_m + 200.0
        )
        if network_m > detour_limit:
            return -math.inf
        delta = abs(great_circle_m - network_m)
        return -delta / TRANSITION_BETA

    def _network_distance(self, source: VertexId, target: VertexId) -> float | None:
        if source == target:
            return 0.0
        try:
            path = dijkstra(self._network, source, target, self._distance_cost)
        except NoPathError:
            return None
        return path.distance_m(self._network)

    def _viterbi(
        self, trajectory: Trajectory, candidates: list[list[_Candidate]]
    ) -> list[_Candidate]:
        records = [r for r in trajectory.records]
        # candidates was built by skipping records with no candidates; rebuild
        # the record list consistently by re-filtering.
        usable_records = []
        usable_candidates = []
        idx = 0
        for record in records:
            found = self._index.candidate_edges(record.lonlat, CANDIDATE_RADIUS_M)
            if not found:
                continue
            usable_records.append(record)
            usable_candidates.append(candidates[idx])
            idx += 1

        n = len(usable_candidates)
        scores: list[list[float]] = [[self._emission_log_prob(c) for c in usable_candidates[0]]]
        back: list[list[int]] = [[-1] * len(usable_candidates[0])]

        for t in range(1, n):
            great_circle_m = equirectangular_m(
                usable_records[t - 1].lonlat, usable_records[t].lonlat
            )
            row_scores: list[float] = []
            row_back: list[int] = []
            for j, curr in enumerate(usable_candidates[t]):
                best_score = -math.inf
                best_prev = -1
                emission = self._emission_log_prob(curr)
                for i, prev in enumerate(usable_candidates[t - 1]):
                    if scores[t - 1][i] == -math.inf:
                        continue
                    transition = self._transition_log_prob(prev, curr, great_circle_m)
                    candidate_score = scores[t - 1][i] + transition + emission
                    if candidate_score > best_score:
                        best_score = candidate_score
                        best_prev = i
                row_scores.append(best_score)
                row_back.append(best_prev)
            scores.append(row_scores)
            back.append(row_back)

        # Find the best terminal state; if the chain broke (all -inf), fall
        # back to the best prefix that is still connected.
        end_t = n - 1
        while end_t > 0 and all(s == -math.inf for s in scores[end_t]):
            end_t -= 1
        if end_t == 0 and all(s == -math.inf for s in scores[0]):
            raise MapMatchingError("Viterbi decoding failed: no feasible candidate sequence")

        best_j = max(range(len(scores[end_t])), key=lambda j: scores[end_t][j])
        sequence: list[_Candidate] = []
        t, j = end_t, best_j
        while t >= 0 and j >= 0:
            sequence.append(usable_candidates[t][j])
            j = back[t][j]
            t -= 1
        sequence.reverse()
        if len(sequence) < 2:
            raise MapMatchingError("Viterbi decoding produced fewer than two states")
        return sequence

    def _stitch(self, states: list[_Candidate]) -> Path:
        """Connect consecutive candidate anchors with network shortest paths."""
        vertices: list[VertexId] = [states[0].edge.source, states[0].edge.target]
        for prev, curr in zip(states, states[1:]):
            start = prev.anchor
            if curr.edge.source == start:
                segment = [start, curr.edge.target]
            elif curr.anchor == start:
                segment = [start]
            else:
                try:
                    connector = dijkstra(
                        self._network, start, curr.edge.source, self._distance_cost
                    )
                except NoPathError as exc:
                    raise MapMatchingError(
                        f"cannot connect matched states {start} -> {curr.edge.source}"
                    ) from exc
                segment = list(connector.vertices) + [curr.edge.target]
            for vertex in segment:
                if vertex != vertices[-1]:
                    vertices.append(vertex)
        # Remove immediate backtracks (u, v, u) introduced by noisy candidates.
        cleaned: list[VertexId] = []
        for vertex in vertices:
            if len(cleaned) >= 2 and cleaned[-2] == vertex:
                cleaned.pop()
            else:
                cleaned.append(vertex)
        if len(cleaned) < 2:
            raise MapMatchingError("matched path collapsed to a single vertex")
        return Path.of(cleaned)
