"""Step 1: learning routing preferences for T-edges.

For each T-edge's path set ``P_ij`` we search for the preference vector
``V* = <master, slave>`` whose preference-constructed paths best match the
ground-truth paths under Eq. 1.  Instead of enumerating the whole master x
slave product, the paper's coordinate-descent-style procedure is used:

1. for each ground-truth path, compute the lowest-cost path under each travel
   cost feature (DI, TT, FC) and pick the feature whose paths are most similar
   to the ground truth (the *master*);
2. with the master fixed, try each road-condition feature (via the
   preference-aware Dijkstra of Algorithm 2) and keep the one that improves
   similarity the most; if none improves, the slave stays empty.

The procedure runs table-first: trajectories are skewed and sparse, so the
paths of all T-edges leave from few distinct sources, and every constructed
path a decision compares is searched in one batch per preference (one
multi-source SSSP each) into a ``(path, preference) -> similarity`` table;
the decisions themselves are lookups.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..exceptions import NoPathError
from ..network.compiled.dispatch import try_route_many
from ..network.road_network import RoadNetwork
from ..routing.costs import CostFeature
from ..routing.path import Path
from ..routing.preference_dijkstra import preference_cost, preference_dijkstra
from .features import FeatureCatalog
from .model import PreferenceVector
from .similarity import edge_lengths, shared_length_share

_SCORE_SAMPLE = 4
"""Paths of a T-edge its representative preference is scored against.  The
score is diagnostic (it is reported, and breaks ties, but is not optimized
over), so a small sample keeps Step 1 fast on T-edges with many paths."""


@dataclass
class LearnedPreference:
    """The result of Step-1 learning for one T-edge."""

    preference: PreferenceVector
    similarity: float
    """Mean Eq. 1 similarity of the constructed paths against the path set."""
    per_path_preferences: list[PreferenceVector] = field(default_factory=list)
    """The per-path best preferences (used for the Fig. 6a uniqueness curve)."""

    @property
    def unique_preference_count(self) -> int:
        return len(set(self.per_path_preferences)) if self.per_path_preferences else 1


class _SimilarityTable(dict):
    """``(path index, preference) ->`` Eq. 1 similarity of the path the
    preference constructs between the ground-truth path's endpoints, ``None``
    where it constructs none (the pair is unreachable)."""

    def __init__(self, network: RoadNetwork, paths: Sequence[Path]) -> None:
        super().__init__()
        self._network = network
        self._pairs = [(path.source, path.destination) for path in paths]
        self._lengths = [edge_lengths(network, path) for path in paths]

    def fill(self, wanted: Iterable[tuple[int, PreferenceVector]]) -> None:
        """Add the wanted entries not yet present: one batch search per preference."""
        missing: dict[PreferenceVector, list[int]] = defaultdict(list)
        for index, preference in wanted:
            if (index, preference) not in self:
                missing[preference].append(index)
        for preference, indices in missing.items():
            pairs = [self._pairs[index] for index in indices]
            cost = preference_cost(self._network, preference)
            routes = try_route_many(self._network, pairs, cost)
            for index, route in zip(indices, routes or [None] * len(pairs)):
                self[index, preference] = self._similarity(index, preference, route)

    def _similarity(self, index: int, preference: PreferenceVector, route) -> float | None:
        if route is None:
            # The batch search did not answer this pair: search it alone.
            try:
                route = preference_dijkstra(self._network, *self._pairs[index], preference)
            except NoPathError:
                return None
        elif route == ():
            # No route.  Under a slave, the constrained search ran dry and
            # Algorithm 2 falls back to the master cost alone: that row.
            if preference.slave is None:
                return None
            return self[index, PreferenceVector(preference.master)]
        return shared_length_share(self._lengths[index], route)


class PreferenceLearner:
    """Learns a representative routing preference from a set of paths."""

    def __init__(
        self,
        network: RoadNetwork,
        catalog: FeatureCatalog | None = None,
        min_improvement: float = 1e-9,
        max_paths_per_edge: int = 12,
    ) -> None:
        self._network = network
        self._catalog = catalog or FeatureCatalog()
        self._masters = [PreferenceVector(feature) for feature in self._catalog.cost_features]
        self._min_improvement = min_improvement
        self._max_paths_per_edge = max_paths_per_edge

    # ------------------------------------------------------------------ #
    def learn(self, paths: Sequence[Path]) -> LearnedPreference:
        """Learn the representative preference for a T-edge path set."""
        return self.learn_many([paths])[0]

    def learn_many(self, path_sets: Sequence[Sequence[Path]]) -> list[LearnedPreference]:
        """Learn the representative preference of each path set (one per T-edge)."""
        groups = [
            [p for p in paths if len(p) >= 2][: self._max_paths_per_edge] for paths in path_sets
        ]
        paths = [path for group in groups for path in group]
        table = _SimilarityTable(self._network, paths)
        everything = range(len(paths))

        # Coordinate descent per ground-truth path: master, then slave.
        table.fill((i, master) for master in self._masters for i in everything)
        masters = [self._master(table, i) for i in everything]
        options = [self._slave_options(path, *master) for path, master in zip(paths, masters)]
        table.fill((i, option) for i in everything for option in options[i])
        per_path = [self._slave(table, i, *masters[i], options[i]) for i in everything]

        # The representative preference is the most common per-path preference
        # (ties broken by re-scoring against the path set).
        members: list[range] = []
        tied: list[list[PreferenceVector]] = []
        for group in groups:
            start = members[-1].stop if members else 0
            members.append(range(start, start + len(group)))
            counted = Counter(per_path[i] for i in members[-1])
            top_count = max(counted.values(), default=0)
            tied.append([pref for pref, count in counted.items() if count == top_count])
        table.fill(
            (i, pref)
            for span, prefs in zip(members, tied)
            for pref in prefs
            for i in span[:_SCORE_SAMPLE]
        )

        results: list[LearnedPreference] = []
        for span, prefs in zip(members, tied):
            if not span:
                # Degenerate path sets carry no information: default to fastest.
                default = PreferenceVector(master=CostFeature.TRAVEL_TIME, slave=None)
                results.append(LearnedPreference(preference=default, similarity=0.0))
                continue
            best_pref, best_score = prefs[0], -1.0
            for pref in prefs:
                score = self._score(table, pref, span[:_SCORE_SAMPLE])
                if score > best_score:
                    best_pref, best_score = pref, score
            results.append(
                LearnedPreference(
                    preference=best_pref,
                    similarity=best_score,
                    per_path_preferences=[per_path[i] for i in span],
                )
            )
        return results

    def _master(self, table: _SimilarityTable, index: int) -> tuple[PreferenceVector, float]:
        """The cost feature with the most similar lowest-cost path, and that similarity."""
        best_master, best_similarity = self._masters[0], -1.0
        for master in self._masters:
            similarity = table[index, master]
            if similarity is not None and similarity > best_similarity:
                best_master, best_similarity = master, similarity
        return best_master, best_similarity

    def _slave_options(
        self, path: Path, master: PreferenceVector, similarity: float
    ) -> list[PreferenceVector]:
        """The ``<master, slave>`` vectors worth trying on one ground-truth path.

        None at all when the master feature alone already reproduces the path: no
        road condition feature can improve on a perfect match.  Otherwise
        only features whose road types actually occur on the ground-truth
        path can increase the shared length, so the others are skipped (a
        substantial saving on large catalogs).
        """
        if similarity >= 1.0 - 1e-9:
            return []
        ground_truth_types = {self._network.w_rt(u, v) for u, v in path.edge_keys}
        return [
            PreferenceVector(master.master, road_feature)
            for road_feature in self._catalog.road_condition_features
            if road_feature.road_types & ground_truth_types
        ]

    def _slave(
        self,
        table: _SimilarityTable,
        index: int,
        master: PreferenceVector,
        similarity: float,
        options: Sequence[PreferenceVector],
    ) -> PreferenceVector:
        """The option with the largest improvement over the master alone, if any."""
        best, best_gain = master, self._min_improvement
        for option in options:
            constrained = table[index, option]
            if constrained is not None and constrained - similarity > best_gain:
                best, best_gain = option, constrained - similarity
        return best

    @staticmethod
    def _score(table: _SimilarityTable, preference: PreferenceVector, sample: range) -> float:
        """Mean Eq. 1 similarity of preference-constructed paths to the sampled paths."""
        scores = [s for i in sample if (s := table[i, preference]) is not None]
        return sum(scores) / len(scores) if scores else 0.0


def learn_t_edge_preferences(
    network: RoadNetwork,
    region_graph,
    catalog: FeatureCatalog | None = None,
    max_paths_per_edge: int = 12,
) -> dict[tuple[int, int], LearnedPreference]:
    """Learn preferences for every T-edge of a region graph (Step 1).

    The learned preference is stored on each edge (``edge.preference``) and
    also returned keyed by the edge's ``(region_a, region_b)`` pair.
    """
    learner = PreferenceLearner(network, catalog=catalog, max_paths_per_edge=max_paths_per_edge)
    edges = region_graph.t_edges()
    results: dict[tuple[int, int], LearnedPreference] = {}
    for edge, learned in zip(edges, learner.learn_many([edge.paths() for edge in edges])):
        edge.preference = learned.preference
        edge.preference_transferred = False
        results[edge.key] = learned
    return results
