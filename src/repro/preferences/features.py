"""Feature catalog for routing preferences.

A routing preference is a 2-dimensional vector: the *master* dimension is one
of the travel-cost features (DI, TT, FC) and the *slave* dimension is one of
the road-condition features (a preferred set of road types) or absent.  The
transduction step of the paper flattens both dimensions into the ``p`` columns
of the label matrix ``Y``; :class:`FeatureCatalog` owns that flattening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..network.road_types import RoadType
from ..routing.costs import ALL_COST_FEATURES, CostFeature


@dataclass(frozen=True)
class RoadConditionFeature:
    """A road-condition feature: a named set of preferred road types."""

    name: str
    road_types: frozenset[RoadType]

    def satisfied_by(self, road_type: RoadType) -> bool:
        """True if an edge of ``road_type`` satisfies this preference."""
        return road_type in self.road_types


def single_type_feature(road_type: RoadType) -> RoadConditionFeature:
    """A road-condition feature preferring exactly one road type."""
    return RoadConditionFeature(name=road_type.osm_tag, road_types=frozenset({road_type}))


def combined_feature(*road_types: RoadType) -> RoadConditionFeature:
    """A road-condition feature preferring any of several road types."""
    name = "+".join(rt.osm_tag for rt in road_types)
    return RoadConditionFeature(name=name, road_types=frozenset(road_types))


MAJOR_ROADS = combined_feature(RoadType.MOTORWAY, RoadType.TRUNK, RoadType.PRIMARY)
"""Highways-and-arterials condition (the paper's "highways" style feature)."""

LOCAL_ROADS = combined_feature(RoadType.TERTIARY, RoadType.RESIDENTIAL)
"""Local / residential roads condition."""


def default_road_condition_features() -> list[RoadConditionFeature]:
    """The paper's default slave-dimension catalog.

    One feature per OSM road class (motorway, trunk, primary, secondary,
    tertiary, residential) plus the two combined features (major, local).
    """
    singles = [single_type_feature(rt) for rt in RoadType]
    return singles + [MAJOR_ROADS, LOCAL_ROADS]


class FeatureCatalog:
    """The flattened feature space used by preference transfer.

    Columns ``0 .. n_cost-1`` are the travel-cost features; the remaining
    columns are road-condition features.  The catalog provides the mapping in
    both directions and is shared between Step 1 (learning), Step 2
    (transfer), and Step 3 (application).
    """

    def __init__(
        self,
        cost_features: Sequence[CostFeature] | None = None,
        road_condition_features: Sequence[RoadConditionFeature] | None = None,
    ) -> None:
        self._cost_features: tuple[CostFeature, ...] = tuple(
            cost_features if cost_features is not None else ALL_COST_FEATURES
        )
        self._road_features: tuple[RoadConditionFeature, ...] = tuple(
            road_condition_features
            if road_condition_features is not None
            else default_road_condition_features()
        )
        if not self._cost_features:
            raise ValueError("a FeatureCatalog needs at least one travel-cost feature")

    # ------------------------------------------------------------------ #
    @property
    def cost_features(self) -> tuple[CostFeature, ...]:
        return self._cost_features

    @property
    def road_condition_features(self) -> tuple[RoadConditionFeature, ...]:
        return self._road_features

    @property
    def n_cost(self) -> int:
        return len(self._cost_features)

    @property
    def n_road(self) -> int:
        return len(self._road_features)

    @property
    def n_features(self) -> int:
        """Total number of columns ``p`` in the label matrix."""
        return self.n_cost + self.n_road

    # ------------------------------------------------------------------ #
    def cost_column(self, feature: CostFeature) -> int:
        """Column index of a travel-cost feature."""
        return self._cost_features.index(feature)

    def road_column(self, feature: RoadConditionFeature) -> int:
        """Column index of a road-condition feature."""
        return self.n_cost + self._road_features.index(feature)

    def cost_feature_at(self, column: int) -> CostFeature:
        """Travel-cost feature stored at a master-dimension column."""
        return self._cost_features[column]

    def road_feature_at(self, column: int) -> RoadConditionFeature:
        """Road-condition feature stored at a slave-dimension column."""
        return self._road_features[column - self.n_cost]

    def __len__(self) -> int:
        return self.n_features
