"""Routing-preference vectors.

A :class:`PreferenceVector` is the 2-dimensional preference of the paper:
``<master, slave>`` where the master is a travel-cost feature (DI / TT / FC)
and the slave is a road-condition feature or ``None`` (no road-type
preference).  Vectors are hashable so that they can be counted and compared
when analysing the learned preference distribution (Fig. 6a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..routing.costs import CostFeature
from .features import FeatureCatalog, RoadConditionFeature


@dataclass(frozen=True)
class PreferenceVector:
    """A ``<master, slave>`` routing preference."""

    master: CostFeature
    slave: RoadConditionFeature | None = None

    def to_row(self, catalog: FeatureCatalog) -> np.ndarray:
        """Encode this vector as a 0/1 row of the label matrix ``Y``.

        The master column and (if present) the slave column are set to 1, all
        other columns to 0 — this is exactly how the paper seeds T-edge rows
        before transduction.
        """
        row = np.zeros(catalog.n_features, dtype=float)
        row[catalog.cost_column(self.master)] = 1.0
        if self.slave is not None:
            row[catalog.road_column(self.slave)] = 1.0
        return row

    @classmethod
    def from_row(
        cls,
        row: np.ndarray,
        catalog: FeatureCatalog,
        slave_threshold: float = 1e-9,
    ) -> "PreferenceVector | None":
        """Decode a (possibly fractional) label row back into a vector.

        The master feature is the argmax over the cost columns, the slave
        feature the argmax over the road-condition columns; if all cost-column
        probabilities are (numerically) zero the row carries no information
        and ``None`` is returned — this is the *null preference* case of the
        paper, which falls back to fastest paths.
        """
        cost_slice = np.asarray(row[: catalog.n_cost], dtype=float)
        if cost_slice.size == 0 or float(np.max(cost_slice)) <= slave_threshold:
            return None
        master = catalog.cost_feature_at(int(np.argmax(cost_slice)))

        slave: RoadConditionFeature | None = None
        if catalog.n_road:
            road_slice = np.asarray(row[catalog.n_cost :], dtype=float)
            if float(np.max(road_slice)) > slave_threshold:
                slave = catalog.road_feature_at(catalog.n_cost + int(np.argmax(road_slice)))
        return cls(master=master, slave=slave)

    def similarity(self, other: "PreferenceVector | None") -> float:
        """Jaccard similarity of the two vectors' feature sets.

        Used when evaluating transfer accuracy (Fig. 9) and the similarity /
        preference-similarity relationship (Fig. 6b).
        """
        if other is None:
            return 0.0
        mine = {("cost", self.master)}
        theirs = {("cost", other.master)}
        if self.slave is not None:
            mine.add(("road", self.slave.name))
        if other.slave is not None:
            theirs.add(("road", other.slave.name))
        union = mine | theirs
        if not union:
            return 0.0
        return len(mine & theirs) / len(union)
