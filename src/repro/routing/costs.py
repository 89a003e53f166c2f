"""Travel-cost features and edge-cost functions.

The paper's routing preferences pick a *travel-cost feature* for the master
dimension.  This module defines the cost-feature enumeration (distance, travel
time, fuel consumption) and turns each feature into an edge-cost callable that
routing algorithms can consume.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

from ..exceptions import ConfigurationError
from ..network.road_network import Edge

EdgeCost = Callable[[Edge], float]
"""An edge-cost function mapping an edge to a non-negative scalar."""


class CostFeature(str, Enum):
    """The three travel-cost features used in the paper (DI, TT, FC)."""

    DISTANCE = "DI"
    TRAVEL_TIME = "TT"
    FUEL = "FC"

    @property
    def short_name(self) -> str:
        """The two-letter code used in the paper's figures."""
        return self.value


ALL_COST_FEATURES: tuple[CostFeature, ...] = (
    CostFeature.DISTANCE,
    CostFeature.TRAVEL_TIME,
    CostFeature.FUEL,
)


def edge_distance(edge: Edge) -> float:
    """Edge cost: length in meters (``wDI``)."""
    return edge.distance_m


def edge_travel_time(edge: Edge) -> float:
    """Edge cost: free-flow travel time in seconds (``wTT``)."""
    return edge.travel_time_s


def edge_fuel(edge: Edge) -> float:
    """Edge cost: fuel consumption in milliliters (``wFC``)."""
    return edge.fuel_ml


_COST_FUNCTIONS: dict[CostFeature, EdgeCost] = {
    CostFeature.DISTANCE: edge_distance,
    CostFeature.TRAVEL_TIME: edge_travel_time,
    CostFeature.FUEL: edge_fuel,
}

FEATURE_EDGE_ATTRIBUTES: dict[CostFeature, str] = {
    CostFeature.DISTANCE: "distance_m",
    CostFeature.TRAVEL_TIME: "travel_time_s",
    CostFeature.FUEL: "fuel_ml",
}
"""The :class:`Edge` attribute carrying each feature's weight.

Cost callables are tagged with these names (``cost_attr`` / ``cost_terms``)
so :class:`repro.network.compiled.CompiledGraph` can swap the per-edge Python
call for a precompiled flat cost array.
"""

for _feature, _fn in _COST_FUNCTIONS.items():
    _fn.cost_attr = FEATURE_EDGE_ATTRIBUTES[_feature]  # type: ignore[attr-defined]


def cost_function(feature: CostFeature) -> EdgeCost:
    """Return the edge-cost callable for a travel-cost feature."""
    return _COST_FUNCTIONS[feature]


def weighted_cost(weights: dict[CostFeature, float]) -> EdgeCost:
    """A linear combination of the three cost features.

    Used by the Dom baseline, which learns per-driver trade-off weights over
    distance, travel time, and fuel.  Weights may be any finite non-negative
    numbers; they are used as-is (callers normalize if they need to).  A
    negative or non-finite weight raises :class:`ConfigurationError`.
    """
    for feature, weight in weights.items():
        if not math.isfinite(weight) or weight < 0.0:
            raise ConfigurationError(
                f"weight of {feature.name} must be a finite non-negative number, got {weight!r}"
            )
    items = [(cost_function(feature), float(weight)) for feature, weight in weights.items()]

    def combined(edge: Edge) -> float:
        return sum(fn(edge) * weight for fn, weight in items)

    # Expose the combination to the compiled dispatch layer; term order is
    # preserved so the vectorized accumulation matches the closure bit-for-bit.
    combined.cost_terms = tuple(  # type: ignore[attr-defined]
        (FEATURE_EDGE_ATTRIBUTES[feature], float(weight)) for feature, weight in weights.items()
    )
    return combined
