"""Speed-based fuel-consumption model.

The paper computes fuel consumption from speed limits using vehicular
environmental impact models (EcoMark / SIDRA-style).  We implement a compact
instantaneous model of the same family: fuel rate is a convex function of
cruising speed with an idling floor, so fuel per meter is high at very low
speeds (idling dominates), minimal around 60–80 km/h, and rises again at
motorway speeds (aerodynamic drag).  The absolute calibration constants are
representative of a mid-size passenger car.
"""

from __future__ import annotations

IDLE_RATE_ML_PER_S = 0.30
"""Fuel burned while idling, in ml per second."""

DRAG_COEFFICIENT = 5.5e-7
"""Aerodynamic term of the fuel-rate polynomial (ml per second per (km/h)^3)."""

ROLLING_COEFFICIENT = 0.009
"""Rolling-resistance term (ml per second per km/h)."""


def fuel_rate_ml_per_s(speed_kmh: float) -> float:
    """Instantaneous fuel rate in ml/s when cruising at ``speed_kmh``."""
    speed = max(0.0, float(speed_kmh))
    return IDLE_RATE_ML_PER_S + ROLLING_COEFFICIENT * speed + DRAG_COEFFICIENT * speed**3


def fuel_consumption_ml(distance_m: float, speed_kmh: float) -> float:
    """Fuel in milliliters to cover ``distance_m`` meters at ``speed_kmh``.

    A floor of 5 km/h prevents division blow-ups on degenerate inputs.
    """
    speed = max(5.0, float(speed_kmh))
    duration_s = float(distance_m) / (speed / 3.6)
    return fuel_rate_ml_per_s(speed) * duration_s
