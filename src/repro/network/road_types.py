"""Road-type taxonomy and per-type defaults.

The paper uses the six most common OpenStreetMap highway classes as the road
*condition* features: motorway, trunk, primary, secondary, tertiary, and
residential.  Each class carries a default speed limit that drives the
travel-time and fuel-consumption weight functions when no explicit limit is
present on an edge.
"""

from __future__ import annotations

from enum import IntEnum


class RoadType(IntEnum):
    """OSM-style road categories, ordered from most to least important."""

    MOTORWAY = 1
    TRUNK = 2
    PRIMARY = 3
    SECONDARY = 4
    TERTIARY = 5
    RESIDENTIAL = 6

    @property
    def osm_tag(self) -> str:
        """The OpenStreetMap ``highway=`` tag value for this category."""
        return _OSM_TAGS[self]

    @property
    def default_speed_kmh(self) -> float:
        """Default free-flow speed limit in km/h."""
        return DEFAULT_SPEED_KMH[self]

    @property
    def is_major(self) -> bool:
        """True for the high-capacity classes (motorway, trunk, primary)."""
        return self in (RoadType.MOTORWAY, RoadType.TRUNK, RoadType.PRIMARY)


_OSM_TAGS: dict[RoadType, str] = {
    RoadType.MOTORWAY: "motorway",
    RoadType.TRUNK: "trunk",
    RoadType.PRIMARY: "primary",
    RoadType.SECONDARY: "secondary",
    RoadType.TERTIARY: "tertiary",
    RoadType.RESIDENTIAL: "residential",
}

DEFAULT_SPEED_KMH: dict[RoadType, float] = {
    RoadType.MOTORWAY: 110.0,
    RoadType.TRUNK: 90.0,
    RoadType.PRIMARY: 70.0,
    RoadType.SECONDARY: 60.0,
    RoadType.TERTIARY: 50.0,
    RoadType.RESIDENTIAL: 30.0,
}
"""Free-flow speed limits used when an edge carries no explicit limit."""

ALL_ROAD_TYPES: tuple[RoadType, ...] = tuple(RoadType)
"""All road types in importance order (motorway first)."""

ROAD_TYPE_BY_VALUE: dict[int, RoadType] = {int(road_type): road_type for road_type in RoadType}
"""Road types by integer value (a dict lookup, cheaper than ``RoadType(value)``)."""
