"""Regions: clusters of road-network vertices with spatial descriptors.

A region is the unit of the region graph.  Besides its member vertices it
exposes the spatial descriptors the paper uses: the centroid (for the
``re.dis`` element of region-edge similarity and for greedy routing), the
convex-hull area and maximum diameter (Table IV), and the *functionality* —
the top-k road types of edges incident to the region's vertices (the ``re.F``
element of region-edge similarity).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from ..network.road_network import RoadNetwork, VertexId
from ..network.road_types import ROAD_TYPE_BY_VALUE, RoadType
from ..network.spatial import LonLat, centroid, max_diameter_km, polygon_area_km2, convex_hull

RegionId = int

FUNCTIONALITY_TOP_K = 2
"""Top road types describing a region's functionality (``re.F``)."""


@dataclass
class Region:
    """A cluster of road-network vertices."""

    region_id: RegionId
    vertices: frozenset[VertexId]
    road_type: RoadType | None = None
    """The dominant road type assigned by the clustering (None for singleton
    regions that were never merged)."""

    _centroid: LonLat | None = field(default=None, repr=False, compare=False)
    _functionality: tuple[RoadType, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError(f"region {self.region_id} has no member vertices")

    # ------------------------------------------------------------------ #
    def coordinates(self, network: RoadNetwork) -> list[LonLat]:
        return [network.coordinates(v) for v in self.vertices]

    def centroid(self, network: RoadNetwork) -> LonLat:
        """Centroid of the member vertices (cached after the first call)."""
        if self._centroid is None:
            object.__setattr__(self, "_centroid", centroid(self.coordinates(network)))
        return self._centroid  # type: ignore[return-value]

    def convex_hull(self, network: RoadNetwork) -> list[LonLat]:
        return convex_hull(self.coordinates(network))

    def area_km2(self, network: RoadNetwork) -> float:
        """Convex-hull area in km^2 (Table IV)."""
        return polygon_area_km2(self.convex_hull(network))

    def diameter_km(self, network: RoadNetwork) -> float:
        """Maximum pairwise distance between member vertices in km (Table IV)."""
        return max_diameter_km(self.coordinates(network))

    def functionality(self, network: RoadNetwork) -> tuple[RoadType, ...]:
        """The :data:`FUNCTIONALITY_TOP_K` most common road types of the
        edges incident to the region's vertices (memoized)."""
        if self._functionality is None:
            # Read off the road-type column, incident edges in
            # iter_incident_edges order (outgoing, then incoming).
            graph = network.compiled()
            road_types = graph.road_type_values
            counter: Counter[RoadType] = Counter()
            for vertex in self.vertices:
                i = graph.index_of[vertex]
                out = road_types[graph.offsets[i] : graph.offsets[i + 1]].tolist()
                into = road_types[graph.topology.r_slots[graph.r_offsets[i] : graph.r_offsets[i + 1]]]
                counter.update(map(ROAD_TYPE_BY_VALUE.__getitem__, out + into.tolist()))
            ranked = [rt for rt, _ in counter.most_common(FUNCTIONALITY_TOP_K)]
            object.__setattr__(self, "_functionality", tuple(ranked))
        return self._functionality  # type: ignore[return-value]


@dataclass(frozen=True)
class RegionSizeBand:
    """One row of the Table IV region-size breakdown."""

    lower_km2: float
    upper_km2: float | None
    count: int
    percentage: float
    max_diameter_km: float

    @property
    def label(self) -> str:
        if self.upper_km2 is None:
            return f">{self.lower_km2:g}"
        return f"({self.lower_km2:g},{self.upper_km2:g}]"


def region_size_table(
    regions: Sequence[Region],
    network: RoadNetwork,
    bands_km2: Sequence[tuple[float, float | None]] = ((0.0, 2.0), (2.0, 10.0), (10.0, 100.0), (100.0, None)),
) -> list[RegionSizeBand]:
    """Compute the Table IV breakdown: region counts and max diameters per area band."""
    areas = [(region, region.area_km2(network)) for region in regions]
    total = len(areas)
    rows: list[RegionSizeBand] = []
    for lower, upper in bands_km2:
        members = [
            region
            for region, area in areas
            if area > lower and (upper is None or area <= upper)
        ] if lower > 0.0 else [
            region
            for region, area in areas
            if area >= lower and (upper is None or area <= upper)
        ]
        max_diameter = max((r.diameter_km(network) for r in members), default=0.0)
        rows.append(
            RegionSizeBand(
                lower_km2=lower,
                upper_km2=upper,
                count=len(members),
                percentage=100.0 * len(members) / total if total else 0.0,
                max_diameter_km=max_diameter,
            )
        )
    return rows


def format_region_size_table(rows: Sequence[RegionSizeBand], title: str = "Region sizes") -> str:
    """Render the Table IV breakdown as text."""
    lines = [title]
    lines.append("Size (km^2)      " + "  ".join(f"{row.label:>12}" for row in rows))
    lines.append(
        "Count (pct)      "
        + "  ".join(f"{row.count:>6d} ({row.percentage:4.1f}%)" for row in rows)
    )
    lines.append("Max diameter km  " + "  ".join(f"{row.max_diameter_km:>12.2f}" for row in rows))
    return "\n".join(lines)
