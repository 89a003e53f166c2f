"""A uniform-grid spatial index over road-network edges.

Used by map matching: the candidate edges near a GPS record.  The grid is intentionally simple — a dict of cell -> members —
which is fast enough at the network scales this reproduction targets and has
no third-party dependencies.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable

from .road_network import Edge, RoadNetwork, VertexId
from .spatial import LonLat, equirectangular_m, point_segment_distance_m

_DEG_LAT_M = 111_320.0
"""Approximate meters per degree of latitude."""

CELL_SIZE_M = 250.0
"""Side of one grid cell."""


class SpatialIndex:
    """Grid index over the edges of a :class:`RoadNetwork`."""

    def __init__(self, network: RoadNetwork) -> None:
        self._network = network
        if network.vertex_count:
            box = network.bounding_box()
            mid_lat = (box.min_lat + box.max_lat) / 2.0
        else:
            mid_lat = 0.0
        self._deg_lon_m = _DEG_LAT_M * max(0.2, math.cos(math.radians(mid_lat)))
        self._edge_cells: dict[tuple[int, int], list[Edge]] = defaultdict(list)
        self._build()

    # ------------------------------------------------------------------ #
    def _cell_of(self, point: LonLat) -> tuple[int, int]:
        cx = int(point[0] * self._deg_lon_m // CELL_SIZE_M)
        cy = int(point[1] * _DEG_LAT_M // CELL_SIZE_M)
        return (cx, cy)

    def _build(self) -> None:
        for edge in self._network.edges():
            a = self._network.coordinates(edge.source)
            b = self._network.coordinates(edge.target)
            for cell in self._cells_covering(a, b):
                self._edge_cells[cell].append(edge)

    def _cells_covering(self, a: LonLat, b: LonLat) -> set[tuple[int, int]]:
        """Cells intersected by the segment a-b (sampled densely enough)."""
        length = equirectangular_m(a, b)
        steps = max(1, int(length // CELL_SIZE_M) + 1)
        cells: set[tuple[int, int]] = set()
        for i in range(steps + 1):
            t = i / steps
            point = (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)
            cells.add(self._cell_of(point))
        return cells

    def _rings(self, center: tuple[int, int], radius: int) -> Iterable[tuple[int, int]]:
        cx, cy = center
        for dx in range(-radius, radius + 1):
            for dy in range(-radius, radius + 1):
                yield (cx + dx, cy + dy)

    def candidate_edges(self, point: LonLat, radius_m: float = 100.0) -> list[tuple[Edge, float]]:
        """Edges within ``radius_m`` of ``point`` with their distances.

        This is the candidate-generation primitive for HMM map matching; the
        result is sorted by distance (closest first).
        """
        center = self._cell_of(point)
        rings = max(1, int(radius_m // CELL_SIZE_M) + 1)
        seen: set[tuple[VertexId, VertexId]] = set()
        result: list[tuple[Edge, float]] = []
        for cell in self._rings(center, rings):
            for edge in self._edge_cells.get(cell, ()):
                if edge.key in seen:
                    continue
                seen.add(edge.key)
                dist = point_segment_distance_m(
                    point,
                    self._network.coordinates(edge.source),
                    self._network.coordinates(edge.target),
                )
                if dist <= radius_m:
                    result.append((edge, dist))
        result.sort(key=lambda item: item[1])
        return result
