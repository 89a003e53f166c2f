"""Synthetic road-network generators.

The paper evaluates on OpenStreetMap extracts of Denmark (N1) and Chengdu
(N2).  Those extracts (and the matching GPS fleets) are not available offline,
so this module builds structurally comparable synthetic networks:

* :func:`grid_city_network` — a dense urban grid with an arterial hierarchy
  (ring roads, radial primaries, residential blocks), mimicking N2 (Chengdu);
* :func:`country_network` — several cities connected by motorway / trunk
  corridors with suburban sprawl, mimicking N1 (Denmark) at reduced scale.

All generators are deterministic given a ``seed``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .road_network import RoadNetwork, VertexId
from .road_types import RoadType


@dataclass(frozen=True)
class CitySpec:
    """Placement and size of one synthetic city inside a country network."""

    name: str
    center_lon: float
    center_lat: float
    rows: int
    cols: int
    block_m: float = 250.0


def _offset_lonlat(lon: float, lat: float, dx_m: float, dy_m: float) -> tuple[float, float]:
    """Offset a coordinate by meters east (dx) and north (dy)."""
    dlat = dy_m / 111_320.0
    dlon = dx_m / (111_320.0 * max(0.2, math.cos(math.radians(lat))))
    return (lon + dlon, lat + dlat)


def grid_city_network(
    rows: int = 20,
    cols: int = 20,
    block_m: float = 250.0,
    center_lon: float = 104.06,
    center_lat: float = 30.66,
    seed: int = 7,
    name: str = "grid-city",
    jitter: float = 0.15,
) -> RoadNetwork:
    """A city grid with a road-type hierarchy.

    Every ~5th row/column is an arterial (primary/secondary); the outermost
    ring is a trunk ring road; a pair of crossing motorways passes near the
    center; everything else is residential or tertiary.  Vertex positions are
    jittered so that geometry (distances, hulls) is non-degenerate.
    """
    rng = random.Random(seed)
    network = RoadNetwork(name=name)

    def vid(r: int, c: int) -> VertexId:
        return r * cols + c

    half_w = (cols - 1) * block_m / 2.0
    half_h = (rows - 1) * block_m / 2.0
    for r in range(rows):
        for c in range(cols):
            dx = c * block_m - half_w + rng.uniform(-jitter, jitter) * block_m
            dy = r * block_m - half_h + rng.uniform(-jitter, jitter) * block_m
            lon, lat = _offset_lonlat(center_lon, center_lat, dx, dy)
            network.add_vertex(vid(r, c), lon, lat)

    def edge_type(r1: int, c1: int, r2: int, c2: int) -> RoadType:
        on_ring = (
            r1 in (0, rows - 1) and r2 in (0, rows - 1) and r1 == r2
        ) or (c1 in (0, cols - 1) and c2 in (0, cols - 1) and c1 == c2)
        if on_ring:
            return RoadType.TRUNK
        mid_r, mid_c = rows // 2, cols // 2
        if (r1 == r2 == mid_r) or (c1 == c2 == mid_c):
            return RoadType.MOTORWAY
        if r1 == r2 and r1 % 5 == 0:
            return RoadType.PRIMARY
        if c1 == c2 and c1 % 5 == 0:
            return RoadType.PRIMARY
        if r1 == r2 and r1 % 5 == 2:
            return RoadType.SECONDARY
        if c1 == c2 and c1 % 5 == 2:
            return RoadType.SECONDARY
        if (r1 + c1) % 3 == 0:
            return RoadType.TERTIARY
        return RoadType.RESIDENTIAL

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                network.add_edge(vid(r, c), vid(r, c + 1), edge_type(r, c, r, c + 1), bidirectional=True)
            if r + 1 < rows:
                network.add_edge(vid(r, c), vid(r + 1, c), edge_type(r, c, r + 1, c), bidirectional=True)
    return network


def country_network(
    cities: list[CitySpec] | None = None,
    seed: int = 11,
    name: str = "country",
    corridor_spacing_m: float = 2_000.0,
) -> RoadNetwork:
    """Several grid cities connected by motorway corridors (Denmark-like N1).

    Each corridor between consecutive city centers is a chain of motorway
    vertices; a parallel trunk road with occasional residential connectors
    runs alongside, so long-distance trips have both a fast (motorway) and a
    shorter but slower (trunk) alternative — the structural property that
    makes Fastest and Shortest diverge in the paper's D1 evaluation.
    """
    if cities is None:
        cities = [
            CitySpec("alpha", 9.50, 55.40, rows=12, cols=12, block_m=300.0),
            CitySpec("beta", 10.10, 56.00, rows=10, cols=10, block_m=300.0),
            CitySpec("gamma", 10.60, 55.55, rows=8, cols=8, block_m=300.0),
        ]
    rng = random.Random(seed)
    network = RoadNetwork(name=name)
    next_id = 0
    city_vertices: list[list[VertexId]] = []
    city_entry: list[VertexId] = []

    for spec in cities:
        city = grid_city_network(
            rows=spec.rows,
            cols=spec.cols,
            block_m=spec.block_m,
            center_lon=spec.center_lon,
            center_lat=spec.center_lat,
            seed=rng.randrange(1 << 30),
            name=spec.name,
        )
        mapping: dict[VertexId, VertexId] = {}
        for vertex in city.vertices():
            mapping[vertex.vertex_id] = next_id
            network.add_vertex(next_id, vertex.lon, vertex.lat)
            next_id += 1
        for edge in city.edges():
            network.add_edge(
                mapping[edge.source],
                mapping[edge.target],
                road_type=edge.road_type,
                distance_m=edge.distance_m,
                speed_kmh=edge.speed_kmh,
            )
        ids = sorted(mapping.values())
        city_vertices.append(ids)
        # Entry point: a corner vertex of the city grid.
        city_entry.append(mapping[0])

    # Connect consecutive cities with a motorway corridor plus a trunk detour.
    for i in range(len(cities) - 1):
        a_spec, b_spec = cities[i], cities[i + 1]
        a_entry, b_entry = city_entry[i], city_entry[i + 1]
        a_pos = network.coordinates(a_entry)
        b_pos = network.coordinates(b_entry)
        from .spatial import equirectangular_m

        corridor_len = equirectangular_m(a_pos, b_pos)
        hops = max(2, int(corridor_len // corridor_spacing_m))

        def chain(road_type: RoadType, lateral_m: float) -> list[VertexId]:
            nonlocal next_id
            ids = [a_entry]
            for h in range(1, hops):
                t = h / hops
                lon = a_pos[0] + (b_pos[0] - a_pos[0]) * t
                lat = a_pos[1] + (b_pos[1] - a_pos[1]) * t
                lon, lat = _offset_lonlat(lon, lat, lateral_m, lateral_m * 0.3)
                network.add_vertex(next_id, lon, lat)
                ids.append(next_id)
                next_id += 1
            ids.append(b_entry)
            for j in range(len(ids) - 1):
                network.add_edge(ids[j], ids[j + 1], road_type=road_type, bidirectional=True)
            return ids

        motorway_ids = chain(RoadType.MOTORWAY, lateral_m=0.0)
        trunk_ids = chain(RoadType.TRUNK, lateral_m=-1_500.0)
        # Occasional connectors between the two corridors.
        for j in range(2, min(len(motorway_ids), len(trunk_ids)) - 2, 3):
            network.add_edge(
                motorway_ids[j], trunk_ids[j], road_type=RoadType.SECONDARY, bidirectional=True
            )
    return network


def chengdu_like_network(seed: int = 7) -> RoadNetwork:
    """The default D2-like (Chengdu) evaluation network (dense city grid)."""
    return grid_city_network(rows=24, cols=24, block_m=250.0, seed=seed, name="chengdu-like")


def denmark_like_network(seed: int = 11) -> RoadNetwork:
    """The default D1-like (Denmark) evaluation network (multi-city country)."""
    return country_network(seed=seed, name="denmark-like")
