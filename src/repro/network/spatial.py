"""Spatial primitives used throughout the library.

All functions work on plain ``(longitude, latitude)`` tuples expressed in
degrees (the order matches GeoJSON and OSM conventions).  Distances are
returned in meters.  The module also contains the polyline *band matching*
procedure from Fig. 14 of the paper, which is used to compare way-point paths
returned by an external routing service against ground-truth edge paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

EARTH_RADIUS_M = 6_371_008.8
"""Mean Earth radius in meters (IUGG)."""

LonLat = tuple[float, float]
"""A ``(longitude, latitude)`` pair in degrees."""


def haversine_m(a: LonLat, b: LonLat) -> float:
    """Great-circle distance in meters between two ``(lon, lat)`` points."""
    lon1, lat1 = math.radians(a[0]), math.radians(a[1])
    lon2, lat2 = math.radians(b[0]), math.radians(b[1])
    dlon = lon2 - lon1
    dlat = lat2 - lat1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def equirectangular_m(a: LonLat, b: LonLat) -> float:
    """Fast equirectangular approximation of the distance in meters.

    Accurate to well under 0.5 % for the city / country scale distances this
    library works with, and several times faster than :func:`haversine_m`.
    """
    lat_mid = math.radians((a[1] + b[1]) / 2.0)
    dx = math.radians(b[0] - a[0]) * math.cos(lat_mid)
    dy = math.radians(b[1] - a[1])
    return EARTH_RADIUS_M * math.hypot(dx, dy)


def path_length_m(points: Sequence[LonLat]) -> float:
    """Total length in meters of the polyline through ``points``."""
    if len(points) < 2:
        return 0.0
    return sum(equirectangular_m(points[i], points[i + 1]) for i in range(len(points) - 1))


def centroid(points: Iterable[LonLat]) -> LonLat:
    """Arithmetic centroid of a non-empty collection of points."""
    pts = list(points)
    if not pts:
        raise ValueError("centroid() requires at least one point")
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    return (sx / len(pts), sy / len(pts))


@dataclass(frozen=True)
class LocalProjection:
    """Equirectangular projection around a reference latitude.

    Converts ``(lon, lat)`` degrees into local ``(x, y)`` meters so that
    planar geometry (point-to-segment distance, convex hulls, bands) can be
    computed with ordinary Euclidean formulas.
    """

    ref_lon: float
    ref_lat: float

    @classmethod
    def for_points(cls, points: Iterable[LonLat]) -> "LocalProjection":
        """Build a projection centred on the centroid of ``points``."""
        c = centroid(points)
        return cls(ref_lon=c[0], ref_lat=c[1])

    def to_xy(self, point: LonLat) -> tuple[float, float]:
        """Project ``(lon, lat)`` to local meters."""
        cos_lat = math.cos(math.radians(self.ref_lat))
        x = math.radians(point[0] - self.ref_lon) * cos_lat * EARTH_RADIUS_M
        y = math.radians(point[1] - self.ref_lat) * EARTH_RADIUS_M
        return (x, y)


def point_segment_distance_m(point: LonLat, seg_a: LonLat, seg_b: LonLat) -> float:
    """Distance in meters from ``point`` to the segment ``seg_a``–``seg_b``.

    Also usable as the emission distance in HMM map matching.
    """
    distance, _ = project_point_to_segment(point, seg_a, seg_b)
    return distance


def project_point_to_segment(
    point: LonLat, seg_a: LonLat, seg_b: LonLat
) -> tuple[float, float]:
    """Project ``point`` onto segment ``seg_a``–``seg_b``.

    Returns ``(distance_m, fraction)`` where ``fraction`` in ``[0, 1]`` is the
    relative position of the projection along the segment.
    """
    proj = LocalProjection(ref_lon=seg_a[0], ref_lat=seg_a[1])
    px, py = proj.to_xy(point)
    ax, ay = proj.to_xy(seg_a)
    bx, by = proj.to_xy(seg_b)
    dx, dy = bx - ax, by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq <= 0.0:
        return (math.hypot(px - ax, py - ay), 0.0)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq
    t = max(0.0, min(1.0, t))
    cx, cy = ax + t * dx, ay + t * dy
    return (math.hypot(px - cx, py - cy), t)


def convex_hull(points: Sequence[LonLat]) -> list[LonLat]:
    """Convex hull (Andrew's monotone chain) of a point set.

    The hull is returned in counter-clockwise order without repeating the
    first point.  Degenerate inputs (fewer than three distinct points) return
    the distinct points themselves.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o: LonLat, a: LonLat, b: LonLat) -> float:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[LonLat] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[LonLat] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def polygon_area_km2(hull: Sequence[LonLat]) -> float:
    """Area in square kilometers of a (convex) polygon given in lon/lat."""
    if len(hull) < 3:
        return 0.0
    proj = LocalProjection.for_points(hull)
    xy = [proj.to_xy(p) for p in hull]
    area2 = 0.0
    for i in range(len(xy)):
        x1, y1 = xy[i]
        x2, y2 = xy[(i + 1) % len(xy)]
        area2 += x1 * y2 - x2 * y1
    return abs(area2) / 2.0 / 1e6


def max_diameter_km(points: Sequence[LonLat]) -> float:
    """Maximum pairwise distance in kilometers between points of a hull."""
    if len(points) < 2:
        return 0.0
    hull = convex_hull(points)
    if len(hull) < 2:
        return 0.0
    best = 0.0
    for i in range(len(hull)):
        for j in range(i + 1, len(hull)):
            best = max(best, equirectangular_m(hull[i], hull[j]))
    return best / 1000.0


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box in lon/lat degrees."""

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    @classmethod
    def of(cls, points: Iterable[LonLat]) -> "BoundingBox":
        pts = list(points)
        if not pts:
            raise ValueError("BoundingBox.of() requires at least one point")
        lons = [p[0] for p in pts]
        lats = [p[1] for p in pts]
        return cls(min(lons), min(lats), max(lons), max(lats))


def match_waypoints_to_polyline(
    waypoints: Sequence[LonLat],
    polyline: Sequence[LonLat],
    band_m: float = 10.0,
) -> tuple[float, float]:
    """Band matching of an external service path against a ground-truth path.

    Implements the methodology of Fig. 14: the ground-truth path is widened
    into a band of ``band_m`` meters on each side; a way-point is *matched* if
    it falls inside the band; the ground-truth length between the projections
    of two consecutive matched way-points counts as matched length.

    Returns ``(matched_length_m, total_length_m)`` of the ground-truth
    polyline so that the caller can form the Eq. 1 style ratio.
    """
    total = path_length_m(polyline)
    if total <= 0.0 or len(waypoints) == 0 or len(polyline) < 2:
        return (0.0, total)

    # Cumulative ground-truth length up to the start of each segment.
    cumulative = [0.0]
    for i in range(len(polyline) - 1):
        cumulative.append(cumulative[-1] + equirectangular_m(polyline[i], polyline[i + 1]))

    def project_onto_path(point: LonLat) -> tuple[float, float]:
        """Return (distance to path, arc-length position of projection)."""
        best_dist = math.inf
        best_pos = 0.0
        for i in range(len(polyline) - 1):
            dist, frac = project_point_to_segment(point, polyline[i], polyline[i + 1])
            if dist < best_dist:
                seg_len = cumulative[i + 1] - cumulative[i]
                best_dist = dist
                best_pos = cumulative[i] + frac * seg_len
        return (best_dist, best_pos)

    projections: list[tuple[bool, float]] = []
    for wp in waypoints:
        dist, pos = project_onto_path(wp)
        projections.append((dist <= band_m, pos))

    matched = 0.0
    for i in range(len(projections) - 1):
        ok_a, pos_a = projections[i]
        ok_b, pos_b = projections[i + 1]
        if ok_a and ok_b:
            matched += abs(pos_b - pos_a)
    return (min(matched, total), total)
