"""Tests for spatial primitives (distances, projections, hulls, band matching)."""

from __future__ import annotations

import math

import pytest

from repro.network.spatial import (
    BoundingBox,
    LocalProjection,
    centroid,
    convex_hull,
    equirectangular_m,
    haversine_m,
    match_waypoints_to_polyline,
    max_diameter_km,
    path_length_m,
    point_segment_distance_m,
    polygon_area_km2,
    project_point_to_segment,
)

AALBORG = (9.9217, 57.0488)
COPENHAGEN = (12.5683, 55.6761)


class TestDistances:
    def test_haversine_zero_for_identical_points(self):
        assert haversine_m(AALBORG, AALBORG) == pytest.approx(0.0)

    def test_haversine_is_symmetric(self):
        assert haversine_m(AALBORG, COPENHAGEN) == pytest.approx(
            haversine_m(COPENHAGEN, AALBORG)
        )

    def test_haversine_aalborg_copenhagen_is_about_230km(self):
        distance = haversine_m(AALBORG, COPENHAGEN)
        assert 200_000 < distance < 260_000

    def test_equirectangular_close_to_haversine_at_city_scale(self):
        a = (10.0, 56.0)
        b = (10.05, 56.03)
        assert equirectangular_m(a, b) == pytest.approx(haversine_m(a, b), rel=0.01)

    def test_one_degree_latitude_is_about_111km(self):
        assert haversine_m((10.0, 56.0), (10.0, 57.0)) == pytest.approx(111_000, rel=0.01)

    def test_path_length_sums_segments(self):
        points = [(10.0, 56.0), (10.0, 56.01), (10.0, 56.02)]
        expected = equirectangular_m(points[0], points[1]) + equirectangular_m(points[1], points[2])
        assert path_length_m(points) == pytest.approx(expected)

    def test_path_length_of_single_point_is_zero(self):
        assert path_length_m([(10.0, 56.0)]) == 0.0


class TestCentroidAndMidpoint:
    def test_centroid_of_square(self):
        points = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
        assert centroid(points) == (1.0, 1.0)

    def test_centroid_of_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])


class TestProjection:
    def test_projection_distances_match_equirectangular(self):
        projection = LocalProjection(ref_lon=10.0, ref_lat=56.0)
        a, b = (10.0, 56.0), (10.02, 56.01)
        ax, ay = projection.to_xy(a)
        bx, by = projection.to_xy(b)
        planar = math.hypot(bx - ax, by - ay)
        assert planar == pytest.approx(equirectangular_m(a, b), rel=0.01)


class TestPointSegment:
    def test_point_on_segment_has_zero_distance(self):
        a, b = (10.0, 56.0), (10.02, 56.0)
        on_segment = (10.01, 56.0)
        assert point_segment_distance_m(on_segment, a, b) == pytest.approx(0.0, abs=0.5)

    def test_point_beyond_endpoint_clamps(self):
        a, b = (10.0, 56.0), (10.01, 56.0)
        beyond = (10.03, 56.0)
        expected = equirectangular_m(beyond, b)
        assert point_segment_distance_m(beyond, a, b) == pytest.approx(expected, rel=0.02)

    def test_projection_fraction_midpoint(self):
        a, b = (10.0, 56.0), (10.02, 56.0)
        _, fraction = project_point_to_segment((10.01, 56.001), a, b)
        assert fraction == pytest.approx(0.5, abs=0.02)

    def test_degenerate_segment(self):
        a = (10.0, 56.0)
        distance, fraction = project_point_to_segment((10.001, 56.0), a, a)
        assert fraction == 0.0
        assert distance > 0


class TestConvexHull:
    def test_hull_of_square_with_interior_point(self):
        points = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
        hull = convex_hull(points)
        assert len(hull) == 4
        assert (0.5, 0.5) not in hull

    def test_hull_of_two_points(self):
        points = [(0.0, 0.0), (1.0, 1.0)]
        assert sorted(convex_hull(points)) == sorted(points)

    def test_collinear_points_produce_degenerate_hull(self):
        points = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        hull = convex_hull(points)
        assert len(hull) <= 2 or polygon_area_km2(hull) == pytest.approx(0.0)

    def test_area_of_known_square(self):
        # Roughly 1.113 km x 1.113 km at lat 0 for 0.01 degrees.
        square = [(0.0, 0.0), (0.01, 0.0), (0.01, 0.01), (0.0, 0.01)]
        area = polygon_area_km2(convex_hull(square))
        assert area == pytest.approx(1.113 * 1.113, rel=0.02)

    def test_max_diameter_of_square(self):
        square = [(0.0, 0.0), (0.01, 0.0), (0.01, 0.01), (0.0, 0.01)]
        diameter = max_diameter_km(square)
        assert diameter == pytest.approx(1.113 * math.sqrt(2), rel=0.02)

    def test_max_diameter_single_point_is_zero(self):
        assert max_diameter_km([(1.0, 1.0)]) == 0.0


class TestBoundingBox:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.of([])


class TestWaypointBandMatching:
    def _straight_polyline(self):
        return [(10.0 + i * 0.001, 56.0) for i in range(11)]

    def test_waypoints_on_path_match_fully(self):
        polyline = self._straight_polyline()
        waypoints = [polyline[0], polyline[5], polyline[10]]
        matched, total = match_waypoints_to_polyline(waypoints, polyline, band_m=10.0)
        assert matched == pytest.approx(total, rel=0.01)

    def test_waypoints_far_away_match_nothing(self):
        polyline = self._straight_polyline()
        waypoints = [(10.0, 56.5), (10.005, 56.5)]
        matched, _ = match_waypoints_to_polyline(waypoints, polyline, band_m=10.0)
        assert matched == 0.0

    def test_partial_match(self):
        polyline = self._straight_polyline()
        # Only the first half of the waypoints are on the path.
        waypoints = [polyline[0], polyline[5], (10.02, 56.5)]
        matched, total = match_waypoints_to_polyline(waypoints, polyline, band_m=10.0)
        assert 0.0 < matched < total

    def test_empty_waypoints(self):
        polyline = self._straight_polyline()
        matched, total = match_waypoints_to_polyline([], polyline)
        assert matched == 0.0
        assert total > 0.0

    def test_matched_never_exceeds_total(self):
        polyline = self._straight_polyline()
        waypoints = polyline * 2
        matched, total = match_waypoints_to_polyline(waypoints, polyline, band_m=50.0)
        assert matched <= total
