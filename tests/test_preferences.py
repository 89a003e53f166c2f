"""Tests for the preference model: features, vectors, and similarity functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network import RoadType
from repro.preferences import (
    FeatureCatalog,
    LOCAL_ROADS,
    MAJOR_ROADS,
    PreferenceVector,
    combined_feature,
    default_road_condition_features,
    jaccard,
    path_similarity,
    path_similarity_union,
    region_edge_similarity,
    single_type_feature,
)
from repro.regions.region_graph import RegionEdge
from repro.routing import CostFeature, Path


class TestFeatures:
    def test_single_type_feature(self):
        feature = single_type_feature(RoadType.MOTORWAY)
        assert feature.satisfied_by(RoadType.MOTORWAY)
        assert not feature.satisfied_by(RoadType.RESIDENTIAL)

    def test_combined_feature(self):
        feature = combined_feature(RoadType.MOTORWAY, RoadType.TRUNK)
        assert feature.satisfied_by(RoadType.TRUNK)
        assert "motorway" in feature.name and "trunk" in feature.name

    def test_major_and_local_disjoint(self):
        assert not (MAJOR_ROADS.road_types & LOCAL_ROADS.road_types)

    def test_default_catalog_has_all_singles(self):
        features = default_road_condition_features()
        names = {f.name for f in features}
        for road_type in RoadType:
            assert road_type.osm_tag in names

    def test_catalog_dimensions(self):
        catalog = FeatureCatalog()
        assert catalog.n_cost == 3
        assert catalog.n_road == len(default_road_condition_features())
        assert catalog.n_features == catalog.n_cost + catalog.n_road

    def test_catalog_column_round_trip(self):
        catalog = FeatureCatalog()
        for feature in catalog.cost_features:
            assert catalog.cost_feature_at(catalog.cost_column(feature)) is feature
        for feature in catalog.road_condition_features:
            assert catalog.road_feature_at(catalog.road_column(feature)) == feature

    def test_catalog_requires_cost_feature(self):
        with pytest.raises(ValueError):
            FeatureCatalog(cost_features=[])


class TestPreferenceVector:
    def test_row_encoding_sets_expected_columns(self):
        catalog = FeatureCatalog()
        vector = PreferenceVector(master=CostFeature.TRAVEL_TIME, slave=MAJOR_ROADS)
        row = vector.to_row(catalog)
        assert row[catalog.cost_column(CostFeature.TRAVEL_TIME)] == 1.0
        assert row[catalog.road_column(MAJOR_ROADS)] == 1.0
        assert row.sum() == 2.0

    def test_row_encoding_without_slave(self):
        catalog = FeatureCatalog()
        row = PreferenceVector(master=CostFeature.DISTANCE).to_row(catalog)
        assert row.sum() == 1.0

    def test_from_row_round_trip(self):
        catalog = FeatureCatalog()
        original = PreferenceVector(master=CostFeature.FUEL, slave=LOCAL_ROADS)
        decoded = PreferenceVector.from_row(original.to_row(catalog), catalog)
        assert decoded == original

    def test_from_row_null(self):
        catalog = FeatureCatalog()
        assert PreferenceVector.from_row(np.zeros(catalog.n_features), catalog) is None

    def test_from_row_fractional_uses_argmax(self):
        catalog = FeatureCatalog()
        row = np.zeros(catalog.n_features)
        row[catalog.cost_column(CostFeature.DISTANCE)] = 0.3
        row[catalog.cost_column(CostFeature.TRAVEL_TIME)] = 0.6
        row[catalog.road_column(MAJOR_ROADS)] = 0.4
        decoded = PreferenceVector.from_row(row, catalog)
        assert decoded is not None
        assert decoded.master is CostFeature.TRAVEL_TIME
        assert decoded.slave == MAJOR_ROADS

    def test_similarity_identical(self):
        a = PreferenceVector(master=CostFeature.DISTANCE, slave=MAJOR_ROADS)
        assert a.similarity(a) == 1.0

    def test_similarity_disjoint(self):
        a = PreferenceVector(master=CostFeature.DISTANCE, slave=MAJOR_ROADS)
        b = PreferenceVector(master=CostFeature.TRAVEL_TIME, slave=LOCAL_ROADS)
        assert a.similarity(b) == 0.0

    def test_similarity_partial(self):
        a = PreferenceVector(master=CostFeature.DISTANCE, slave=MAJOR_ROADS)
        b = PreferenceVector(master=CostFeature.DISTANCE, slave=LOCAL_ROADS)
        assert 0.0 < a.similarity(b) < 1.0

    def test_similarity_with_none(self):
        a = PreferenceVector(master=CostFeature.DISTANCE)
        assert a.similarity(None) == 0.0


class TestPathSimilarity:
    def test_identical_paths(self, line_network):
        path = Path.of([0, 1, 2, 3])
        assert path_similarity(line_network, path, path) == 1.0
        assert path_similarity_union(line_network, path, path) == 1.0

    def test_disjoint_paths(self, line_network):
        ground = Path.of([0, 1, 2])
        other = Path.of([0, 9, 4])
        assert path_similarity(line_network, ground, other) == 0.0
        assert path_similarity_union(line_network, ground, other) == 0.0

    def test_partial_overlap_weighted_by_length(self, line_network):
        ground = Path.of([0, 1, 2, 3, 4])          # 4 km of residential edges
        constructed = Path.of([0, 1, 2])           # shares 2 km
        assert path_similarity(line_network, ground, constructed) == pytest.approx(0.5)

    def test_union_similarity_is_symmetric(self, line_network):
        a = Path.of([0, 1, 2, 3])
        b = Path.of([1, 2, 3, 4])
        assert path_similarity_union(line_network, a, b) == pytest.approx(
            path_similarity_union(line_network, b, a)
        )

    def test_eq1_not_symmetric_in_general(self, line_network):
        ground = Path.of([0, 1, 2, 3, 4])
        constructed = Path.of([0, 1, 2])
        forward = path_similarity(line_network, ground, constructed)
        backward = path_similarity(line_network, constructed, ground)
        assert forward != backward

    def test_union_leq_eq1(self, line_network):
        ground = Path.of([0, 1, 2, 3])
        constructed = Path.of([0, 1, 2, 3, 4])
        assert path_similarity_union(line_network, ground, constructed) <= path_similarity(
            line_network, ground, constructed
        )

    def test_trivial_paths(self, line_network):
        assert path_similarity(line_network, Path.of([2]), Path.of([2])) == 1.0
        assert path_similarity(line_network, Path.of([2]), Path.of([3])) == 0.0


class TestRegionEdgeSimilarity:
    def _edge(self, distance_m: float, types: set) -> RegionEdge:
        return RegionEdge(
            region_a=0, region_b=1, kind="T", centroid_distance_m=distance_m,
            functionality=frozenset(types),
        )

    def test_jaccard(self):
        assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 0.0

    def test_identical_edges_have_similarity_two(self):
        edge = self._edge(1000.0, {(RoadType.PRIMARY, RoadType.RESIDENTIAL)})
        assert region_edge_similarity(edge, edge) == pytest.approx(2.0)

    def test_distance_ratio_component(self):
        a = self._edge(1000.0, {(RoadType.PRIMARY, RoadType.PRIMARY)})
        b = self._edge(2000.0, {(RoadType.SECONDARY, RoadType.SECONDARY)})
        assert region_edge_similarity(a, b) == pytest.approx(0.5)

    def test_functionality_component(self):
        shared = {(RoadType.PRIMARY, RoadType.PRIMARY)}
        a = self._edge(1000.0, shared)
        b = self._edge(1000.0, shared | {(RoadType.PRIMARY, RoadType.SECONDARY)})
        assert region_edge_similarity(a, b) == pytest.approx(1.0 + 0.5)

    def test_zero_distances(self):
        a = self._edge(0.0, set())
        b = self._edge(0.0, set())
        assert region_edge_similarity(a, b) == pytest.approx(1.0)
        c = self._edge(100.0, set())
        assert region_edge_similarity(a, c) == pytest.approx(0.0)

    def test_symmetry(self):
        a = self._edge(1500.0, {(RoadType.PRIMARY, RoadType.RESIDENTIAL)})
        b = self._edge(900.0, {(RoadType.PRIMARY, RoadType.PRIMARY)})
        assert region_edge_similarity(a, b) == pytest.approx(region_edge_similarity(b, a))
