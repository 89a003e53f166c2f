"""Exception hierarchy tests, an end-to-end integration test, and a check
that every package's ``__all__`` names something it defines."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro import LearnToRoute, ReproError
from repro.exceptions import (
    ClusteringError,
    ConfigurationError,
    EdgeNotFoundError,
    MapMatchingError,
    NetworkError,
    NoPathError,
    NotFittedError,
    PreferenceError,
    RegionGraphError,
    TrajectoryError,
    TransferError,
    VertexNotFoundError,
)


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            NetworkError,
            NoPathError,
            TrajectoryError,
            MapMatchingError,
            ClusteringError,
            RegionGraphError,
            PreferenceError,
            TransferError,
            ConfigurationError,
            NotFittedError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, ReproError)

    def test_vertex_not_found_message(self):
        error = VertexNotFoundError(42)
        assert "42" in str(error)
        assert error.vertex_id == 42

    def test_edge_not_found_message(self):
        error = EdgeNotFoundError(1, 2)
        assert error.source == 1 and error.target == 2

    def test_no_path_reason(self):
        error = NoPathError(1, 2, reason="disconnected")
        assert "disconnected" in str(error)

    def test_map_matching_is_trajectory_error(self):
        assert issubclass(MapMatchingError, TrajectoryError)

    def test_transfer_is_preference_error(self):
        assert issubclass(TransferError, PreferenceError)


class TestEndToEndIntegration:
    """The full pipeline on freshly generated data, exercised in one pass."""

    def test_generate_fit_route_evaluate(self):
        from repro.baselines import FastestBaseline, L2RAlgorithm, ShortestBaseline
        from repro.datasets.splits import split_by_id
        from repro.evaluation import EvaluationHarness
        from repro.network import grid_city_network
        from repro.trajectories import GeneratorConfig, TrajectoryGenerator
        from repro.trajectories.statistics import D2_DISTANCE_BANDS_KM

        network = grid_city_network(rows=8, cols=8, block_m=350.0, seed=21)
        config = GeneratorConfig(n_drivers=8, n_trajectories=70, hotspot_count=3, seed=21)
        data = TrajectoryGenerator(network, config).generate()
        split = split_by_id(data.trajectories, train_fraction=0.7)

        pipeline = LearnToRoute().fit(network, split.train)
        assert pipeline.region_graph.is_connected()

        harness = EvaluationHarness(
            network=network,
            region_graph=pipeline.region_graph,
            bands_km=D2_DISTANCE_BANDS_KM,
        )
        harness.add_algorithm(L2RAlgorithm(pipeline))
        harness.add_algorithm(ShortestBaseline(network))
        harness.add_algorithm(FastestBaseline(network))
        report = harness.evaluate(split.test, max_queries=15)

        assert set(report.algorithms()) == {"L2R", "Shortest", "Fastest"}
        for algorithm in report.algorithms():
            assert 0.0 <= report.mean_accuracy(algorithm) <= 100.0
        # Every L2R answer starts and ends at the requested vertices.
        for result in report.results:
            assert not result.failed or result.algorithm != "L2R"

    def test_unfitted_pipeline_raises_repro_error(self):
        with pytest.raises(ReproError):
            LearnToRoute().route(0, 1)


def _packages() -> list[str]:
    return ["repro"] + [
        module.name
        for module in pkgutil.walk_packages(repro.__path__, "repro.")
        if module.ispkg
    ]


@pytest.mark.parametrize("package", _packages())
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__, package
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it does not define: {missing}"
