"""Shared fixtures: small deterministic networks, scenarios, and fitted models.

Expensive artifacts (the fitted L2R pipeline, generated scenarios) are
session-scoped so the suite stays fast while still exercising the real
pipeline end to end.
"""

from __future__ import annotations

import pytest

from repro.core import L2RConfig, LearnToRoute
from repro.datasets import tiny_scenario
from repro.datasets.splits import split_by_id
from repro.network import RoadNetwork, RoadType, grid_city_network
from repro.regions import TrajectoryGraph, build_region_graph, cluster_trajectory_graph
from repro.trajectories import GeneratorConfig, TrajectoryGenerator


def _relabelled_network(network: RoadNetwork, offset: int) -> RoadNetwork:
    """The same roads with every vertex id shifted (order-preserving, so the
    CSR layout is identical)."""
    copy = RoadNetwork(name=f"{network.name}+{offset}")
    for vertex in network.vertices():
        copy.add_vertex(vertex.vertex_id + offset, lon=vertex.lon, lat=vertex.lat)
    for edge in network.edges():
        copy.add_edge(
            edge.source + offset,
            edge.target + offset,
            road_type=edge.road_type,
            distance_m=edge.distance_m,
        )
    return copy


@pytest.fixture(scope="session")
def relabelled_network():
    """``relabelled_network(network, offset)``: see :func:`_relabelled_network`."""
    return _relabelled_network


@pytest.fixture(scope="session")
def demo_network() -> RoadNetwork:
    """A 6x6 grid network with arterials (36 vertices, deterministic)."""
    return grid_city_network(rows=6, cols=6, block_m=400.0, seed=3, name="demo")


@pytest.fixture(scope="session")
def grid_network() -> RoadNetwork:
    """A 10x10 grid city used by routing and clustering tests."""
    return grid_city_network(rows=10, cols=10, block_m=300.0, seed=5, name="grid10")


@pytest.fixture()
def line_network() -> RoadNetwork:
    """A hand-built 5-vertex line network with mixed road types.

    Layout: 0 -1km- 1 -1km- 2 -1km- 3 -1km- 4, plus a 2.5 km motorway
    shortcut 0 -> 4 that is longer but much faster.
    """
    network = RoadNetwork(name="line")
    for i in range(5):
        network.add_vertex(i, lon=10.0 + i * 0.012, lat=56.0)
    network.add_vertex(9, lon=10.0 + 2 * 0.012, lat=56.02)
    for i in range(4):
        network.add_edge(i, i + 1, road_type=RoadType.RESIDENTIAL, distance_m=1_000.0, bidirectional=True)
    network.add_edge(0, 9, road_type=RoadType.MOTORWAY, distance_m=2_600.0, bidirectional=True)
    network.add_edge(9, 4, road_type=RoadType.MOTORWAY, distance_m=2_600.0, bidirectional=True)
    return network


@pytest.fixture(scope="session")
def tiny() -> "object":
    """The tiny synthetic scenario (network + generated trajectories)."""
    return tiny_scenario(seed=3, n_trajectories=120)


@pytest.fixture(scope="session")
def tiny_split(tiny):
    """Train/test split of the tiny scenario."""
    return split_by_id(tiny.trajectories, train_fraction=0.75)


@pytest.fixture(scope="session")
def fitted_l2r(tiny, tiny_split) -> LearnToRoute:
    """An L2R pipeline fitted on the tiny scenario's training set."""
    return LearnToRoute(L2RConfig()).fit(tiny.network, tiny_split.train)


@pytest.fixture(scope="session")
def tiny_region_graph(tiny, tiny_split):
    """A region graph built directly (without the full pipeline)."""
    trajectory_graph = TrajectoryGraph.from_trajectories(tiny.network, tiny_split.train)
    clustering = cluster_trajectory_graph(trajectory_graph)
    return build_region_graph(tiny.network, clustering, tiny_split.train)


@pytest.fixture(scope="session")
def generated_grid(grid_network):
    """Generated trajectories on the 10x10 grid (used by substrate tests)."""
    config = GeneratorConfig(n_drivers=10, n_trajectories=80, hotspot_count=4, seed=9)
    return TrajectoryGenerator(grid_network, config).generate()
