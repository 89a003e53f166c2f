"""The learn-to-route (L2R) pipeline — the paper's primary contribution.

``fit()`` runs the three offline steps on a road network and a training
trajectory set:

1. build the trajectory graph, cluster it into regions (Algorithm 1), and
   build the region graph with T-edges, B-edges, transfer centers, and
   inner-region paths (Section IV);
2. learn a routing preference per T-edge (Section V-A) and transfer the
   preferences to B-edges with graph-based transduction (Section V-B);
3. materialize concrete paths on B-edges between transfer centers using the
   preference-aware Dijkstra (Section V-C).

``route()`` then answers arbitrary (source, destination) requests on the
region graph (Section VI).  A fitted pipeline is one region graph: the
departure time of a request is accepted and ignored.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..exceptions import NotFittedError
from ..network.road_network import RoadNetwork, VertexId
from ..preferences.apply import materialize_b_edge_paths
from ..preferences.features import FeatureCatalog
from ..preferences.learning import LearnedPreference, learn_t_edge_preferences
from ..preferences.transfer import TransferResult, transfer_to_b_edges
from ..regions.clustering import BottomUpClustering, ClusteringResult
from ..regions.region_graph import RegionGraph, build_region_graph
from ..regions.trajectory_graph import TrajectoryGraph
from ..routing.path import Path
from ..trajectories.models import MatchedTrajectory
from .config import L2RConfig
from .router import RegionRouter, RouteDiagnostics


@dataclass
class OfflineTimings:
    """Offline processing time breakdown (Section VII-C, 'Offline Processing')."""

    region_graph_s: float = 0.0
    preference_learning_s: float = 0.0
    preference_transfer_s: float = 0.0
    path_materialization_s: float = 0.0

    @property
    def total_s(self) -> float:
        return (
            self.region_graph_s
            + self.preference_learning_s
            + self.preference_transfer_s
            + self.path_materialization_s
        )


@dataclass
class FittedModel:
    """Everything produced by fitting L2R on one trajectory subset."""

    trajectory_graph: TrajectoryGraph
    clustering: ClusteringResult
    region_graph: RegionGraph
    learned_preferences: dict[tuple[int, int], LearnedPreference]
    transfer_result: TransferResult | None
    router: RegionRouter
    timings: OfflineTimings = field(default_factory=OfflineTimings)


class LearnToRoute:
    """The unified trajectory-based routing solution (L2R)."""

    def __init__(self, config: L2RConfig | None = None, catalog: FeatureCatalog | None = None) -> None:
        self.config = config or L2RConfig()
        self.catalog = catalog or FeatureCatalog()
        self._network: RoadNetwork | None = None
        self._model: FittedModel | None = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, network: RoadNetwork, trajectories: Sequence[MatchedTrajectory]) -> "LearnToRoute":
        """Run the offline pipeline; returns ``self`` for chaining."""
        self._network = network
        self._model = self._fit_model(network, list(trajectories))
        return self

    def _fit_model(
        self, network: RoadNetwork, trajectories: list[MatchedTrajectory]
    ) -> FittedModel:
        timings = OfflineTimings()

        started = time.perf_counter()
        trajectory_graph = TrajectoryGraph.from_trajectories(network, trajectories)
        clustering = BottomUpClustering().cluster(trajectory_graph)
        region_graph = build_region_graph(network, clustering, trajectories)
        timings.region_graph_s = time.perf_counter() - started

        started = time.perf_counter()
        learned = learn_t_edge_preferences(network, region_graph, catalog=self.catalog)
        timings.preference_learning_s = time.perf_counter() - started

        transfer_result: TransferResult | None = None
        started = time.perf_counter()
        if region_graph.b_edges() and learned:
            transfer_result = transfer_to_b_edges(
                region_graph, catalog=self.catalog, config=self.config.transfer
            )
        timings.preference_transfer_s = time.perf_counter() - started

        started = time.perf_counter()
        materialize_b_edge_paths(network, region_graph)
        timings.path_materialization_s = time.perf_counter() - started

        router = RegionRouter(region_graph)
        return FittedModel(
            trajectory_graph=trajectory_graph,
            clustering=clustering,
            region_graph=region_graph,
            learned_preferences=learned,
            transfer_result=transfer_result,
            router=router,
            timings=timings,
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return self._model is not None

    def route(
        self, source: VertexId, destination: VertexId, departure_time: float | None = None
    ) -> Path:
        """Recommend a path for an arbitrary (source, destination) pair.

        ``departure_time`` (seconds of day) does **not** influence path
        selection — the one fitted model answers regardless of the requested
        time.  Callers who need the requested time echoed back should route
        through the service layer, whose
        :class:`~repro.service.api.RouteResponse` always records it on the
        originating request.
        """
        return self.model.router.route(source, destination)

    def route_with_diagnostics(
        self, source: VertexId, destination: VertexId, departure_time: float | None = None
    ) -> tuple[Path, RouteDiagnostics]:
        """Recommend a path plus diagnostics on which routing case applied."""
        return self.model.router.route_with_diagnostics(source, destination)

    # ------------------------------------------------------------------ #
    # Serving and persistence
    # ------------------------------------------------------------------ #
    def as_engine(self, name: str | None = None):
        """This pipeline adapted to the ``RoutingEngine`` protocol."""
        from ..service.engine import L2REngine

        return L2REngine(self, name=name)

    def save(self, path) -> "pathlib.Path":
        """Persist the fitted model so a serving process can skip ``fit()``.

        See :func:`repro.service.persistence.save_model`; the returned value
        is the written path.
        """
        from ..service.persistence import save_model

        return save_model(self, path)

    @classmethod
    def load(cls, path) -> "LearnToRoute":
        """Restore a pipeline previously written by :meth:`save`."""
        from ..service.persistence import load_model

        return load_model(path)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def network(self) -> RoadNetwork:
        if self._network is None:
            raise NotFittedError("LearnToRoute")
        return self._network

    @property
    def model(self) -> FittedModel:
        """The fitted model."""
        if self._model is None:
            raise NotFittedError("LearnToRoute")
        return self._model

    @property
    def region_graph(self) -> RegionGraph:
        return self.model.region_graph

    @property
    def offline_timings(self) -> OfflineTimings:
        return self.model.timings

    def region_of(self, vertex: VertexId) -> int | None:
        """The region containing a vertex, or ``None`` (used for categorization)."""
        return self.region_graph.region_of(vertex)
