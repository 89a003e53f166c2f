"""Common interface of the routing algorithms compared in the evaluation.

Every algorithm (L2R itself, the cost-centric baselines, the personalized
baselines, and the external-service simulator) is wrapped as a
:class:`RoutingAlgorithm` so that the evaluation harness can treat them
uniformly: ``route(source, destination, departure_time, driver_id)``.

For serving, :meth:`RoutingAlgorithm.as_engine` adapts any algorithm to the
:class:`~repro.service.engine.RoutingEngine` protocol so it can be registered
with a :class:`~repro.service.RoutingService` — the evaluation harness and the
service drive every method through that identical request/response path.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from ..network.road_network import RoadNetwork, VertexId
from ..routing.path import Path

if TYPE_CHECKING:  # pragma: no cover
    from ..service.engine import AlgorithmEngine


class RoutingAlgorithm(abc.ABC):
    """Abstract base class of all evaluated routing algorithms."""

    #: Human-readable algorithm name used in reports and figures.
    name: str = "algorithm"

    def __init__(self, network: RoadNetwork) -> None:
        self._network = network

    @property
    def network(self) -> RoadNetwork:
        return self._network

    @abc.abstractmethod
    def route(
        self,
        source: VertexId,
        destination: VertexId,
        departure_time: float | None = None,
        driver_id: int | None = None,
    ) -> Path:
        """Return a recommended path from ``source`` to ``destination``."""

    def as_engine(self, name: str | None = None) -> "AlgorithmEngine":
        """This algorithm adapted to the ``RoutingEngine`` protocol."""
        from ..service.engine import AlgorithmEngine

        return AlgorithmEngine(self, name=name)


class L2RAlgorithm(RoutingAlgorithm):
    """Adapter exposing a fitted :class:`~repro.core.l2r.LearnToRoute` pipeline."""

    name = "L2R"

    def __init__(self, pipeline) -> None:
        super().__init__(pipeline.network)
        self._pipeline = pipeline

    def route(
        self,
        source: VertexId,
        destination: VertexId,
        departure_time: float | None = None,
        driver_id: int | None = None,
    ) -> Path:
        return self._pipeline.route(source, destination, departure_time=departure_time)
