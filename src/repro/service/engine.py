"""The :class:`RoutingEngine` protocol and the engine adapters.

Every routing backend — the L2R pipeline, each baseline, and any future
method — is exposed to the service layer through one contract::

    engine.route(request: RouteRequest) -> RouteResponse

:class:`BaseEngine` implements the shared answering discipline (timing,
per-request cost overrides, converting :class:`~repro.exceptions.ReproError`
failures into error responses instead of exceptions) so concrete engines only
implement :meth:`BaseEngine._answer`, and owns the batch search
(:meth:`BaseEngine.route_batch`).  :class:`AlgorithmEngine` adapts any legacy :class:`~repro.baselines.base.RoutingAlgorithm`, and
:class:`L2REngine` adapts a fitted :class:`~repro.core.l2r.LearnToRoute`
pipeline with full routing diagnostics.
"""

from __future__ import annotations

import abc
import time
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from ..core.router import RouteDiagnostics
from ..exceptions import ReproError
from ..network.compiled import dispatch
from ..network.road_network import RoadNetwork
from ..routing.costs import cost_function
from ..routing.dijkstra import lowest_cost_path
from ..routing.path import Path
from .api import RouteRequest, RouteResponse

if TYPE_CHECKING:  # pragma: no cover
    from ..baselines.base import RoutingAlgorithm
    from ..core.l2r import LearnToRoute


@runtime_checkable
class RoutingEngine(Protocol):
    """The single contract every routing backend satisfies.

    An engine that can answer several requests with one search may offer
    ``route_batch(requests) -> list[RouteResponse | None]``: a response
    (``batched=True``, ``latency_s`` the call's time amortised) in the slot
    of each request it answered together with others, ``None`` in every
    other — the service sends those through :meth:`route`.
    ``RoutingService.route_many`` calls it as one unit of work (one admission
    slot, one deadline budget, one outcome for this engine's breaker: a
    failure if any slot holds an engine-health error); an engine without the
    method is never batched.  An engine whose answer to a request is the
    reference shortest path of one cost view may name it with
    ``cost_view(request)`` (see :meth:`BaseEngine.cost_view`); the route
    cache then keeps those answers across cost rises they provably survive.
    """

    name: str

    def route(self, request: RouteRequest) -> RouteResponse:  # pragma: no cover
        """Answer one request; failures are reported on the response."""
        ...


class BaseEngine(abc.ABC):
    """Shared answering discipline of the concrete engines."""

    name: str = "engine"

    def __init__(self, network: RoadNetwork) -> None:
        self._network = network

    @property
    def network(self) -> RoadNetwork:
        return self._network

    def route(self, request: RouteRequest) -> RouteResponse:
        """Answer ``request``, timing the computation.

        :class:`~repro.exceptions.ReproError` failures (no path, unknown
        vertex, ...) become error responses so that one bad request cannot
        abort a batch; programming errors still propagate.
        """
        started = time.perf_counter()
        try:
            if request.cost_override is not None:
                path = lowest_cost_path(
                    self._network, request.source, request.destination, request.cost_override
                )
                diagnostics: RouteDiagnostics | None = RouteDiagnostics(case="cost-override")
            else:
                path, diagnostics = self._answer(request)
        except ReproError as exc:
            return RouteResponse.from_error(
                request, self.name, exc, latency_s=time.perf_counter() - started
            )
        return RouteResponse(
            request=request,
            path=path,
            engine=self.name,
            diagnostics=diagnostics,
            latency_s=time.perf_counter() - started,
        )

    @abc.abstractmethod
    def _answer(self, request: RouteRequest) -> tuple[Path, RouteDiagnostics | None]:
        """Compute the path (and optional diagnostics) for one request."""

    def _static_cost(self):
        """The fixed single-feature edge cost this engine routes with.

        ``None`` (the default) marks the engine's policy as not reducible to
        one Dijkstra per request — such engines batch ``cost_override``
        requests only.
        """
        return None

    def cost_view(self, request: RouteRequest):
        """The edge cost whose reference shortest path *is* this engine's
        answer to ``request`` — its ``cost_override``, else
        :meth:`_static_cost` — or ``None`` when the answer is not one search.

        Requests sharing a view may share a search (:meth:`route_batch`),
        and the route cache keeps such an answer's re-proof.
        """
        override = request.cost_override
        return cost_function(override) if override is not None else self._static_cost()

    def route_batch(self, requests: Sequence[RouteRequest]) -> list[RouteResponse | None]:
        """The optional batch method of :class:`RoutingEngine`.

        A request shares a search when it reduces to one shortest-path query
        over a cost view this engine can name (:meth:`cost_view`) *and* its
        source is asked for another
        destination under that view: one SSSP row per such source.  A source
        asked once, an unreachable pair or an unknown vertex is left to
        :meth:`route` — the bounded point-to-point search beats a whole row,
        and errors are reported there.
        """
        # cost_function returns per-feature singletons, so the callable
        # itself (hashed by identity) is the cost view.
        views: dict[object, dict[object, list[int]]] = {}
        for position, request in enumerate(requests):
            cost = self.cost_view(request)
            if cost is not None:
                views.setdefault(cost, {}).setdefault(request.source, []).append(position)

        answers: list[RouteResponse | None] = [None] * len(requests)
        for cost, by_source in views.items():
            shared = [p for group in by_source.values() if len(group) > 1 for p in group]
            if not shared:
                continue
            started = time.perf_counter()
            pairs = [(requests[p].source, requests[p].destination) for p in shared]
            routes = dispatch.try_route_many(self._network, pairs, cost)
            if routes is None:
                continue
            latency_s = (time.perf_counter() - started) / len(shared)
            for position, vertices in zip(shared, routes):
                if isinstance(vertices, list):
                    answers[position] = RouteResponse(
                        request=requests[position],
                        path=Path.of(vertices),
                        engine=self.name,
                        latency_s=latency_s,
                        batched=True,
                    )
        return answers


class AlgorithmEngine(BaseEngine):
    """Adapter exposing a legacy :class:`RoutingAlgorithm` as an engine."""

    def __init__(self, algorithm: "RoutingAlgorithm", name: str | None = None) -> None:
        super().__init__(algorithm.network)
        self._algorithm = algorithm
        self.name = name or algorithm.name

    def _static_cost(self):
        """Cost-centric algorithms advertise their feature for batching."""
        feature = getattr(self._algorithm, "cost_feature", None)
        if feature is None:
            return None
        return cost_function(feature)

    def _answer(self, request: RouteRequest) -> tuple[Path, RouteDiagnostics | None]:
        path = self._algorithm.route(
            request.source,
            request.destination,
            departure_time=request.departure_time,
            driver_id=request.driver_id,
        )
        return path, None


class L2REngine(BaseEngine):
    """Adapter exposing a fitted L2R pipeline with routing diagnostics."""

    name = "L2R"

    def __init__(self, pipeline: "LearnToRoute", name: str | None = None) -> None:
        super().__init__(pipeline.network)
        self._pipeline = pipeline
        if name is not None:
            self.name = name

    def _answer(self, request: RouteRequest) -> tuple[Path, RouteDiagnostics | None]:
        return self._pipeline.route_with_diagnostics(
            request.source, request.destination, departure_time=request.departure_time
        )


class FunctionEngine(BaseEngine):
    """Adapter for a bare ``(source, destination) -> Path`` callable.

    Handy for plugging ad-hoc routing policies (or test doubles) into the
    service without writing a class.
    """

    def __init__(self, network: RoadNetwork, fn, name: str = "function") -> None:
        super().__init__(network)
        self._fn = fn
        self.name = name

    def _answer(self, request: RouteRequest) -> tuple[Path, RouteDiagnostics | None]:
        return self._fn(request.source, request.destination), None
