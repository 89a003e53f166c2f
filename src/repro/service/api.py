"""Typed request / response objects of the routing service.

A :class:`RouteRequest` describes one (source, destination) query together
with the optional context a production routing service accepts: a departure
time, the requesting driver, a per-request cost override, and a caller-chosen
request id for correlation.  A :class:`RouteResponse` is the service's answer:
the recommended path, routing diagnostics, the engine that produced it, the
observed latency, whether the answer came from the route cache, and — for
partial-batch failures — the error that prevented an answer.

Both objects are immutable so they can be shared freely between the service's
worker threads, cached, and logged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..core.router import RouteDiagnostics
from ..network.road_network import VertexId
from ..routing.costs import CostFeature
from ..routing.path import Path


@dataclass(frozen=True)
class RouteRequest:
    """One routing query as accepted by :class:`~repro.service.RoutingService`."""

    source: VertexId
    destination: VertexId
    departure_time: float | None = None
    """Requested departure time (seconds of day).  Recorded, not used: no
    engine selects its path by it, but the value is always echoed back on the
    response via :attr:`RouteResponse.request`."""
    driver_id: int | None = None
    """Driver identity, used by the personalized engines (Dom, TRIP)."""
    cost_override: CostFeature | None = None
    """Per-request preference override: when set, the engine answers with the
    single-cost optimal path for this feature instead of its own policy."""
    request_id: str | None = None
    """Caller-chosen correlation id, echoed back unchanged."""
    deadline_s: float | None = None
    """Per-request wall-clock budget (seconds).  The service threads a
    :class:`~repro.service.resilience.DeadlineBudget` through the fallback
    chain and retry backoff: once the budget is spent, remaining engines are
    skipped and the request degrades (stale cached route, flagged) or fails
    with ``DeadlineExceededError``.  ``None`` defers to the service-level
    default (``RoutingService(deadline_s=...)``); both ``None`` means no
    deadline."""


@dataclass(frozen=True)
class RouteResponse:
    """The service's answer to one :class:`RouteRequest`."""

    request: RouteRequest
    """The originating request (including the requested departure time)."""
    path: Path | None
    """The recommended path, or ``None`` when the request failed."""
    engine: str
    """Name of the engine that produced the answer (after any fallback).
    Responses served through a :class:`~repro.service.RoutingService` carry
    the *registry* name the answering engine was registered under."""
    diagnostics: RouteDiagnostics | None = None
    latency_s: float = 0.0
    """Wall-clock time spent answering (near zero on cache hits)."""
    cache_hit: bool = False
    fallback_used: bool = False
    """True when the answer came from a fallback engine, not the one asked."""
    batched: bool = False
    """True when the answer was computed by the engine's ``route_batch``
    (one search shared with the other requests of a ``route_many`` that have
    the same source) rather than a single-request engine invocation.
    ``latency_s`` is then the kernel call's wall-clock time amortized over
    the requests it answered, and the service accounts it separately (see
    ``ServiceStats``)."""
    degraded: bool = False
    """True when every live engine failed (timeout, crash, open breaker)
    within the request's budget and the service served a **stale cached
    route** instead of an error.  The path may predate live-traffic cost
    updates; ``diagnostics.served_cost_version`` records the network cost
    version the answer was computed under.  Degraded responses are never
    re-cached."""
    retries: int = 0
    """Engine attempts beyond the first across the whole fallback chain
    (the resilience layer's bounded-retry accounting for this request)."""
    error: str | None = None
    """Error description for failed requests (``path`` is ``None`` then)."""

    @property
    def ok(self) -> bool:
        """True when the request was answered with a path."""
        return self.path is not None and self.error is None

    @classmethod
    def from_error(
        cls,
        request: RouteRequest,
        engine: str,
        exc: BaseException,
        latency_s: float = 0.0,
    ) -> "RouteResponse":
        """The canonical failure response for an exception-reported error."""
        return cls(
            request=request,
            path=None,
            engine=engine,
            latency_s=latency_s,
            error=f"{type(exc).__name__}: {exc}",
        )

    def with_request(self, request: RouteRequest, **changes: object) -> "RouteResponse":
        """A copy of this response bound to another request (cache replays).

        Equal to ``dataclasses.replace(self, request=request, **changes)``,
        and an unknown field name raises ``TypeError`` as there, but built
        as one shallow copy: every cache hit pays for it, and ``replace``
        walks the fields and reruns the frozen ``__init__``.  The copy takes
        this object's instance ``__dict__`` and writes the changed fields
        in, so it runs no ``__init__`` — correct only while the class has no
        ``__post_init__`` (or other work in ``__init__``) to skip.
        """
        if not _RESPONSE_FIELDS.issuperset(changes):
            unknown = sorted(set(changes) - _RESPONSE_FIELDS)
            raise TypeError(f"RouteResponse has no field(s) {unknown}")
        copy = object.__new__(type(self))
        state = copy.__dict__
        state.update(self.__dict__)
        state.update(changes)
        state["request"] = request
        return copy


_RESPONSE_FIELDS = frozenset(field.name for field in fields(RouteResponse))
