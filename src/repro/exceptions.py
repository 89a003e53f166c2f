"""Exception hierarchy for the L2R reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class NetworkError(ReproError):
    """Problems with a road network (missing vertices, malformed edges...)."""


class VertexNotFoundError(NetworkError):
    """A vertex id was referenced that does not exist in the road network."""

    def __init__(self, vertex_id: object) -> None:
        super().__init__(f"vertex {vertex_id!r} is not part of the road network")
        self.vertex_id = vertex_id


class EdgeNotFoundError(NetworkError):
    """An edge was referenced that does not exist in the road network."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"edge ({source!r}, {target!r}) is not part of the road network")
        self.source = source
        self.target = target


class NoPathError(ReproError):
    """No path could be found between the requested source and destination."""

    def __init__(self, source: object, destination: object, reason: str = "") -> None:
        message = f"no path from {source!r} to {destination!r}"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)
        self.source = source
        self.destination = destination


class StaleHierarchyError(ReproError):
    """A contraction hierarchy was queried after its network changed.

    CH shortcut weights are frozen at build time; answering from a stale
    hierarchy would silently return pre-update (e.g. pre-traffic) routes.
    """

    def __init__(self, built_version: int, current_version: int) -> None:
        super().__init__(
            f"contraction hierarchy was built at network version {built_version} "
            f"but the network is now at version {current_version}; rebuild it "
            "(or query with on_stale='rebuild' / 'ignore')"
        )
        self.built_version = built_version
        self.current_version = current_version


class TransientEngineError(ReproError):
    """A routing engine failed in a way that may succeed on retry.

    The canonical *retryable* failure: injected faults, flaky downstream
    calls, transient resource exhaustion.  Request-level failures
    (:class:`NoPathError`, :class:`VertexNotFoundError`) are deliberately
    *not* transient — retrying them wastes budget and they do not indicate
    engine ill-health to a circuit breaker.
    """


class DeadlineExceededError(ReproError):
    """A request's wall-clock deadline budget ran out before an answer.

    Raised (or reported on the response) by the service's resilience layer
    when the remaining :class:`~repro.service.resilience.DeadlineBudget`
    reaches zero while walking the engine fallback chain.
    """

    def __init__(self, budget_s: float, elapsed_s: float, stage: str = "") -> None:
        message = (
            f"deadline budget of {budget_s:.3f}s exhausted after {elapsed_s:.3f}s"
        )
        if stage:
            message = f"{message} ({stage})"
        super().__init__(message)
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s


class CircuitOpenError(TransientEngineError):
    """An engine's circuit breaker is open; the call was never attempted.

    Transient by construction: the breaker will transition to half-open
    after its recovery period and the engine may answer again.
    """

    def __init__(self, engine: str, state: str = "open") -> None:
        super().__init__(
            f"circuit breaker for engine {engine!r} is {state}; skipping the call"
        )
        self.engine = engine
        self.state = state


class ServiceOverloadedError(ReproError):
    """The service shed this request: too many already in flight.

    The admission controller's fast-reject path — raised before any engine
    work happens so overload turns into cheap, immediate errors instead of
    queueing collapse.
    """

    def __init__(self, in_flight: int, max_in_flight: int) -> None:
        super().__init__(
            f"service overloaded: {in_flight} requests in flight "
            f"(limit {max_in_flight}); request shed"
        )
        self.in_flight = in_flight
        self.max_in_flight = max_in_flight


class ShardingError(ReproError):
    """Problems in the sharded serving layer (worker boot, transport, pool
    lifecycle).  Worker *request* failures are reported on responses, not
    raised; this covers infrastructure faults the coordinator cannot map to
    a single request."""


class TrajectoryError(ReproError):
    """Problems with trajectory data (too few records, unmatched points...)."""


class MapMatchingError(TrajectoryError):
    """The map matcher could not align a trajectory with the road network."""


class ClusteringError(ReproError):
    """The region clustering could not be performed."""


class RegionGraphError(ReproError):
    """Problems while building or querying the region graph."""


class PreferenceError(ReproError):
    """Problems in preference learning, transfer, or application."""


class TransferError(PreferenceError):
    """The transduction-based preference transfer failed."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class NotFittedError(ReproError):
    """A pipeline method requiring a fitted model was called before ``fit``."""

    def __init__(self, what: str = "model") -> None:
        super().__init__(
            f"this {what} has not been fitted yet; call fit() with a road network "
            "and a trajectory set before routing"
        )
