"""The :class:`RoutingService` facade — one serving API over many engines.

The service owns a registry of named :class:`~repro.service.engine.RoutingEngine`
backends (the fitted L2R pipeline, the baselines, anything satisfying the
protocol) and answers a request from its LRU route cache or through **one
gate**, :meth:`RoutingService._compute`: admission slot, cache-generation
snapshot, deadline budget, circuit breaker, work, degraded serving, finish.
The generation is one counter that every event outdating cached answers
bumps — a traffic batch, a recovery, re-registering an engine — so an
answer computed before the event is never inserted after it.
:meth:`RoutingService.route` is *cache lookup, else the gate on one request*
(the work: the engine's fallback chain, e.g. L2R -> Fastest on
``NoPathError``); :meth:`RoutingService.route_many` is *cache lookup per
request, else the gate on what the engine's optional ``route_batch`` answers
together, else the gate per request*.  The service partitions, gates and
finishes; which requests share a search only the engine knows.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from contextlib import AbstractContextManager, nullcontext
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..core.router import RouteDiagnostics
from ..exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
    ServiceOverloadedError,
)
from ..network.road_network import VertexId
from .api import RouteRequest, RouteResponse
from .cache import CacheStats, RouteCache
from .engine import RoutingEngine
from .resilience import (
    AdmissionController,
    CircuitBreaker,
    DeadlineBudget,
    RetryPolicy,
    is_transient_failure,
    sleep_within,
)
from .stats import ServiceStats, StatsAccumulator

if TYPE_CHECKING:  # pragma: no cover
    from ..network.road_network import RoadNetwork
    from ..traffic.feed import TrafficFeed
    from .durability import DurabilityManager, RecoveryReport


#: Last-good answers kept for degraded serving (least recently stored out).
STALE_ROUTE_CAPACITY = 512


class RoutingService:
    """Unified serving facade over interchangeable routing engines."""

    def __init__(
        self,
        cache_size: int = 2048,
        enable_cache: bool = True,
        deadline_s: float | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker: bool = False,
        max_in_flight: int | None = None,
    ) -> None:
        """The resilience options are all off by default, preserving the
        fault-free fast path:

        * ``deadline_s`` — service-wide wall-clock budget per request
          (``RouteRequest.deadline_s`` overrides per request); the budget is
          consumed across fallback hops and retry backoff;
        * ``retry_policy`` — bounded seeded-jitter retries for transient
          engine failures (never for request errors like ``NoPathError``);
        * ``breaker`` — when ``True``, every registered engine gets its own
          :class:`CircuitBreaker`; an open breaker skips the engine, retries
          included, and goes straight to its fallback chain;
        * ``max_in_flight`` — admission control: units of work (a request, or
          one ``route_many`` kernel call) beyond this many concurrently served
          are refused at once, a request with ``ServiceOverloadedError``.

        Degraded serving is always on: when the whole chain fails on an
        engine-health error, the last known good route for the OD pair is
        served flagged ``degraded=True`` instead of a bare error."""
        self._engines: dict[str, RoutingEngine] = {}
        self._fallbacks: dict[str, str] = {}
        self._default_engine: str | None = None
        self._cache: RouteCache | None = (
            RouteCache(max_size=cache_size) if enable_cache else None
        )
        #: Bumped by whatever outdates cached answers; see :meth:`_finish`.
        self._generation = 0
        #: Per engine network, the ``cost_fell_version`` already acted on.
        self._cost_falls_seen: "weakref.WeakKeyDictionary[RoadNetwork, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._stats = StatsAccumulator()
        self._deadline_s = deadline_s
        self._retry_policy = retry_policy
        self._breakers_on = breaker
        self._breakers: dict[str, CircuitBreaker] = {}
        self._admission = (
            AdmissionController(max_in_flight) if max_in_flight is not None else None
        )
        self._stale_routes: OrderedDict[tuple, tuple[RouteResponse, int | None]] = (
            OrderedDict()
        )
        self._stale_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Registry
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        engine: RoutingEngine,
        *,
        fallback: str | None = None,
        default: bool = False,
    ) -> "RoutingService":
        """Register an engine under ``name``; returns ``self`` for chaining.

        ``fallback`` names the engine to consult when this one fails (chains
        are followed transitively); the first registered engine — or the one
        registered with ``default=True`` — becomes the default.

        Registering a name again (e.g. a refit model) replaces its engine
        and drops every cached answer, the hit and miss counters kept: an
        answer of the old engine may sit under any engine's key, reached
        through a fallback chain.  The generation bump vetoes the cache
        insert of every request still in flight on the old engine.
        """
        reregistration = name in self._engines
        # Swap before bumping: a route() that observes the bumped generation
        # is then guaranteed to have computed on the new engine.
        self._engines[name] = engine
        if reregistration:
            self._generation += 1
            self.clear_cache()
        if fallback is not None:
            self._fallbacks[name] = fallback
        if default or self._default_engine is None:
            self._default_engine = name
        if self._breakers_on and name not in self._breakers:
            self._breakers[name] = CircuitBreaker()
        return self

    def engine(self, name: str) -> RoutingEngine:
        try:
            return self._engines[name]
        except KeyError:
            raise ConfigurationError(
                f"no engine named {name!r} is registered (have: {sorted(self._engines)})"
            ) from None

    def breaker(self, name: str) -> CircuitBreaker | None:
        """The engine's circuit breaker (``None`` unless ``breaker=True``)."""
        self.engine(name)  # validates
        return self._breakers.get(name)

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def route(self, request: RouteRequest, engine: str | None = None) -> RouteResponse:
        """Answer one request with the named (or default) engine.

        Served from the route cache when possible (hits cost no engine work
        and are never shed); otherwise through the gate (:meth:`_compute`):
        shed beyond the admission limit, the engine's fallback chain within
        the deadline budget, a stale last-good route flagged
        ``degraded=True`` when the whole chain fails, else a structured
        error.  The response reports the engine that produced the path, the
        latency, and the cache-hit flag.
        """
        name = engine or self._default_engine
        if name is None:
            raise ConfigurationError("no engines registered with this RoutingService")
        self.engine(name)  # validates the name
        if self._cache is not None:
            cached = self._cache.get(name, request)
            if cached is not None:
                self._stats.record(cached)
                return cached
        return self._compute(name, (request,))[0]  # type: ignore[return-value]

    def _compute(
        self,
        name: str,
        requests: Sequence[RouteRequest],
        together: "Callable[[Sequence[RouteRequest]], list[RouteResponse | None]] | None" = None,
    ) -> list[RouteResponse | None]:
        """The one gate every computed answer passes: admission slot,
        generation snapshot, deadline budget, breaker, work, degraded
        serving, :meth:`_finish`.

        The unit of work is one engine call.  Without ``together`` that is
        one request walked down its fallback chain, and a refusal is its
        answer (shed / ``DeadlineExceededError`` / ``CircuitOpenError``).
        With ``together`` (the engine's ``route_batch``) it is one kernel
        call under one slot and one budget, the smallest effective
        ``deadline_s`` among its members; a refused call, like a member the
        engine leaves out, yields ``None`` and the caller sends that request
        through here alone — refusals are worded and counted once, per request.
        """
        admission = self._admission
        if admission is not None:
            if together is not None:
                if not admission.try_acquire():
                    return [None] * len(requests)
            else:
                try:
                    admission.acquire()
                except ServiceOverloadedError as exc:
                    # Fast reject: no engine work, no fallback walk, no caching.
                    shed = RouteResponse.from_error(requests[0], name, exc)
                    self._stats.record(shed)
                    return [shed]
        try:
            # Snapshot the generation before computing: the guard in _finish
            # rejects the insert if a live-traffic batch landed, a recovery
            # ran or an engine was re-registered while this work was in
            # flight.  Without it, a response computed with pre-update costs
            # could be inserted *after* on_traffic_update evicted the stale
            # entries, and then be replayed forever.  The veto is coarse (the
            # path may not cross a touched edge) but a missed insert only
            # costs one recompute.
            generation = self._generation
            limits = [
                r.deadline_s if r.deadline_s is not None else self._deadline_s
                for r in requests
            ]
            budget = DeadlineBudget.start(
                min((limit for limit in limits if limit is not None), default=None)
            )
            responses: list[RouteResponse | None]
            proofs = None
            if together is None and self._cache is None:
                responses = [self._route_with_fallbacks(name, requests[0], budget)]
            elif together is None:
                with self._proving(name, requests[0]) as proofs:
                    responses = [self._route_with_fallbacks(name, requests[0], budget)]
            else:
                breaker = self._breakers.get(name)
                if (budget is not None and budget.expired) or (
                    breaker is not None and not breaker.allow()
                ):
                    return [None] * len(requests)
                # Under the registry name, as in _route_with_fallbacks.
                responses = [
                    answer
                    if answer is None or answer.engine == name
                    else answer.with_request(answer.request, engine=name)
                    for answer in together(requests)
                ]
                if breaker is not None:
                    # One call, one outcome: an engine-health failure in any
                    # slot (a shard that did not answer) is the call's.
                    if any(
                        answer is not None and is_transient_failure(answer.error)
                        for answer in responses
                    ):
                        breaker.record_failure()
                    else:
                        breaker.record_success()
            for position, response in enumerate(responses):
                if response is None:
                    continue
                if not response.ok:
                    response = (
                        self._degraded_response(name, requests[position], response) or response
                    )
                responses[position] = self._finish(name, response, generation, proofs)
            return responses
        finally:
            if admission is not None:
                admission.release()

    def _proving(self, name: str, request: RouteRequest) -> AbstractContextManager:
        """Around one request's work for the cache: its collector of
        re-proofs over the engine's cost view when the engine names one
        (``cost_view``), else a context yielding ``None``."""
        cost_view = getattr(self._engines[name], "cost_view", None)
        cost = cost_view(request) if cost_view is not None else None
        return nullcontext() if cost is None else self._cache.proving(cost)  # type: ignore[union-attr]

    def _finish(
        self,
        name: str,
        response: RouteResponse,
        generation: int,
        proofs: list | None = None,
    ) -> RouteResponse:
        """The last step of the gate: cache insert under the in-flight
        guard (``generation`` is the snapshot from before computing) with
        the re-proofs collected while computing, last-good store, stats."""
        if self._cache is not None and not response.degraded:
            self._cache.put(
                name,
                response,
                guard=lambda: self._generation == generation,
                proofs=proofs,
            )
        if response.ok and not response.degraded:
            self._remember_last_good(name, response)
        self._stats.record(response)
        return response

    def route_many(
        self,
        requests: Sequence[RouteRequest] | Iterable[RouteRequest],
        engine: str | None = None,
    ) -> list[RouteResponse]:
        """Answer a batch of requests, preserving order.

        Cache hits are served first.  The rest is offered to the engine's
        optional ``route_batch`` as one unit of work through the gate
        (:meth:`_compute`); requests the engine leaves out — it shares a
        search between repeated sources only — or whose kernel call was
        refused go through the gate alone, so a batch is shed, bounded,
        failed over and degraded exactly like a ``route()`` loop (the
        searches hold the GIL: threads would not overlap them).  A failed
        request yields an error response in its slot.
        """
        batch = list(requests)
        if not batch:
            return []
        name = engine or self._default_engine
        if name is None:
            raise ConfigurationError("no engines registered with this RoutingService")
        served = self.engine(name)
        together = getattr(served, "route_batch", None)

        responses: list[RouteResponse | None] = [None] * len(batch)
        if self._cache is not None:
            for position, request in enumerate(batch):
                cached = self._cache.get(name, request)
                if cached is not None:
                    self._stats.record(cached)
                    responses[position] = cached
        pending = [position for position, response in enumerate(responses) if response is None]
        if together is not None and len(pending) > 1:
            answers = self._compute(name, [batch[position] for position in pending], together)
            for position, answer in zip(pending, answers):
                responses[position] = answer
        for position in pending:
            if responses[position] is None:
                responses[position] = self._compute(name, (batch[position],))[0]
        return responses  # type: ignore[return-value]

    def close(self) -> bool:
        """Orderly shutdown; idempotent; the service stays usable after.

        An in-process service owns no thread or process, so there is nothing
        to stop and the call returns ``True``.  ``ShardedRoutingService``
        overrides it to stop its coordinator's workers (``False`` when one
        had to be terminated); after that its requests raise
        ``ShardingError``.
        """
        return True

    def _route_with_fallbacks(
        self,
        name: str,
        request: RouteRequest,
        budget: DeadlineBudget | None = None,
    ) -> RouteResponse:
        """Run the engine, following its fallback chain on failure.

        Each hop is guarded by the resilience layer: an open circuit breaker
        skips the engine (the skip is the hop's failure), the deadline
        ``budget`` stops the walk once spent, and transient failures are
        retried per the service's :class:`RetryPolicy` before falling
        through.  Fallback names that were never registered (``register()``
        accepts forward references) are skipped rather than crashing the
        request.
        """
        chain = [name]
        current = name
        unresolved: str | None = None
        while current in self._fallbacks and self._fallbacks[current] not in chain:
            current = self._fallbacks[current]
            if current not in self._engines:
                unresolved = current
                break
            chain.append(current)

        started = time.perf_counter()
        first_failure: RouteResponse | None = None
        retries_total = 0
        deadline_hit = False
        for position, engine_name in enumerate(chain):
            if budget is not None and budget.expired:
                deadline_hit = True
                break
            # A fallback engine may already have this answer cached under its
            # own key — serve it instead of recomputing.  The latency still
            # covers the failed primary attempt(s) that got us here.
            if position > 0 and self._cache is not None:
                cached = self._cache.get(engine_name, request, probe=True)
                if cached is not None and cached.ok:
                    return cached.with_request(
                        request,
                        fallback_used=True,
                        latency_s=time.perf_counter() - started,
                        retries=retries_total,
                    )
            breaker = self._breakers.get(engine_name)
            if breaker is not None and not breaker.allow():
                # Open breaker: skip the engine without paying its failure
                # latency; the skip itself is this hop's (transient) failure.
                if first_failure is None:
                    first_failure = RouteResponse.from_error(
                        request, engine_name, breaker.open_error(engine_name)
                    )
                continue
            response, attempts = self._attempt_engine(
                engine_name, request, budget, breaker
            )
            retries_total += attempts - 1
            # Report the *registry* name: two aliases may wrap engines with
            # the same internal name (e.g. two L2R model versions), and
            # stats / cache invalidation key on what the caller registered.
            if response.engine != engine_name:
                response = response.with_request(request, engine=engine_name)
            if response.ok:
                changes: dict[str, object] = {}
                if position > 0:
                    changes["fallback_used"] = True
                if retries_total:
                    changes["retries"] = retries_total
                if changes:
                    response = response.with_request(request, **changes)
                return response
            if first_failure is None:
                first_failure = response
        # Chain exhausted: attribute the failure to the engine the caller
        # asked for — its error is the informative one for debugging.  A
        # fallback name that never got registered (typo?) is surfaced here,
        # exactly when it would have mattered.
        if deadline_hit:
            self._stats.record_deadline_exceeded()
            if first_failure is None:
                assert budget is not None
                exc = DeadlineExceededError(
                    budget.budget_s, budget.elapsed(), stage="fallback-chain"
                )
                first_failure = RouteResponse.from_error(
                    request, name, exc, latency_s=time.perf_counter() - started
                )
        assert first_failure is not None  # chain is never empty
        if retries_total and first_failure.retries != retries_total:
            first_failure = first_failure.with_request(request, retries=retries_total)
        if unresolved is not None:
            first_failure = first_failure.with_request(
                request,
                error=f"{first_failure.error} "
                f"(fallback {unresolved!r} is not registered)",
            )
        return first_failure

    def _attempt_engine(
        self,
        engine_name: str,
        request: RouteRequest,
        budget: DeadlineBudget | None,
        breaker: CircuitBreaker | None,
    ) -> tuple[RouteResponse, int]:
        """One engine's attempt(s) at a request; returns (response, attempts).

        Engines built on ``BaseEngine`` report failures on the response; the
        protocol cannot enforce that on arbitrary engines, and a raising
        engine must not abort a ``route_many`` batch — exceptions are folded
        into error responses here.  Transient failures feed the breaker and
        are retried (with budget-bounded backoff) while the breaker still
        allows calls — a failure that opens it ends the retries;
        request-level errors like ``NoPathError`` count as breaker
        *successes* — the engine is alive and answering — and are never
        retried.
        """
        policy = self._retry_policy
        attempt = 0
        while True:
            started = time.perf_counter()
            failure_exc: BaseException | None = None
            try:
                response = self._engines[engine_name].route(request)
            except ReproError as exc:
                failure_exc = exc
                response = RouteResponse.from_error(
                    request, engine_name, exc, latency_s=time.perf_counter() - started
                )
            attempt += 1
            failure: BaseException | str | None = (
                None if response.ok else (failure_exc or response.error)
            )
            if breaker is not None:
                if response.ok or not is_transient_failure(failure):
                    breaker.record_success()
                else:
                    breaker.record_failure()
            if response.ok or policy is None:
                return response, attempt
            if not policy.is_retryable(failure):
                return response, attempt
            delay = policy.delay(attempt - 1)
            if delay is None:
                return response, attempt
            if budget is not None and budget.expired:
                return response, attempt
            if not sleep_within(delay, budget):
                return response, attempt
            if breaker is not None and not breaker.allow():
                return response, attempt

    # ------------------------------------------------------------------ #
    # Degraded serving (stale-route store)
    # ------------------------------------------------------------------ #
    def _remember_last_good(self, name: str, response: RouteResponse) -> None:
        """Keep the freshest good answer per OD line for degraded serving.

        Keyed like the route cache, but traffic never evicts here: degraded
        serving *wants* the last known good answer even when it is stale,
        that is the point."""
        key = RouteCache.key_for(name, response.request)
        answering = self._engines.get(response.engine)
        network = getattr(answering, "network", None)
        version = getattr(network, "cost_version", None) if network is not None else None
        with self._stale_lock:
            self._stale_routes[key] = (response, version)
            self._stale_routes.move_to_end(key)
            while len(self._stale_routes) > STALE_ROUTE_CAPACITY:
                self._stale_routes.popitem(last=False)

    def _degraded_response(
        self, name: str, request: RouteRequest, failure: RouteResponse
    ) -> RouteResponse | None:
        """A stale-but-flagged answer for a request whose whole chain failed.

        Only *engine-health* failures degrade (timeouts, crashes, open
        breakers): a ``NoPathError`` is a correct answer about the request
        and must stay an error.  The served response carries
        ``degraded=True`` and diagnostics recording the cost version it was
        computed under; it is never re-cached.  Its work counters
        (``retries``, ``batched``) are the failing call's, not the stored
        answer's: a replay reports no work it did not do.
        """
        if not is_transient_failure(failure.error):
            return None
        with self._stale_lock:
            entry = self._stale_routes.get(RouteCache.key_for(name, request))
        if entry is None:
            return None
        stale, served_version = entry
        diagnostics = RouteDiagnostics(
            case="degraded-stale", served_cost_version=served_version
        )
        return stale.with_request(
            request,
            degraded=True,
            diagnostics=diagnostics,
            cache_hit=False,
            fallback_used=False,
            latency_s=failure.latency_s,
            retries=failure.retries,
            batched=failure.batched,
            error=None,
        )

    # ------------------------------------------------------------------ #
    # Live traffic
    # ------------------------------------------------------------------ #
    def on_traffic_update(
        self,
        touched_edges: Iterable[tuple[VertexId, VertexId]],
        cost_version: int | None = None,
    ) -> int:
        """React to a live-traffic cost update; returns routes evicted.

        Called by a :class:`~repro.traffic.TrafficFeed` subscription (wire it
        with ``TrafficFeed(network, services=[service])``).  After a batch
        that only raised costs, cached responses are invalidated
        *delta-aware*: only answers whose path crosses a touched edge are
        dropped (an increase elsewhere cannot make another path better),
        whatever the size of the batch — the cache finds them through its
        vertex index.  The whole route cache is dropped instead when a cost
        *fell* on any registered engine's network since the last call (read
        from :attr:`~repro.network.road_network.RoadNetwork.cost_fell_version`)
        — a cheaper edge can improve routes that never crossed it.  The batch
        count, touched-edge count, evictions, and the reported cost version
        all surface in :meth:`stats`.
        """
        touched = set(touched_edges)
        evicted = 0
        threshold = None
        for engine in list(self._engines.values()):
            network = getattr(engine, "network", None)
            fell = getattr(network, "cost_fell_version", 0)
            if fell and fell > self._cost_falls_seen.get(network, 0):
                self._cost_falls_seen[network] = fell
                threshold = 0  # every cached route is suspect, crossing or not
        # Bump before evicting: an in-flight route() that snapshotted the old
        # generation is then vetoed at put() time (guard under the cache
        # lock), and anything it managed to insert earlier is dropped by the
        # eviction below — either way no pre-update answer survives.
        self._generation += 1
        if self._cache is not None and touched:
            evicted = self._cache.invalidate_edges(touched, threshold=threshold)
        self._stats.record_traffic(len(touched), evicted, cost_version or 0)
        return evicted

    def recover(
        self, durability: "DurabilityManager", feed: "TrafficFeed"
    ) -> "RecoveryReport":
        """Restore the feed's network from disk after a crash, then resume.

        Runs the full durability recovery (newest snapshot + WAL replay +
        coherence verification) against ``feed``'s network, drops the route
        cache outright — every cached answer predates the restart — and
        bumps the generation so in-flight requests racing the
        recovery cannot re-insert pre-crash routes.  The feed is reused for
        replay so resolution semantics match production exactly; reattach
        the durability manager (``feed.attach_journal``) after this returns
        if it was not already attached.
        """
        report = durability.recover(feed.network, feed)
        self._generation += 1
        self.clear_cache()
        # The cache is empty, so a cost the restore lowered outdates nothing:
        # the next rise-only batch evicts only the routes it crosses.
        for engine in self._engines.values():
            network = getattr(engine, "network", None)
            fell = getattr(network, "cost_fell_version", 0)
            if fell:
                self._cost_falls_seen[network] = fell
        self._stats.record_cost_version(report.recovered_version)
        return report

    # ------------------------------------------------------------------ #
    # Monitoring
    # ------------------------------------------------------------------ #
    def stats(self) -> ServiceStats:
        """A frozen snapshot of the service counters."""
        if self._cache is not None:
            cache_stats = self._cache.stats()
        else:
            cache_stats = CacheStats(hits=0, misses=0, size=0, max_size=0)
        return self._stats.snapshot(
            cache_stats,
            shed=self._admission.shed if self._admission is not None else 0,
            breaker_trips=sum(b.trips for b in self._breakers.values()),
            breaker_states={n: b.state for n, b in self._breakers.items()},
        )

    def reset_stats(self) -> None:
        """Start a fresh monitoring window (keeps cached entries)."""
        self._stats.reset()
        if self._cache is not None:
            self._cache.reset_counters()

    def clear_cache(self) -> None:
        if self._cache is not None:
            self._cache.clear()
