"""The resilience layer: deadline budgets, retries, breakers, admission,
fault injection, and the service-level chaos properties.

The chaos tests are **deterministic**: every random fault decision comes
from a seeded ``FaultInjector`` schedule (or an explicit script), so a fixed
seed produces the same breaker trips, sheds, and degraded counts on every
run — the determinism tests assert exactly that by running twice.

Properties under chaos:

* no deadlock — every call completes (joins use timeouts, and the suite
  itself would hang otherwise);
* every successful response is either computed at the current cost version
  or explicitly flagged ``degraded=True`` (checked with
  ``repro.analysis.sanitize(strict=True)`` on the non-degraded path);
* breaker state transitions match the scripted failure pattern;
* ``RoutingService.close()`` mid-batch neither deadlocks nor crashes the
  batch;
* the gate cases give the same outcomes and counters whether the engine
  runs in process or on shard workers (``ShardCoordinator.engine``).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import pytest

from repro.analysis import sanitize
from repro.baselines import FastestBaseline
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    NoPathError,
    ServiceOverloadedError,
    TransientEngineError,
)
from repro.network import grid_city_network
from repro.routing import fastest_path
from repro.service import (
    AdmissionController,
    AlgorithmEngine,
    CircuitBreaker,
    DeadlineBudget,
    FaultInjector,
    FunctionEngine,
    RetryPolicy,
    RouteRequest,
    RoutingService,
)
from repro.service import resilience
from repro.service.resilience import is_transient_failure, sleep_within
from repro.service.sharding import ShardCoordinator
from repro.traffic import TrafficFeed, TrafficUpdate

#: How a gate case is served: by an in-process engine or by shard workers,
#: through a ``route`` loop or ``route_many``.  Both deployments must give
#: the same outcomes and counters; the local cases keep their plain ids.
GATE_CASES = [
    pytest.param("local", "route", id="route"),
    pytest.param("local", "route_many", id="route_many"),
    pytest.param("sharded", "route", id="sharded-route"),
    pytest.param("sharded", "route_many", id="sharded-route_many"),
]


def _demo_network():
    """A 6x6 grid with arterials (36 vertices, deterministic)."""
    return grid_city_network(rows=6, cols=6, block_m=400.0, seed=3, name="demo")


@pytest.fixture()
def network():
    return _demo_network()


@pytest.fixture(scope="module")
def gate_coordinator():
    """One two-shard deployment of the gate cases' grid, shared by them all
    (booting the worker processes takes about a second)."""
    with ShardCoordinator(grid_city_network(12, 12, seed=1), shard_count=2) as coordinator:
        yield coordinator


def tune_breaker(monkeypatch, **values):
    """Set ``BREAKER_<NAME>`` constants for the breakers this test builds."""
    for name, value in values.items():
        monkeypatch.setattr(resilience, f"BREAKER_{name.upper()}", value)


def _engine(network, name="engine"):
    return FunctionEngine(network, lambda s, d: fastest_path(network, s, d), name=name)


def _no_path_engine(network, name="nopath"):
    def fail(source, destination):
        raise NoPathError(source, destination)

    return FunctionEngine(network, fail, name=name)


@contextmanager
def _slot_held(service):
    """Hold the service's only admission slot for the ``with`` body: a
    request on another thread, to an engine blocked on an event until the
    body exits (it then completes and frees the slot)."""
    network = _demo_network()
    entered, release = threading.Event(), threading.Event()

    def blocked(source, destination):
        entered.set()
        release.wait(10.0)
        return fastest_path(network, source, destination)

    service.register("blocked", FunctionEngine(network, blocked, name="blocked"))
    holder = threading.Thread(target=service.route, args=(RouteRequest(0, 20), "blocked"))
    holder.start()
    try:
        assert entered.wait(10.0)
        yield
    finally:
        release.set()
        holder.join(10.0)
    assert not holder.is_alive()


# ---------------------------------------------------------------------- #
# DeadlineBudget
# ---------------------------------------------------------------------- #
class TestDeadlineBudget:
    def test_consumes_with_injected_clock(self):
        now = [0.0]
        budget = DeadlineBudget(1.0, clock=lambda: now[0])
        assert budget.remaining() == 1.0 and not budget.expired
        now[0] = 0.6
        assert budget.remaining() == pytest.approx(0.4)
        now[0] = 1.2
        assert budget.expired and budget.remaining() == 0.0
        assert budget.elapsed() == pytest.approx(1.2)

    def test_start_none_means_no_deadline(self):
        assert DeadlineBudget.start(None) is None
        assert DeadlineBudget.start(0.5).budget_s == 0.5

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            DeadlineBudget(0.0)

    def test_sleep_within_skips_oversized_backoff(self):
        now = [0.0]
        budget = DeadlineBudget(0.010, clock=lambda: now[0])
        slept: list[float] = []
        assert sleep_within(0.005, budget, sleep=slept.append)
        assert slept == [0.005]
        now[0] = 0.008  # 2ms left: a 5ms backoff must be skipped
        assert not sleep_within(0.005, budget, sleep=slept.append)
        assert slept == [0.005]


# ---------------------------------------------------------------------- #
# RetryPolicy
# ---------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_same_seed_same_backoff_schedule(self):
        a = RetryPolicy(max_retries=3, base_delay_s=0.01, seed=11)
        b = RetryPolicy(max_retries=3, base_delay_s=0.01, seed=11)
        assert [a.delay(i) for i in range(3)] == [b.delay(i) for i in range(3)]

    def test_stops_after_max_retries(self):
        policy = RetryPolicy(max_retries=1)
        assert policy.delay(0) is not None
        assert policy.delay(1) is None

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_retries=3, base_delay_s=0.01, multiplier=2.0, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.01)
        assert policy.delay(1) == pytest.approx(0.02)
        assert policy.delay(2) == pytest.approx(0.04)

    def test_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientEngineError("boom"))
        assert policy.is_retryable("TransientEngineError: boom")
        assert policy.is_retryable("CircuitOpenError: engine 'x' breaker open")
        assert not policy.is_retryable(NoPathError(0, 1))
        assert not policy.is_retryable("NoPathError: no path")
        assert not policy.is_retryable(None)
        # A failure and its flattened response string always agree.
        for failure in (
            TransientEngineError("boom"),
            CircuitOpenError("x"),
            NoPathError(0, 1),
            DeadlineExceededError(1.0, 2.0),
            ServiceOverloadedError(1, 1),
        ):
            flattened = f"{type(failure).__name__}: {failure}"
            assert policy.is_retryable(failure) == policy.is_retryable(flattened)

    def test_transient_failure_classification(self):
        assert is_transient_failure(TransientEngineError("x"))
        assert is_transient_failure(DeadlineExceededError(1.0, 2.0))
        assert is_transient_failure("DeadlineExceededError: over budget")
        assert not is_transient_failure("NoPathError: nope")
        assert not is_transient_failure(None)


# ---------------------------------------------------------------------- #
# CircuitBreaker
# ---------------------------------------------------------------------- #
class TestCircuitBreaker:
    @pytest.fixture(autouse=True)
    def _tuning(self, monkeypatch):
        tune_breaker(monkeypatch, window=8, min_samples=2, recovery_s=10.0)

    def _breaker(self):
        now = [0.0]
        return CircuitBreaker(clock=lambda: now[0]), now

    def test_trips_open_after_failure_rate(self):
        breaker, _ = self._breaker()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"  # min_samples guard
        breaker.record_failure()
        assert breaker.state == "open" and breaker.trips == 1
        assert not breaker.allow()

    def test_successes_keep_it_closed(self):
        breaker, _ = self._breaker()
        for _ in range(10):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        breaker, now = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 11.0  # past recovery_s
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # probes are bounded (half_open_probes=1)
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()
        assert breaker.trips == 1

    def test_half_open_probe_failure_reopens(self):
        breaker, now = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 11.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.trips == 2
        assert not breaker.allow()

    def test_open_error_is_transient(self):
        breaker, _ = self._breaker()
        error = breaker.open_error("primary")
        assert isinstance(error, CircuitOpenError)
        assert is_transient_failure(error)


# ---------------------------------------------------------------------- #
# AdmissionController
# ---------------------------------------------------------------------- #
class TestAdmissionController:
    def test_sheds_beyond_limit(self):
        controller = AdmissionController(max_in_flight=2)
        controller.acquire()
        controller.acquire()
        with pytest.raises(ServiceOverloadedError):
            controller.acquire()
        assert controller.shed == 1 and not controller.try_acquire()  # a probe sheds nothing
        controller.release()
        controller.acquire()  # a freed slot admits again
        assert controller.shed == 1 and not controller.try_acquire()
        controller.release()
        assert controller.try_acquire()


# ---------------------------------------------------------------------- #
# FaultInjector
# ---------------------------------------------------------------------- #
class TestFaultInjector:
    def _schedule(self, seed, calls=40):
        injector = FaultInjector(seed=seed)
        network = _demo_network()
        faulty = injector.engine(_engine(network), error_rate=0.3, spike_rate=0.2, spike_s=0.0)
        for _ in range(calls):
            try:
                faulty.route(RouteRequest(0, 20))
            except TransientEngineError:
                pass
        return list(faulty.counters.actions)

    def test_same_seed_same_schedule(self):
        assert self._schedule(7) == self._schedule(7)

    def test_different_seed_different_schedule(self):
        assert self._schedule(7) != self._schedule(8)

    def test_script_cycles_exactly(self, network):
        injector = FaultInjector(seed=0)
        faulty = injector.engine(_engine(network), script=["ok", "error", "slow"], spike_s=0.0)
        observed = []
        for _ in range(6):
            try:
                faulty.route(RouteRequest(0, 20))
                observed.append("served")
            except TransientEngineError:
                observed.append("raised")
        assert observed == ["served", "raised", "served"] * 2
        assert faulty.counters.actions == ["ok", "error", "slow"] * 2
        assert faulty.counters.injected_errors == 2
        assert faulty.counters.injected_spikes == 2

    def test_rejects_unknown_script_action(self, network):
        with pytest.raises(ValueError):
            FaultInjector(seed=0).engine(_engine(network), script=["explode"])


# ---------------------------------------------------------------------- #
# Service-level resilience
# ---------------------------------------------------------------------- #
class TestServiceResilience:
    def test_retry_recovers_transient_failure(self, network):
        injector = FaultInjector(seed=0)
        flaky = injector.engine(_engine(network), script=["error", "ok"])
        service = RoutingService(
            retry_policy=RetryPolicy(max_retries=1, base_delay_s=0.0, seed=0),
            enable_cache=False,
        )
        service.register("flaky", flaky)
        response = service.route(RouteRequest(0, 20))
        assert response.ok and not response.fallback_used
        assert response.retries == 1
        assert service.stats().retries == 1

    def test_scripted_breaker_transitions(self, network, monkeypatch):
        tune_breaker(monkeypatch, window=4, min_samples=2, recovery_s=60.0)
        injector = FaultInjector(seed=0)
        faulty = injector.engine(_engine(network), script=["error"])
        service = RoutingService(breaker=True, enable_cache=False)
        service.register("primary", faulty, fallback="backup", default=True)
        service.register("backup", _engine(network, "backup"))

        for _ in range(2):  # two scripted failures trip the breaker
            assert service.route(RouteRequest(0, 20)).fallback_used
        assert service.breaker("primary").state == "open"
        assert service.stats().breaker_trips == 1

        calls_when_open = faulty.counters.calls
        response = service.route(RouteRequest(0, 21))
        assert response.ok and response.fallback_used
        assert faulty.counters.calls == calls_when_open  # skipped, not called
        assert service.stats().breaker_states == {
            "primary": "open",
            "backup": "closed",
        }

    def test_breaker_half_open_recovery_through_service(self, network, monkeypatch):
        tune_breaker(monkeypatch, window=4, min_samples=2, recovery_s=0.0)
        injector = FaultInjector(seed=0)
        flaky = injector.engine(_engine(network), script=["error", "error", "ok"])
        service = RoutingService(breaker=True, enable_cache=False)
        service.register("flaky", flaky, fallback="backup", default=True)
        service.register("backup", _engine(network, "backup"))
        service.route(RouteRequest(0, 20))
        service.route(RouteRequest(0, 21))
        assert service.breaker("flaky").trips == 1
        # recovery_s=0: the next call is the half-open probe; script says ok.
        response = service.route(RouteRequest(0, 22))
        assert response.ok and not response.fallback_used
        assert service.breaker("flaky").state == "closed"

    def test_retries_stop_once_the_breaker_opens(self, network):
        # Default breaker: the fourth consecutive failure trips it, which is
        # the second request's first attempt — an open breaker skips the
        # engine, so that request's retries must not call it again.
        flaky = FaultInjector(seed=0).engine(_engine(network), script=["error"])
        service = RoutingService(
            breaker=True,
            retry_policy=RetryPolicy(max_retries=2, base_delay_s=0.0, seed=0),
            enable_cache=False,
        )
        service.register("flaky", flaky)
        calls = []
        for _ in range(3):
            before = flaky.counters.calls
            assert not service.route(RouteRequest(0, 20)).ok
            calls.append(flaky.counters.calls - before)
        assert calls == [3, 1, 0]
        assert service.breaker("flaky").state == "open"

    def test_no_path_error_does_not_trip_breaker_or_degrade(self, network, monkeypatch):
        tune_breaker(monkeypatch, min_samples=1, failure_threshold=0.1)
        service = RoutingService(breaker=True, enable_cache=False)
        service.register("nopath", _no_path_engine(network))
        for _ in range(5):
            response = service.route(RouteRequest(0, 20))
            assert not response.ok and not response.degraded
            assert "NoPathError" in response.error
        assert service.breaker("nopath").state == "closed"
        assert service.stats().breaker_trips == 0
        assert service.stats().degraded_responses == 0

    def test_degraded_serving_flags_stale_route(self, network):
        injector = FaultInjector(seed=0)
        flaky = injector.engine(_engine(network), script=["ok", "error"])
        service = RoutingService(enable_cache=False)
        service.register("flaky", flaky)
        fresh = service.route(RouteRequest(0, 20))
        assert fresh.ok and not fresh.degraded

        degraded = service.route(RouteRequest(0, 20))
        assert degraded.ok and degraded.degraded
        assert degraded.path == fresh.path
        assert degraded.diagnostics.case == "degraded-stale"
        assert degraded.diagnostics.served_cost_version == network.cost_version
        assert service.stats().degraded_responses == 1

    @pytest.mark.parametrize("first_served_by", ["route_many", "route"])
    def test_degraded_serving_remembers_batched_answers_too(self, first_served_by):
        """What an outage degrades to must not depend on which method
        happened to serve the OD pair first."""
        grid = grid_city_network(8, 8, seed=1)
        engine = AlgorithmEngine(FastestBaseline(grid), name="Fastest")
        service = RoutingService(enable_cache=False)
        service.register("Fastest", engine)
        requests = [RouteRequest(0, destination) for destination in range(40, 52)]
        if first_served_by == "route_many":
            fresh = service.route_many(requests, "Fastest")
            assert all(response.batched for response in fresh)
        else:
            fresh = [service.route(request, "Fastest") for request in requests]
        assert all(response.ok for response in fresh)

        service.register("Fastest", FaultInjector(0).engine(engine, script=["error"]))
        outage = [service.route(request, "Fastest") for request in requests]
        assert [response.degraded for response in outage] == [True] * len(requests)
        assert [response.path for response in outage] == [response.path for response in fresh]

    def test_degraded_response_is_never_recached(self, network):
        injector = FaultInjector(seed=0)
        flaky = injector.engine(_engine(network), script=["ok", "error", "error"])
        service = RoutingService(enable_cache=True)
        service.register("flaky", flaky)
        service.route(RouteRequest(0, 20))
        service.clear_cache()  # force the degraded path on the next call
        first = service.route(RouteRequest(0, 20))
        assert first.degraded
        second = service.route(RouteRequest(0, 20))
        assert second.degraded and not second.cache_hit  # not replayed as fresh

    def test_no_stale_store_hit_without_transient_failure(self, network):
        service = RoutingService(enable_cache=False)
        service.register("good", _engine(network), default=True)
        service.register("nopath", _no_path_engine(network))
        service.route(RouteRequest(0, 20))  # primes the stale store for "good"
        response = service.route(RouteRequest(0, 20), engine="nopath")
        assert not response.ok and not response.degraded

    def test_deadline_expiry_yields_structured_error(self, network):
        service = RoutingService(enable_cache=False)
        service.register("slow", _engine(network))
        response = service.route(RouteRequest(0, 20, deadline_s=1e-12))
        assert not response.ok
        assert "DeadlineExceededError" in response.error
        assert service.stats().deadline_exceeded == 1

    def test_deadline_expiry_serves_degraded_when_primed(self, network):
        service = RoutingService(enable_cache=False)
        service.register("engine", _engine(network))
        primed = service.route(RouteRequest(0, 20))
        assert primed.ok
        response = service.route(RouteRequest(0, 20, deadline_s=1e-12))
        assert response.ok and response.degraded

    def test_admission_shed_is_counted_and_recovers(self, network):
        service = RoutingService(enable_cache=False, max_in_flight=1)
        service.register("engine", _engine(network))
        with _slot_held(service):
            response = service.route(RouteRequest(0, 20))
            assert not response.ok
            assert "ServiceOverloadedError" in response.error
        assert service.stats().shed == 1
        assert service.route(RouteRequest(0, 20)).ok  # slot freed, serves again

    def test_cache_hits_bypass_admission(self, network):
        service = RoutingService(enable_cache=True, max_in_flight=1)
        service.register("engine", _engine(network))
        warm = service.route(RouteRequest(0, 20))
        assert warm.ok
        with _slot_held(service):
            hit = service.route(RouteRequest(0, 20))
            assert hit.ok and hit.cache_hit  # no engine work -> always served
            miss = service.route(RouteRequest(0, 21))
            assert "ServiceOverloadedError" in miss.error
        assert service.stats().shed == 1

    # -- one gate: a batch is admitted, bounded and broken like a request -- #
    @staticmethod
    def _gated(fixtures, deployment, via, **options):
        """16 requests from one source (one shared search if batched) and a
        way to serve them; the same refusals must come out of either, on
        either deployment."""
        service = RoutingService(enable_cache=False, **options)
        if deployment == "sharded":
            engine = fixtures.getfixturevalue("gate_coordinator").engine("Fastest")
        else:
            engine = AlgorithmEngine(FastestBaseline(grid_city_network(12, 12, seed=1)), name="Fastest")
        service.register("Fastest", engine)
        requests = [RouteRequest(0, destination) for destination in range(100, 116)]

        def serve():
            if via == "route_many":
                return service.route_many(requests, "Fastest")
            return [service.route(request, "Fastest") for request in requests]

        return service, serve

    @pytest.mark.parametrize("deployment, via", GATE_CASES)
    def test_gate_spent_deadline_fails_every_member(self, request, deployment, via):
        service, serve = self._gated(request, deployment, via, deadline_s=1e-9)
        responses = serve()
        assert ["DeadlineExceededError" in (r.error or "") for r in responses] == [True] * 16
        stats = service.stats()
        assert stats.deadline_exceeded == 16 and stats.requests == 16
        assert stats.batched_requests == 0

    @pytest.mark.parametrize("deployment, via", GATE_CASES)
    def test_gate_held_slot_sheds_every_member(self, request, deployment, via):
        service, serve = self._gated(request, deployment, via, max_in_flight=1)
        with _slot_held(service):
            responses = serve()
            held = service.stats()  # the holder's own request is not counted yet
        assert ["ServiceOverloadedError" in (r.error or "") for r in responses] == [True] * 16
        # shed counts requests: the kernel call that found no slot is not one.
        assert held.shed == 16 and held.requests == 16
        for _ in range(2):  # slot freed, serves again: no call leaks its slot
            served = serve()
            assert all(r.ok and r.batched == (via == "route_many") for r in served)
            assert [r.path.vertices[-1] for r in served] == list(range(100, 116))
        assert service.stats().shed == 16
        assert service.stats().batched_requests == (32 if via == "route_many" else 0)
        assert service.stats().errors == 16

    @pytest.mark.parametrize("fallback", [None, "backup"])
    @pytest.mark.parametrize("deployment, via", GATE_CASES)
    def test_gate_open_breaker_skips_the_engine(
        self, request, monkeypatch, deployment, via, fallback
    ):
        tune_breaker(monkeypatch, min_samples=1, failure_threshold=0.1, recovery_s=60.0)
        service, serve = self._gated(request, deployment, via, breaker=True)
        if fallback is not None:
            backup = _engine(service.engine("Fastest").network, "backup")
            service.register("backup", backup)
            service.register("Fastest", service.engine("Fastest"), fallback="backup")
        service.breaker("Fastest").record_failure()
        assert service.breaker("Fastest").state == "open"
        responses = serve()
        if fallback is None:
            assert ["CircuitOpenError" in (r.error or "") for r in responses] == [True] * 16
        else:
            assert all(r.ok and r.fallback_used and r.engine == "backup" for r in responses)
        assert service.stats().batched_requests == 0
        assert service.breaker("Fastest").state == "open"

    def test_sanitize_strict_clean_on_non_degraded_path(self, network):
        service = RoutingService(enable_cache=True)
        service.register("engine", _engine(network))
        feed = TrafficFeed(network, services=[service])
        with sanitize(strict=True) as sanitizer:
            for destination in (20, 21, 22):
                assert service.route(RouteRequest(0, destination)).ok
            feed.apply([TrafficUpdate.scale_by(0, 1, travel_time_s=3.0)])
            for destination in (20, 21, 22):
                response = service.route(RouteRequest(0, destination))
                assert response.ok and not response.degraded
        assert sanitizer.findings == []

    def test_chaos_run_is_deterministic(self, network, monkeypatch):
        tune_breaker(monkeypatch, window=4, min_samples=2, recovery_s=60.0)

        def run(seed: int):
            injector = FaultInjector(seed=seed)
            flaky = injector.engine(_engine(network), error_rate=0.4)
            service = RoutingService(
                breaker=True,
                retry_policy=RetryPolicy(max_retries=1, base_delay_s=0.0, seed=seed),
                enable_cache=False,
            )
            service.register("flaky", flaky, fallback="backup", default=True)
            service.register("backup", _engine(network, "backup"))
            outcomes = []
            for i in range(30):
                response = service.route(RouteRequest(0, 20 + (i % 5)))
                outcomes.append(
                    (response.ok, response.fallback_used, response.degraded,
                     response.retries)
                )
            stats = service.stats()
            return (
                outcomes,
                list(flaky.counters.actions),
                stats.breaker_trips,
                stats.degraded_responses,
                stats.retries,
                stats.fallbacks,
            )

        assert run(7) == run(7)

    def test_close_mid_batch_does_not_deadlock(self, network):
        service = RoutingService(enable_cache=False)
        service.register("engine", _engine(network))
        requests = [RouteRequest(i % 30, (i * 7) % 30) for i in range(200)]
        results: list = []

        def batch():
            results.append(service.route_many(requests))

        worker = threading.Thread(target=batch)
        worker.start()
        closed = service.close()
        worker.join(timeout=30.0)
        assert not worker.is_alive(), "route_many deadlocked against close()"
        assert len(results) == 1 and len(results[0]) == len(requests)
        assert closed  # nothing to stop in-process
        # The service stays usable after close().
        assert service.route(RouteRequest(0, 20)).ok

    def test_route_many_under_chaos_answers_every_slot(self, network):
        injector = FaultInjector(seed=13)
        flaky = injector.engine(_engine(network), error_rate=0.3)
        service = RoutingService(
            retry_policy=RetryPolicy(max_retries=1, base_delay_s=0.0, seed=13),
            enable_cache=False,
        )
        service.register("flaky", flaky, fallback="backup", default=True)
        service.register("backup", _engine(network, "backup"))
        requests = [RouteRequest(i % 30, (i * 3 + 1) % 30) for i in range(40)]
        responses = service.route_many(requests)
        assert len(responses) == len(requests)
        for response in responses:
            assert response is not None
            assert response.ok or response.degraded or response.error
