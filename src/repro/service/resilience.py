"""Resilience primitives of the serving layer.

Production routing traffic is heavy-tailed: slow engines, crashing engines,
and overload are the common case at scale, not the exception.  This module
carries the four mechanisms :class:`~repro.service.RoutingService` composes
to stay up under those conditions:

* :class:`DeadlineBudget` — a per-request wall-clock budget, threaded through
  ``route`` / ``route_many`` and consumed across fallback hops and retry
  backoff sleeps, so one slow engine cannot eat the whole request;
* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *seeded* jitter (replayable in tests), applied only to retryable
  (:class:`~repro.exceptions.TransientEngineError`-shaped) failures;
* :class:`CircuitBreaker` — per-engine closed / open / half-open breaker over
  a sliding failure-rate window; an open breaker skips the engine entirely
  (retries included) so the fallback chain is consulted without paying the
  failure latency.  Its tuning is the ``BREAKER_*`` module constants;
* :class:`AdmissionController` — a bound on concurrently served requests
  that admits now or refuses now with
  :class:`~repro.exceptions.ServiceOverloadedError`, turning overload into
  cheap immediate sheds instead of queueing collapse.

All four are deliberately clock-injectable (``clock=time.monotonic`` by
default) so the chaos suite can drive state transitions deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

import numpy as np

from ..exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    ServiceOverloadedError,
    TransientEngineError,
)

Clock = Callable[[], float]


# ---------------------------------------------------------------------- #
# Deadline budgets
# ---------------------------------------------------------------------- #
class DeadlineBudget:
    """Wall-clock budget for one request, consumed across fallback hops.

    The budget starts ticking at construction; every stage of the serving
    pipeline (engine attempts, retry backoff sleeps, fallback hops) checks
    :attr:`expired` / :meth:`remaining` before spending more time.  Engines
    are cooperative — a hop that already started is not preempted — so the
    budget bounds *additional* work, which is the useful guarantee a
    GIL-bound service can actually make.
    """

    __slots__ = ("budget_s", "_started", "_deadline", "_clock")

    def __init__(self, budget_s: float, clock: Clock = time.monotonic) -> None:
        if budget_s <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget_s = float(budget_s)
        self._clock = clock
        self._started = clock()
        # Precomputed absolute deadline: `expired` is checked on every
        # fallback hop of every request, so it must be one clock read and
        # one comparison, not a property chain.
        self._deadline = self._started + self.budget_s

    @classmethod
    def start(
        cls, budget_s: float | None, clock: Clock = time.monotonic
    ) -> "DeadlineBudget | None":
        """A running budget, or ``None`` when no deadline was requested."""
        if budget_s is None:
            return None
        return cls(budget_s, clock=clock)

    def elapsed(self) -> float:
        return self._clock() - self._started

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self.budget_s - self.elapsed())

    @property
    def expired(self) -> bool:
        return self._clock() >= self._deadline


# ---------------------------------------------------------------------- #
# Retry policy
# ---------------------------------------------------------------------- #
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    Only the :class:`~repro.exceptions.TransientEngineError` family is
    retried, never request-level failures like ``NoPathError`` — retrying a
    request that deterministically has no answer only burns deadline
    budget.  Jitter is drawn from a seeded
    ``np.random.Generator`` so two policies built with the same seed produce
    identical backoff schedules (the chaos suite depends on this).
    """

    def __init__(
        self,
        max_retries: int = 2,
        base_delay_s: float = 0.005,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if base_delay_s < 0 or multiplier < 1.0 or jitter < 0:
            raise ValueError("backoff parameters must be non-negative (multiplier >= 1)")
        self.max_retries = max_retries
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()

    def delay(self, attempt: int) -> float | None:
        """Backoff before retry number ``attempt`` (0-based); ``None`` = stop.

        Draws one jitter sample per granted retry, under a lock, so the
        consumed randomness is a deterministic function of the number of
        retries granted — independent of which requests needed them.
        """
        if attempt >= self.max_retries:
            return None
        base = self.base_delay_s * (self.multiplier**attempt)
        with self._lock:
            fraction = float(self._rng.random())
        return base * (1.0 + self.jitter * fraction)

    def is_retryable(self, failure: BaseException | str | None) -> bool:
        """Whether a failure (exception or response error string) may retry.

        Engines built on ``BaseEngine`` report failures as response strings
        of the form ``"TypeName: message"`` — the type-name prefix is matched
        against the names of the :class:`TransientEngineError` family, so an
        exception and its flattened string always get the same answer.
        """
        if failure is None:
            return False
        if isinstance(failure, BaseException):
            return isinstance(failure, TransientEngineError)
        return failure.split(":", 1)[0].strip() in _TRANSIENT_ERROR_NAMES


def _transient_subclass_names() -> frozenset[str]:
    """Names of every known TransientEngineError subclass (string matching
    for failures that were flattened into response error strings)."""
    names = set()
    stack = [TransientEngineError]
    while stack:
        cls = stack.pop()
        names.add(cls.__name__)
        stack.extend(cls.__subclasses__())
    return frozenset(names)


_TRANSIENT_ERROR_NAMES = _transient_subclass_names()


def is_transient_failure(failure: BaseException | str | None) -> bool:
    """Whether a failure indicates engine ill-health (vs a request error).

    Circuit breakers only count these: a ``NoPathError`` proves the engine
    is alive and answering, so it must not open the breaker.
    """
    if failure is None:
        return False
    if isinstance(failure, BaseException):
        return isinstance(
            failure, (TransientEngineError, DeadlineExceededError, TimeoutError)
        )
    name = failure.split(":", 1)[0].strip()
    return name in _TRANSIENT_ERROR_NAMES or name in {"TimeoutError", "DeadlineExceededError"}


# ---------------------------------------------------------------------- #
# Circuit breaker
# ---------------------------------------------------------------------- #
#: Sliding window of most-recent outcomes the failure rate is computed over.
BREAKER_WINDOW = 16
#: Open when the windowed failure fraction reaches this value.
BREAKER_FAILURE_THRESHOLD = 0.5
#: Never open before this many outcomes are in the window (a single startup
#: failure must not blackhole an engine).
BREAKER_MIN_SAMPLES = 4
#: Seconds an open breaker waits before letting half-open probes through.
BREAKER_RECOVERY_S = 5.0
#: Concurrent trial requests allowed while half-open.
BREAKER_HALF_OPEN_PROBES = 1


class CircuitBreaker:
    """Closed / open / half-open breaker over a sliding failure-rate window.

    * **closed** — calls flow; outcomes land in the window
      (:data:`BREAKER_WINDOW`).  When the window holds at least
      :data:`BREAKER_MIN_SAMPLES` outcomes and the failure fraction reaches
      :data:`BREAKER_FAILURE_THRESHOLD`, the breaker *trips* open.
    * **open** — :meth:`allow` answers ``False`` (callers skip straight to
      the fallback chain) until :data:`BREAKER_RECOVERY_S` elapsed, then
      transitions to half-open.
    * **half-open** — up to :data:`BREAKER_HALF_OPEN_PROBES` concurrent trial
      calls are let through; a success closes the breaker (window reset), a
      failure re-opens it (counted as another trip).

    Thread-safe; the clock is injectable for deterministic tests.
    """

    def __init__(self, clock: Clock = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._window: deque[bool] = deque(maxlen=BREAKER_WINDOW)
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._trips = 0

    @property
    def state(self) -> str:
        """``"closed"`` / ``"open"`` / ``"half-open"`` (open may report
        half-open once the recovery period elapsed)."""
        with self._lock:
            return self._observable_state()

    def _observable_state(self) -> str:
        """State as a caller would observe it; lock held by caller."""
        if self._state == "open" and (
            self._clock() - self._opened_at >= BREAKER_RECOVERY_S
        ):
            return "half-open"
        return self._state

    @property
    def trips(self) -> int:
        """Times the breaker transitioned to open (including re-opens)."""
        with self._lock:
            return self._trips

    def allow(self) -> bool:
        """Whether a call may proceed now (may move open -> half-open)."""
        # Lock-free fast path: reading the state string is atomic under the
        # GIL, and the worst race (a concurrent trip to open) only lets one
        # already-started request through — indistinguishable from that
        # request having raced ahead of the trip.
        if self._state == "closed":
            return True
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at < BREAKER_RECOVERY_S:
                    return False
                self._state = "half-open"
                self._probes_in_flight = 0
            # half-open: admit a bounded number of concurrent probes.
            if self._probes_in_flight >= BREAKER_HALF_OPEN_PROBES:
                return False
            self._probes_in_flight += 1
            return True

    def record_success(self) -> None:
        with self._lock:
            if self._state == "half-open":
                self._state = "closed"
                self._window.clear()
                self._probes_in_flight = 0
                return
            self._window.append(True)

    def record_failure(self) -> None:
        with self._lock:
            now = self._clock()
            if self._state == "half-open":
                # The probe failed: straight back to open, another trip.
                self._state = "open"
                self._opened_at = now
                self._trips += 1
                self._probes_in_flight = 0
                return
            if self._state == "open":
                return
            self._window.append(False)
            if len(self._window) >= BREAKER_MIN_SAMPLES:
                failures = sum(1 for ok in self._window if not ok)
                if failures / len(self._window) >= BREAKER_FAILURE_THRESHOLD:
                    self._state = "open"
                    self._opened_at = now
                    self._trips += 1
                    self._window.clear()

    def open_error(self, engine: str) -> CircuitOpenError:
        """The structured error describing a skipped call."""
        return CircuitOpenError(engine, state=self.state)


# ---------------------------------------------------------------------- #
# Admission control
# ---------------------------------------------------------------------- #
class AdmissionController:
    """Bounds concurrently served requests; sheds the excess immediately.

    :meth:`acquire` admits the request now or counts a shed and raises
    :class:`ServiceOverloadedError` now — it never waits for a slot; every
    admitted request is paired with one :meth:`release`.
    """

    def __init__(self, max_in_flight: int) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.max_in_flight = max_in_flight
        self._lock = threading.Lock()
        self._in_flight = 0
        self._shed = 0

    @property
    def shed(self) -> int:
        """Requests rejected with :class:`ServiceOverloadedError`."""
        with self._lock:
            return self._shed

    def acquire(self) -> None:
        """Admit one request or count a shed and raise
        :class:`ServiceOverloadedError`."""
        if self.try_acquire():
            return
        with self._lock:
            self._shed += 1
            raise ServiceOverloadedError(self._in_flight, self.max_in_flight)

    def try_acquire(self) -> bool:
        """Take a slot if one is free now; never counts a shed (a refused
        ``route_many`` kernel call's members are admitted, or shed and
        counted, one by one)."""
        with self._lock:
            if self._in_flight >= self.max_in_flight:
                return False
            self._in_flight += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)


def sleep_within(
    delay_s: float, budget: DeadlineBudget | None, sleep: Callable[[float], None] = time.sleep
) -> bool:
    """Sleep ``delay_s`` if the budget allows it; returns whether it slept.

    The retry loop's guard: a backoff that would outlive the remaining
    deadline is skipped (returning ``False``) so the caller can fail fast
    instead of sleeping through its own deadline.
    """
    if delay_s <= 0:
        return True
    if budget is not None and budget.remaining() <= delay_s:
        return False
    sleep(delay_s)
    return True
