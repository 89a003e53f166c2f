"""Deterministic fault injection for chaos-testing the serving stack.

A :class:`FaultInjector` wraps a :class:`~repro.service.engine.RoutingEngine`
with a *seeded* schedule of latency spikes and raised
:class:`~repro.exceptions.TransientEngineError`\\ s.  Every random decision
comes from a per-wrapper ``np.random.Generator`` derived from the injector
seed (in the style of the seeded condition grids of SNIPPETS.md Snippet 3),
so a chaos run is exactly replayable: the same seed produces the same fault
sequence, the same breaker trips, and the same shed / degraded counters — in
tests and in CI.

:meth:`FaultInjector.engine` returns a :class:`FaultyEngine` that, per call,
may sleep (latency spike) and/or raise a ``TransientEngineError`` before
delegating.  It deliberately does **not** offer the optional
``route_batch``, so a seeded schedule stays one draw per request.  The
schedule core (:class:`_Schedule`) is shared with the disk-fault wrappers of
the test suite, which wrap the ``opener=`` hook of the durability stores.

Instead of probabilities, an explicit ``script`` (sequence of action names,
cycled) pins the exact failure pattern — the breaker state-transition tests
are written against scripts.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..exceptions import TransientEngineError
from .api import RouteRequest, RouteResponse

if TYPE_CHECKING:  # pragma: no cover
    from .engine import RoutingEngine


@dataclass
class FaultCounters:
    """Mutable per-wrapper accounting (thread-safe via the wrapper lock)."""

    calls: int = 0
    injected_errors: int = 0
    injected_spikes: int = 0
    actions: list[str] = field(default_factory=list)
    """Action taken per call, in order — the replayable schedule itself."""


class FaultInjector:
    """Factory for seeded faulty wrappers sharing one experiment seed.

    Each wrapper gets its own child generator (``default_rng([seed, n])``
    where ``n`` is the wrapper index), so the fault schedule of one wrapper
    is independent of how often the others are called — concurrency between
    wrappers cannot perturb replay.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._wrappers = 0
        self._lock = threading.Lock()

    def _child_rng(self) -> np.random.Generator:
        with self._lock:
            index = self._wrappers
            self._wrappers += 1
        return np.random.default_rng([self.seed, index])

    def engine(self, engine: "RoutingEngine", **schedule) -> "FaultyEngine":
        """Wrap a routing engine with a seeded (or scripted) fault schedule;
        ``schedule`` holds :class:`FaultyEngine`'s keywords."""
        return FaultyEngine(engine, rng=self._child_rng(), **schedule)


class _Schedule:
    """One fault schedule: scripted actions, or seeded draws.

    ``faults`` lists ``(action, rate, counter field)`` in firing priority;
    ``"ok"`` is the action of a call nothing fires on.  :attr:`lock` guards
    :attr:`counters` and :attr:`rng` — for the wrappers' own sums and draws
    too.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        script: Sequence[str] | None,
        faults: Sequence[tuple[str, float, str]],
    ) -> None:
        self.rng = rng
        self.lock = threading.Lock()
        self.counters = FaultCounters()
        self._faults = tuple(faults)
        self._counter_of = {action: counter for action, _, counter in self._faults}
        self._script: "itertools.cycle[str] | None" = None
        if script is not None:
            valid = ("ok", *self._counter_of)
            unknown = sorted(set(script) - set(valid))
            if unknown:
                raise ValueError(
                    f"unknown fault-script action(s) {unknown}; valid: {valid}"
                )
            self._script = itertools.cycle(script)

    def next(self) -> str:
        """One action for this call — scripted, or the first rate that fires
        — appended to ``counters.actions`` and counted under its field.

        Exactly one uniform draw happens per configured rate per call —
        whether or not an earlier rate already fired — so the consumed
        randomness (and therefore the whole downstream schedule) depends
        only on the call index, never on prior outcomes.
        """
        with self.lock:
            counters = self.counters
            counters.calls += 1
            if self._script is not None:
                action = next(self._script)
            else:
                action = "ok"
                for name, rate, _ in self._faults:
                    draw = float(self.rng.random())
                    if action == "ok" and rate > 0.0 and draw < rate:
                        action = name
            counters.actions.append(action)
            if action != "ok":
                counter = self._counter_of[action]
                setattr(counters, counter, getattr(counters, counter) + 1)
            return action


class FaultyEngine:
    """A routing engine that injects scheduled latency spikes and errors.

    Satisfies the :class:`~repro.service.engine.RoutingEngine` protocol.
    ``network`` is forwarded from the wrapped engine (degraded-serving
    semantics must not change); the optional ``route_batch`` is *not*
    offered, so every request of a ``route_many`` is one ``route`` call and
    one draw of the schedule.
    """

    def __init__(
        self,
        engine: "RoutingEngine",
        *,
        rng: np.random.Generator,
        error_rate: float = 0.0,
        spike_rate: float = 0.0,
        spike_s: float = 0.005,
        script: Sequence[str] | None = None,
    ) -> None:
        self._schedule = _Schedule(
            rng,
            script,
            (("error", error_rate, "injected_errors"), ("slow", spike_rate, "injected_spikes")),
        )
        self.inner = engine
        self.name = engine.name
        self.spike_s = spike_s

    @property
    def counters(self) -> FaultCounters:
        return self._schedule.counters

    @property
    def network(self):
        """Forwarded so degraded responses can report the served cost
        version."""
        return getattr(self.inner, "network", None)

    def route(self, request: RouteRequest) -> RouteResponse:
        action = self._schedule.next()
        if action == "slow":
            time.sleep(self.spike_s)
        elif action == "error":
            raise TransientEngineError(
                f"injected fault in engine {self.name!r} "
                f"(call {self.counters.calls})"
            )
        return self.inner.route(request)
