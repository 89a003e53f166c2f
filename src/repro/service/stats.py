"""Serving statistics of a :class:`~repro.service.RoutingService`.

The service records every answered request into a thread-safe accumulator;
:meth:`StatsAccumulator.snapshot` freezes the counters into an immutable
:class:`ServiceStats` — request counts per engine, latency percentiles,
cache hit rate, error / fallback counts, and a histogram of the routing
diagnostics cases (how many requests were answered in-region, cross-region,
out-of-region, ...).
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field

from .api import RouteResponse
from .cache import CacheStats

#: Most recent latencies kept per ring buffer (single and batched answers).
MAX_LATENCY_SAMPLES = 10_000


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass(frozen=True)
class ServiceStats:
    """An immutable snapshot of the service's counters."""

    requests: int = 0
    errors: int = 0
    fallbacks: int = 0
    cache: CacheStats = field(default_factory=lambda: CacheStats(0, 0, 0, 0))
    requests_by_engine: dict[str, int] = field(default_factory=dict)
    case_histogram: dict[str, int] = field(default_factory=dict)
    """Routing-diagnostics case -> count (cache hits replay the cached case)."""
    latency_p50_s: float = 0.0
    """p50 over *single-request* latencies (cache hits included).  Responses
    computed by an engine's ``route_batch`` carry amortized latencies that
    would skew these percentiles, so they are tracked separately below."""
    latency_p95_s: float = 0.0
    latency_mean_s: float = 0.0
    batched_requests: int = 0
    """Requests answered by an engine's ``route_batch`` (a search shared
    with the other requests of one ``route_many`` from the same source)."""
    batched_latency_p50_s: float = 0.0
    """p50 over the amortized per-request latencies of batched answers."""
    batched_latency_p95_s: float = 0.0
    batched_latency_mean_s: float = 0.0
    traffic_updates: int = 0
    """Live-traffic update batches observed via ``on_traffic_update``."""
    traffic_touched_edges: int = 0
    """Total edges touched across all observed traffic batches."""
    traffic_evicted_routes: int = 0
    """Cached routes evicted by delta-aware traffic invalidation."""
    traffic_reproved_routes: int = 0
    """Cached routes that crossed a raised edge and were kept because their
    re-proof showed them still the reference path (``cache.reproved``)."""
    cost_version: int = 0
    """Latest network cost version reported by the traffic feed."""
    shed: int = 0
    """Requests rejected by admission control (``ServiceOverloadedError``).
    Counts requests: a ``route_many`` kernel call that finds no slot is not a
    shed — its members are then admitted, or shed and counted, one by one."""
    retries: int = 0
    """Engine attempts beyond the first, summed across served requests."""
    deadline_exceeded: int = 0
    """Requests whose deadline budget ran out mid-chain."""
    degraded_responses: int = 0
    """Responses served from the stale-route store with ``degraded=True``."""
    breaker_trips: int = 0
    """Circuit-breaker open transitions, summed over all engines."""
    breaker_states: dict[str, str] = field(default_factory=dict)
    """Engine name -> current breaker state (only engines with breakers)."""
    shards: int = 0
    """Worker shards behind a :class:`~repro.service.sharding.
    ShardedRoutingService` (0 for an in-process service)."""
    shard_requests: dict[int, int] = field(default_factory=dict)
    """Shard id -> requests dispatched to that shard's worker."""
    cross_shard_requests: int = 0
    """Requests answered through the boundary overlay (source and
    destination in different shards, or an in-shard escape path won)."""
    in_shard_requests: int = 0
    """Requests answered entirely within one shard's sub-network."""
    broadcast_lag_s: float = 0.0
    """Wall-clock seconds from the latest traffic batch landing in the
    shared segment to the last worker acknowledging its version."""
    worker_restarts: int = 0
    """Worker processes respawned by the pool after dying mid-service."""
    heartbeats_sent: int = 0
    """Ping probes sent by the coordinator's heartbeat monitor."""
    heartbeat_timeouts: int = 0
    """Probes that crossed the liveness deadline unanswered."""
    worker_resyncs: int = 0
    """Resync orders sent to workers: one per reconnect behind the current
    cost version, one per worker reached by a coordinator recovery."""

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate


class StatsAccumulator:
    """Thread-safe recorder behind :class:`ServiceStats` snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._fallbacks = 0
        self._by_engine: Counter[str] = Counter()
        self._cases: Counter[str] = Counter()
        # Ring buffers of the most recent latencies: percentiles track current
        # behaviour on a long-lived service instead of freezing at startup.
        # Batched answers carry amortized latencies and get their own buffer
        # so single-request p50/p95 stay meaningful.
        self._latencies: list[float] = []
        self._latency_seen = 0
        self._batched = 0
        self._batch_latencies: list[float] = []
        self._batch_latency_seen = 0
        self._traffic_updates = 0
        self._traffic_touched = 0
        self._traffic_evicted = 0
        self._cost_version = 0
        self._retries = 0
        self._deadline_exceeded = 0
        self._degraded = 0

    def record(self, response: RouteResponse) -> None:
        with self._lock:
            self._requests += 1
            self._by_engine[response.engine] += 1
            self._retries += response.retries
            if response.degraded:
                self._degraded += 1
            if response.error is not None:
                self._errors += 1
            # The service clears fallback_used on replays where the chain did
            # not run, so the flag counts actual fallback executions — even
            # ones answered from the fallback engine's own cache line.
            if response.fallback_used:
                self._fallbacks += 1
            if response.diagnostics is not None:
                self._cases[response.diagnostics.case] += 1
            if response.batched:
                self._batched += 1
                self._batch_latency_seen = self._push_latency(
                    self._batch_latencies, self._batch_latency_seen, response.latency_s
                )
            else:
                self._latency_seen = self._push_latency(
                    self._latencies, self._latency_seen, response.latency_s
                )

    def _push_latency(self, buffer: list[float], seen: int, value: float) -> int:
        """Append to a bounded ring buffer; returns the new seen-count."""
        if len(buffer) < MAX_LATENCY_SAMPLES:
            buffer.append(value)
        else:
            buffer[seen % MAX_LATENCY_SAMPLES] = value
        return seen + 1

    def record_deadline_exceeded(self) -> None:
        """Count one request whose deadline budget expired mid-chain."""
        with self._lock:
            self._deadline_exceeded += 1

    def record_traffic(self, touched: int, evicted: int, cost_version: int) -> None:
        """Count one applied live-traffic batch and its cache evictions."""
        with self._lock:
            self._traffic_updates += 1
            self._traffic_touched += touched
            self._traffic_evicted += evicted
            # Versions are monotonic per network; keep the newest observed
            # (feeds over different networks just report the latest bump).
            self._cost_version = max(self._cost_version, cost_version)

    def record_cost_version(self, cost_version: int) -> None:
        """Raise the newest observed cost version without counting a batch."""
        with self._lock:
            self._cost_version = max(self._cost_version, cost_version)

    def snapshot(
        self,
        cache: CacheStats,
        shed: int = 0,
        breaker_trips: int = 0,
        breaker_states: dict[str, str] | None = None,
    ) -> ServiceStats:
        """Freeze the counters; ``shed`` and the breaker fields are sampled
        by the service from its admission controller / breakers (component
        state, not window counters, so :meth:`reset` does not zero them).
        The sharding fields stay at their defaults here; a sharded service
        fills them in from its coordinator."""
        with self._lock:
            latencies = list(self._latencies)
            batch_latencies = list(self._batch_latencies)
            return ServiceStats(
                requests=self._requests,
                errors=self._errors,
                fallbacks=self._fallbacks,
                cache=cache,
                requests_by_engine=dict(self._by_engine),
                case_histogram=dict(self._cases),
                latency_p50_s=percentile(latencies, 0.50),
                latency_p95_s=percentile(latencies, 0.95),
                latency_mean_s=sum(latencies) / len(latencies) if latencies else 0.0,
                batched_requests=self._batched,
                batched_latency_p50_s=percentile(batch_latencies, 0.50),
                batched_latency_p95_s=percentile(batch_latencies, 0.95),
                batched_latency_mean_s=(
                    sum(batch_latencies) / len(batch_latencies) if batch_latencies else 0.0
                ),
                traffic_updates=self._traffic_updates,
                traffic_touched_edges=self._traffic_touched,
                traffic_evicted_routes=self._traffic_evicted,
                traffic_reproved_routes=cache.reproved,
                cost_version=self._cost_version,
                shed=shed,
                retries=self._retries,
                deadline_exceeded=self._deadline_exceeded,
                degraded_responses=self._degraded,
                breaker_trips=breaker_trips,
                breaker_states=dict(breaker_states or {}),
            )

    def reset(self) -> None:
        with self._lock:
            self._requests = 0
            self._errors = 0
            self._fallbacks = 0
            self._by_engine.clear()
            self._cases.clear()
            self._latencies.clear()
            self._latency_seen = 0
            self._batched = 0
            self._batch_latencies.clear()
            self._batch_latency_seen = 0
            self._traffic_updates = 0
            self._traffic_touched = 0
            self._traffic_evicted = 0
            self._retries = 0
            self._deadline_exceeded = 0
            self._degraded = 0
            # _cost_version is deliberately kept: it mirrors network state,
            # not a monitoring-window counter.
