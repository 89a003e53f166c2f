"""A thread-safe LRU cache for served routes.

Answers are keyed by ``(engine, source, destination, peak bucket, driver,
cost override)``: the peak bucket folds departure times into ``"peak"`` /
``"offpeak"`` (or ``"any"`` when no time was given) so that a time-dependent
engine's peak and off-peak answers never shadow each other, while all
departure times inside one bucket share a single cache line — exactly the
granularity at which the L2R region graphs differ.  Driver id and cost
override are part of the key so personalized answers are never replayed to
the wrong caller.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Collection

from ..core.config import PeakHours
from .api import RouteRequest, RouteResponse

CacheKey = tuple[object, ...]


@dataclass(frozen=True)
class CacheStats:
    """Counters of one :class:`RouteCache` (snapshot)."""

    hits: int
    misses: int
    size: int
    max_size: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class RouteCache:
    """LRU cache of successful :class:`RouteResponse` objects."""

    def __init__(self, max_size: int = 2048, peak_hours: PeakHours | None = None) -> None:
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        self._max_size = max_size
        self._peak_hours = peak_hours or PeakHours()
        self._entries: OrderedDict[CacheKey, RouteResponse] = OrderedDict()
        self._time_dependent: set[str] = set()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------ #
    @property
    def peak_hours(self) -> PeakHours:
        return self._peak_hours

    def set_peak_hours(self, peak_hours: PeakHours) -> None:
        """Re-bucket with different peak windows (drops all cached entries,
        since existing keys were derived under the old bucketing)."""
        with self._lock:
            self._peak_hours = peak_hours
            self._entries.clear()

    def mark_time_dependent(self, engine: str, enabled: bool = True) -> None:
        """Declare that an engine's answers depend on the peak bucket.

        Static engines (the default) share one ``"any"`` bucket regardless of
        departure time — their answer is the same, so splitting it across
        peak / off-peak lines would only waste capacity and depress hits.
        """
        with self._lock:
            if enabled:
                self._time_dependent.add(engine)
            else:
                self._time_dependent.discard(engine)

    def _bucket(self, engine: str, request: RouteRequest) -> str:
        """Peak bucket derivation; the caller must hold the lock."""
        if engine not in self._time_dependent or request.departure_time is None:
            return "any"
        if self._peak_hours.is_peak(request.departure_time):
            return "peak"
        return "offpeak"

    def _key(
        self, engine: str, request: RouteRequest, version: object = None
    ) -> CacheKey:
        """Key derivation; the caller must hold the lock (peak windows can
        be swapped concurrently by :meth:`set_peak_hours`).

        ``version`` is the engine's optional ``cache_version`` tag (e.g. a
        contraction hierarchy's weights version): answers computed under a
        different tag never shadow each other, so an engine whose internal
        state moved — without any re-registration — starts with fresh lines.
        """
        bucket = self._bucket(engine, request)
        return (
            engine,
            request.source,
            request.destination,
            bucket,
            request.driver_id,
            request.cost_override,
            version,
        )

    def key_for(
        self, engine: str, request: RouteRequest, version: object = None
    ) -> CacheKey:
        with self._lock:
            return self._key(engine, request, version)

    def get(
        self,
        engine: str,
        request: RouteRequest,
        probe: bool = False,
        version: object = None,
    ) -> RouteResponse | None:
        """The cached answer for this request, or ``None``.

        A normal lookup counts one hit or one miss.  ``probe=True`` marks a
        follow-up lookup for a request whose primary lookup already counted
        a miss (the service's fallback-chain peeks): a probe miss counts
        nothing, and a probe hit reclassifies that earlier miss as a hit —
        the counters stay at one outcome per logical request.
        """
        with self._lock:
            key = self._key(engine, request, version)
            cached = self._entries.get(key)
            if cached is None:
                if not probe:
                    self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            if probe and self._misses > 0:
                self._misses -= 1
        # A replay is a cache answer whatever computed the entry: it ran no
        # fallback chain this time, and clearing ``batched`` keeps the batch
        # counters at one count per computation.
        return cached.with_request(
            request, cache_hit=True, latency_s=0.0, batched=False, fallback_used=False
        )

    def put(
        self,
        engine: str,
        response: RouteResponse,
        guard: Callable[[], bool] | None = None,
        version: object = None,
    ) -> None:
        """Remember a successful response; failed responses are not cached.

        ``guard`` is evaluated under the cache lock and vetoes the insert
        when it returns False — the service uses it to drop answers computed
        by an engine that was re-registered while the request was in flight.
        ``version`` must be the engine's ``cache_version`` tag observed
        *after* the answer was computed, so the entry lands under the state
        that produced it.
        """
        if not response.ok:
            return
        with self._lock:
            if guard is not None and not guard():
                return
            key = self._key(engine, response.request, version)
            self._entries[key] = response
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_size:
                self._entries.popitem(last=False)

    def invalidate_edges(
        self,
        edges: Collection[tuple[object, object]],
        threshold: int | None = None,
    ) -> int:
        """Drop cached routes that cross any of the given directed edges.

        The delta-aware remedy for live-traffic updates that only *raise*
        costs: a cached optimal answer stays optimal while none of its hops
        changed cost and no edge anywhere got cheaper, so after congestion
        only responses whose path crosses a touched edge are evicted.  A
        batch that lowered any cost can improve on routes that cross none of
        its edges — the caller passes ``threshold=0`` for those.  When the
        batch touches more than ``threshold`` edges (there, the per-entry
        path scan stops paying for itself) the whole cache is dropped instead
        (service-wide invalidation, same effect as :meth:`clear` but with
        the hit/miss counters kept).  Returns the number of entries dropped.
        """
        touched = set(edges)
        if not touched:
            return 0
        with self._lock:
            if threshold is not None and len(touched) > threshold:
                dropped = len(self._entries)
                self._entries.clear()
                return dropped
            stale = [
                key
                for key, response in self._entries.items()
                if response.path is not None
                and any(hop in touched for hop in response.path.edge_keys)
            ]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def invalidate_engine(self, engine: str) -> int:
        """Drop every entry cached for *or produced by* ``engine``.

        An answer can sit under another engine's key when it arrived through
        a fallback chain, so both the key's engine and the response's
        answering engine are checked.  Returns the count dropped.
        """
        with self._lock:
            stale = [
                key
                for key, response in self._entries.items()
                if key[0] == engine or response.engine == engine
            ]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def reset_counters(self) -> None:
        """Zero the hit/miss counters without dropping cached entries."""
        with self._lock:
            self._hits = 0
            self._misses = 0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._entries),
                max_size=self._max_size,
            )
