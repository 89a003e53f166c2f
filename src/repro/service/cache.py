"""A thread-safe LRU cache for served routes, indexed by the vertices they visit.

Answers are keyed by ``(engine, source, destination, driver, cost
override)``.  The departure time is not part of the key: no engine's answer
depends on it, so every departure time of one OD pair shares a single cache
line.  Driver id and cost override are part of the key so
personalized answers are never replayed to the wrong caller.

Beside the LRU table the cache keeps an inverted index *vertex -> entries
whose path visits it*, so that a live-traffic batch costs what it touches:
:meth:`RouteCache.invalidate_edges` intersects the entry sets of a touched
edge's two endpoints and confirms the hop on those few candidates instead of
walking every cached path under the lock.  The index is keyed by vertex, not
by edge — one dict lookup and one set insert per path vertex with no tuple to
build or hash, which is what a miss pays on ``put`` (a few microseconds on a
40-vertex path) — and its sets hold one small integer token per live entry
rather than the five-field cache key.  Every way an entry is born or dies
(``put`` including an overwrite, LRU overflow, each ``invalidate_*``,
``clear``) goes through ``_index`` / ``_unindex`` /
``_drop_all``: an empty cache has an empty index.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Collection

from ..network.road_network import VertexId
from ..routing.path import Path
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

    def __init__(self, max_size: int = 2048) -> None:
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        self._max_size = max_size
        self._entries: OrderedDict[CacheKey, RouteResponse] = OrderedDict()
        # The inverted index: a key holds one token for as long as it is
        # cached, and that token sits in the set of every vertex on its path.
        self._tokens: dict[CacheKey, int] = {}
        self._keys: dict[int, CacheKey] = {}
        self._visits: dict[VertexId, set[int]] = {}
        self._next_token = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------ #
    @staticmethod
    def key_for(engine: str, request: RouteRequest) -> CacheKey:
        """The cache key of ``request`` answered by ``engine``."""
        return (
            engine,
            request.source,
            request.destination,
            request.driver_id,
            request.cost_override,
        )

    def get(
        self,
        engine: str,
        request: RouteRequest,
        probe: bool = False,
    ) -> RouteResponse | None:
        """The cached answer for this request, or ``None``.

        A normal lookup counts one hit or one miss.  ``probe=True`` marks a
        follow-up lookup for a request whose primary lookup already counted
        a miss (the service's fallback-chain peeks): a probe miss counts
        nothing, and a probe hit reclassifies that earlier miss as a hit —
        the counters stay at one outcome per logical request.
        """
        key = self.key_for(engine, request)
        with self._lock:
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
        # fallback chain and no retries this time, and clearing ``batched``
        # keeps the batch counters at one count per computation.
        return cached.with_request(
            request,
            cache_hit=True,
            latency_s=0.0,
            batched=False,
            fallback_used=False,
            retries=0,
        )

    def put(
        self,
        engine: str,
        response: RouteResponse,
        guard: Callable[[], bool] | None = None,
    ) -> None:
        """Remember a successful response; failed responses are not cached.

        ``guard`` is evaluated under the cache lock and vetoes the insert
        when it returns False — the service uses it to drop answers computed
        by an engine that was re-registered while the request was in flight.
        """
        if not response.ok:
            return
        key = self.key_for(engine, response.request)
        with self._lock:
            if guard is not None and not guard():
                return
            replaced = self._entries.get(key)
            self._entries[key] = response
            if replaced is None:
                token = self._tokens[key] = self._next_token
                self._keys[token] = key
                self._next_token += 1
                self._index(token, response.path)
            else:
                self._entries.move_to_end(key)
                if replaced.path is not response.path:
                    token = self._tokens[key]
                    self._unindex(token, replaced.path)
                    self._index(token, response.path)
            while len(self._entries) > self._max_size:
                self._forget(*self._entries.popitem(last=False))

    # ------------------------------------------------------------------ #
    # The vertex index; every method below expects the lock to be held.
    # ------------------------------------------------------------------ #
    def _index(self, token: int, path: Path) -> None:
        visits = self._visits
        for vertex in path.vertices:
            try:
                visits[vertex].add(token)
            except KeyError:
                visits[vertex] = {token}

    def _unindex(self, token: int, path: Path) -> None:
        visits = self._visits
        for vertex in path.vertices:
            # ``None`` on the second visit of a non-simple path whose first
            # visit emptied (and removed) the vertex's set.
            at_vertex = visits.get(vertex)
            if at_vertex is not None:
                at_vertex.discard(token)
                if not at_vertex:
                    del visits[vertex]

    def _forget(self, key: CacheKey, response: RouteResponse) -> None:
        """Drop the index state of an entry already taken out of the table."""
        token = self._tokens.pop(key)
        del self._keys[token]
        self._unindex(token, response.path)

    def _drop_all(self) -> int:
        dropped = len(self._entries)
        self._entries.clear()
        self._tokens.clear()
        self._keys.clear()
        self._visits.clear()
        return dropped

    def invalidate_edges(
        self,
        edges: Collection[tuple[object, object]],
        threshold: int | None = None,
    ) -> int:
        """Drop cached routes that cross any of the given directed edges.

        The delta-aware remedy for live-traffic updates that only *raise*
        costs: a cached optimal answer stays optimal while none of its hops
        changed cost and no edge anywhere got cheaper, so after congestion
        only responses whose path crosses a touched edge are evicted.  They
        are found through the vertex index, not by scanning the cache: the
        entries visiting both ``tail`` and ``head`` are the only candidates
        for a touched ``(tail, head)``, and each is confirmed against its
        path (it may visit the two vertices without taking that hop, or take
        it in the other direction), so the work is proportional to the routes
        through the touched vertices, whatever the cache holds.

        A batch that lowered any cost can improve on routes that cross none
        of its edges — the caller passes ``threshold=0`` for those: when
        ``edges`` (distinct edges, taken as given) number more than
        ``threshold`` the whole cache is dropped instead (same effect as
        :meth:`clear` but with the hit/miss counters kept).  Returns the
        number of entries dropped.
        """
        with self._lock:
            if threshold is not None and len(edges) > threshold:
                return self._drop_all()
            visits, keys, entries = self._visits, self._keys, self._entries
            stale: set[int] = set()
            for tail, head in edges:
                at_tail = visits.get(tail)
                at_head = visits.get(head)
                if not at_tail or not at_head:
                    continue
                for token in at_tail & at_head:
                    if token not in stale and entries[keys[token]].path.contains_edge(
                        tail, head
                    ):
                        stale.add(token)
            for token in stale:
                key = keys[token]
                self._forget(key, entries.pop(key))
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
                self._forget(key, self._entries.pop(key))
            return len(stale)

    def reset_counters(self) -> None:
        """Zero the hit/miss counters without dropping cached entries."""
        with self._lock:
            self._hits = 0
            self._misses = 0

    def clear(self) -> None:
        with self._lock:
            self._drop_all()
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
