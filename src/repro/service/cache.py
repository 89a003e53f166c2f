"""A thread-safe LRU cache for served routes, indexed by the vertices they visit.

Answers are keyed by ``(engine, source, destination, driver, cost
override)``.  The departure time is not part of the key: no engine's answer
depends on it, so every departure time of one OD pair shares a single cache
line.  Driver id and cost override are part of the key so
personalized answers are never replayed to the wrong caller.

Beside the LRU table the cache keeps an inverted index *vertex -> entries
whose path visits it*, so that a live-traffic batch costs what it touches:
for a touched edge ``(tail, head)``, :meth:`RouteCache.invalidate_edges`
reads the entries at ``tail`` and keeps those whose path goes on to ``head``
instead of walking every cached path under the lock.  The index is keyed by
vertex, not by edge — one dict lookup and one insert per path vertex with no
tuple to build or hash, which is what a miss pays on ``put`` (a few
microseconds on a 40-vertex path) — and each vertex maps one small integer
token per live entry, rather than the five-field cache key, to the vertex its
path visits next (``None`` at the destination; ``_REVISITED`` when the path
leaves the vertex twice by different hops, and only then is the path itself
read).  Every way an entry is born or dies
(``put`` including an overwrite, LRU overflow, ``invalidate_edges``,
``clear``) goes through ``_index`` / ``_unindex`` /
``_drop_all``: an empty cache has an empty index.

A crossing route is not necessarily a stale one.  An entry computed inside
:meth:`RouteCache.proving` by exactly one search over its engine's cost
view keeps that search's *re-proof* (``dispatch.RouteProof``): per vertex of
the path after the source, the cheapest arrival over every other in-edge.
After a batch that only raised costs, a crossing entry stays when every such
margin is strictly greater than the left-to-right float sum of its path's
current hop costs — checked in one numpy pass over all crossing entries of a
batch.  Costs only rose, so every other in-edge still arrives at or above
its margin, above the path's sum; by induction along the path each hop is
then its head's only exact relaxer, and the reference search returns the
path again, identical, not merely as cheap.  Entries without a proof (L2R's
per-query cost arrays, batched or fallback answers, dict-reference
searches) and proofs whose compiled snapshot is no longer the network's are
evicted as before; a batch that lowered a cost still drops everything.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import Callable, Collection

from ..network.compiled import dispatch
from ..network.road_network import VertexId
from ..routing.path import Path
from .api import RouteRequest, RouteResponse

CacheKey = tuple[object, ...]

#: The index's next vertex of a path that leaves a vertex by two different hops.
_REVISITED = object()


@dataclass(frozen=True)
class CacheStats:
    """Counters of one :class:`RouteCache` (snapshot)."""

    hits: int
    misses: int
    size: int
    max_size: int
    reproved: int = 0
    """Entries whose path crossed a raised edge and that a re-proof kept."""

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
        self._visits: dict[VertexId, dict[int, object]] = {}
        self._proofs: dict[int, dispatch.RouteProof] = {}
        self._next_token = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._reproved = 0

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

    @staticmethod
    def proving(edge_cost: object) -> "AbstractContextManager[list[dispatch.RouteProof]]":
        """Collect the re-proofs of the searches over ``edge_cost`` that run
        inside; pass the list to :meth:`put` with the answer they produced.
        ``edge_cost`` is the cost view whose reference path *is* the
        answering engine's answer (``BaseEngine.cost_view``)."""
        return dispatch.proving(edge_cost)

    def put(
        self,
        engine: str,
        response: RouteResponse,
        guard: Callable[[], bool] | None = None,
        proofs: list[dispatch.RouteProof] | None = None,
    ) -> None:
        """Remember a successful response; failed responses are not cached.

        ``guard`` is evaluated under the cache lock and vetoes the insert
        when it returns False — the service uses it to drop answers computed
        before a traffic batch, a recovery or an engine re-registration that
        landed while the request was in flight.
        ``proofs`` is what :meth:`proving` collected while ``response`` was
        computed: the entry keeps a re-proof only when that is exactly one
        search, its path is the response's, and no fallback answered.
        """
        if not response.ok:
            return
        key = self.key_for(engine, response.request)
        proof = None
        if proofs is not None and len(proofs) == 1 and not response.fallback_used:
            if proofs[0].vertices == response.path.vertices:
                proof = proofs[0]
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
                token = self._tokens[key]
                self._entries.move_to_end(key)
                if replaced.path is not response.path:
                    self._unindex(token, replaced.path)
                    self._index(token, response.path)
            if proof is not None:
                self._proofs[token] = proof
            else:
                self._proofs.pop(token, None)
            while len(self._entries) > self._max_size:
                self._forget(*self._entries.popitem(last=False))

    # ------------------------------------------------------------------ #
    # The vertex index; every method below expects the lock to be held.
    # ------------------------------------------------------------------ #
    def _index(self, token: int, path: Path) -> None:
        visits = self._visits
        vertices = path.vertices
        for vertex, successor in zip(vertices, vertices[1:] + (None,)):
            at_vertex = visits.get(vertex)
            if at_vertex is None:
                visits[vertex] = {token: successor}
            elif at_vertex.setdefault(token, successor) != successor:
                at_vertex[token] = _REVISITED

    def _unindex(self, token: int, path: Path) -> None:
        visits = self._visits
        for vertex in path.vertices:
            # ``None`` on the second visit of a non-simple path whose first
            # visit emptied (and removed) the vertex's map.
            at_vertex = visits.get(vertex)
            if at_vertex is not None:
                at_vertex.pop(token, None)
                if not at_vertex:
                    del visits[vertex]

    def _forget(self, key: CacheKey, response: RouteResponse) -> None:
        """Drop the index state of an entry already taken out of the table."""
        token = self._tokens.pop(key)
        del self._keys[token]
        self._proofs.pop(token, None)
        self._unindex(token, response.path)

    def _drop_all(self) -> int:
        dropped = len(self._entries)
        self._entries.clear()
        self._tokens.clear()
        self._keys.clear()
        self._visits.clear()
        self._proofs.clear()
        return dropped

    def invalidate_edges(
        self,
        edges: Collection[tuple[object, object]],
        threshold: int | None = None,
    ) -> int:
        """Drop cached routes that cross any of the given directed edges,
        unless a re-proof shows they are still the reference path.

        The delta-aware remedy for live-traffic updates that only *raise*
        costs: a cached optimal answer stays optimal while none of its hops
        changed cost and no edge anywhere got cheaper, so after congestion
        only responses whose path crosses a touched edge are candidates.
        They are found through the vertex index, not by scanning the cache:
        the entries at ``tail`` whose next vertex is ``head`` cross a touched
        ``(tail, head)``, so the work is proportional to the routes through
        the touched vertices, whatever the cache holds.
        The candidates that carry a re-proof are then checked together at
        the current costs (see the module docstring); those that pass stay
        and are counted in :attr:`CacheStats.reproved`.

        A batch that lowered any cost can improve on routes that cross none
        of its edges — the caller passes ``threshold=0`` for those: when
        ``edges`` (distinct edges, taken as given) number more than
        ``threshold`` the whole cache is dropped instead (as by
        :meth:`clear`).  Returns the number of entries dropped.
        """
        with self._lock:
            if threshold is not None and len(edges) > threshold:
                return self._drop_all()
            visits, keys, entries = self._visits, self._keys, self._entries
            stale: set[int] = set()
            for tail, head in edges:
                at_tail = visits.get(tail)
                if not at_tail:
                    continue
                for token, successor in at_tail.items():
                    if successor == head or (
                        successor is _REVISITED
                        and entries[keys[token]].path.contains_edge(tail, head)
                    ):
                        stale.add(token)
            proved = [token for token in stale if token in self._proofs]
            if proved:
                proofs = self._proofs
                kept = dispatch.reprove([proofs[token] for token in proved])
                stale.difference_update(t for t, ok in zip(proved, kept) if ok)
                self._reproved += sum(kept)
            for token in stale:
                key = keys[token]
                self._forget(key, entries.pop(key))
            return len(stale)

    def reset_counters(self) -> None:
        """Zero the hit/miss/re-proof counters without dropping cached entries."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._reproved = 0

    def clear(self) -> None:
        """Drop every entry; the counters stay (:meth:`reset_counters`)."""
        with self._lock:
            self._drop_all()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._entries),
                max_size=self._max_size,
                reproved=self._reproved,
            )
