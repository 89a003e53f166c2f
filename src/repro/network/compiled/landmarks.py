"""ALT landmark lower bounds (A*, Landmarks, Triangle inequality) on the CSR.

A :class:`LandmarkTable` bounds distances with pure array lookups: for a
handful of landmark vertices it precomputes the forward (``d(L, v)``) and
backward (``d(v, L)``) distance rows with the batched compiled Dijkstra
(:func:`~repro.network.compiled.batch.dijkstra_many`), and the triangle
inequality then yields per-query lower bounds

    ``d(v, t) >= max_L max( d(L, t) - d(L, v),  d(v, L) - d(t, L) )``

computed vectorized over all vertices in one numpy pass.  The bounded
point-to-point Dijkstra (``sparse.shortest_path_indices``) prunes every
vertex whose lower bound on ``d(s, v) + d(v, t)`` exceeds its search
limit.

The same rows also give an *upper* bound per pair, the cheapest detour
``min_L d(s, L) + d(L, t)`` (:meth:`LandmarkTable.tightest`).  It is the
cost of a real walk at the build costs, so it holds on the table's
``build_array`` only: after any cost patch it says nothing, even where the
lower bounds stay admissible.

Tables are **topology-stamped** artifacts: they live on one
:class:`~repro.network.compiled.graph.CompiledGraph` snapshot and die with
it on any structural mutation.  Against live-traffic *cost* updates they
are **cost-version-aware** instead of merely evicting:

* while costs only move **up** from the build-time values (congestion over
  free flow), the build-time bounds remain admissible unchanged;
* when some edge drops **below** its build-time cost by factor ``r``, every
  build-time shortest path still costs at least ``r`` times its build-time
  cost, so the bounds are *rescaled* by ``min(1, r)`` and stay admissible;
* when the rescaling factor falls under :data:`REBUILD_RATIO` the bounds
  have degraded enough that the table self-evicts and is rebuilt against
  the current cost arrays.

Landmark selection runs on the CSR arrays only: *farthest* selection
iteratively adds the vertex maximizing the minimum distance from the chosen
set (cheap, deterministic, good spread).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable

import numpy as np

from . import batch

if TYPE_CHECKING:  # pragma: no cover
    from .graph import CompiledGraph

#: Landmarks per table: enough for tight grid/city bounds, cheap to build
#: (two batched SSSPs per landmark) and to scan per query (k*n numpy max).
DEFAULT_LANDMARK_COUNT = 8

#: Rescaled tables whose admissibility scale falls below this are rebuilt:
#: bounds shrunk past it prune too little to be worth keeping.
REBUILD_RATIO = 0.5

#: Bounded first attempts (``sparse.shortest_path_indices``) counted per table
#: before both counts are halved, so the share that paid off follows the
#: recent ones; a verdict needs half a window.  On the 60x60 and 100x100 grid
#: cities 0.83 to 0.89 of the attempts pay off (1.15x and 1.4x over the full
#: search); on ``country_network`` scaled to 5,060 and 11,220 vertices 0.46 to
#: 0.50 do, and there the attempt is worth what the full search is (0.86x to
#: 1.25x over eight runs), so a verdict that flips back and forth costs nothing.
ATTEMPT_WINDOW = 512

#: While under half pay off, one query in this many still makes the attempt,
#: so the share keeps following the traffic and the verdict can turn back.
SKIPPED_SAMPLE = 32


class BoundScratch:
    """Preallocated buffers for landmark bounds over one graph snapshot.

    Borrowed per call from :meth:`CompiledGraph.borrowed_scratch` (one per
    thread and nesting depth, dying with the snapshot on a structural
    mutation), so a query allocates no temporaries.
    """

    __slots__ = ("work", "to", "frm", "outside", "costs", "pruned", "matrix")

    def __init__(self, vertex_count: int, edge_count: int) -> None:
        self.work = np.empty((2, vertex_count), dtype=np.float64)
        self.to = np.empty(vertex_count, dtype=np.float64)
        self.frm = np.empty(vertex_count, dtype=np.float64)
        self.outside = np.empty(vertex_count, dtype=np.bool_)
        self.costs = np.empty(edge_count, dtype=np.float64)
        self.pruned = np.empty(edge_count, dtype=np.bool_)
        self.matrix = None  # scipy CSR over ``costs``, made by its first user


class LandmarkTable:
    """Per-landmark distance rows plus the cost-version admissibility state."""

    __slots__ = (
        "key",
        "indices",
        "dist_from",
        "dist_to",
        "build_array",
        "build_version",
        "requested_count",
        "scale",
        "validated_version",
        "span",
        "attempts",
        "paid_off",
        "skipped",
    )

    def __init__(
        self,
        key: Hashable,
        indices: list[int],
        dist_from: np.ndarray,
        dist_to: np.ndarray,
        build_array: np.ndarray,
        build_version: int,
        requested_count: int | None = None,
    ) -> None:
        self.key = key
        self.indices = indices
        self.dist_from = dist_from  # (k, n): d(landmark, v) on the build metric
        self.dist_to = dist_to  # (k, n): d(v, landmark) on the build metric
        self.build_array = build_array
        self.build_version = build_version
        # Selection may legitimately yield fewer landmarks than asked for
        # (tiny or fragmented graphs); remembering the *request* keeps a
        # repeated prepare_landmarks(count=k) from rebuilding forever.
        self.requested_count = requested_count if requested_count is not None else len(indices)
        self.scale = 1.0
        self.validated_version = build_version
        finite = dist_from[np.isfinite(dist_from)]
        self.span = float(finite.max()) if finite.size else 0.0  # ~ the graph's diameter
        self.attempts = 0  # recent bounded first attempts ...
        self.paid_off = 0  # ... how many of them paid off ...
        self.skipped = 0  # ... and queries that went without while few did

    @property
    def count(self) -> int:
        return len(self.indices)

    # ------------------------------------------------------------------ #
    # Bounded-first-attempt bookkeeping
    # ------------------------------------------------------------------ #
    def wants_attempt(self) -> bool:
        """Whether this query should make the bounded attempt: yes, unless
        under half of the recent ones paid off — then one in
        :data:`SKIPPED_SAMPLE` only."""
        if self.attempts < ATTEMPT_WINDOW // 2 or 2 * self.paid_off >= self.attempts:
            return True
        self.skipped += 1
        return self.skipped % SKIPPED_SAMPLE == 0

    def note_attempt(self, paid_off: bool) -> None:
        """Count one attempt; it paid off if it reached the destination
        having settled at most half the graph.  Unlocked: a lost update only
        delays the verdict."""
        self.attempts += 1
        self.paid_off += paid_off
        if self.attempts >= ATTEMPT_WINDOW:
            self.attempts //= 2
            self.paid_off //= 2

    # ------------------------------------------------------------------ #
    # Cost-version admissibility
    # ------------------------------------------------------------------ #
    def revalidated(self, current_array: np.ndarray, current_version: int):
        """This table re-established against the caller's cost array.

        Returns ``self`` when nothing changed, a *copy-on-write* twin
        (sharing the distance matrices, carrying the new scale) when the
        bounds had to be rescaled, or ``None`` when they degraded past
        :data:`REBUILD_RATIO` and the table must be rebuilt.  Served tables
        are never mutated: a query that resolved its cost arrays under an
        older version keeps the scale that is admissible for *those* arrays,
        exactly like the cost store's copy-on-patch arrays.  Cheap: one
        vectorized ratio pass, and only when the cost version actually moved
        since the last validation.
        """
        if current_version == self.validated_version:
            return self if self.scale >= REBUILD_RATIO else None
        build = self.build_array
        ratio = 1.0
        if current_array is not build and build.size:
            # Only edges with a positive build-time cost constrain the
            # rescaling: a zero-cost edge contributes zero to every bound,
            # which any non-negative current cost still dominates.
            mask = build > 0.0
            if mask.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = float(np.min(current_array[mask] / build[mask]))
        scale = min(1.0, ratio)
        if scale < REBUILD_RATIO:
            return None
        if scale == self.scale:
            self.validated_version = current_version
            return self
        twin = LandmarkTable(
            self.key,
            self.indices,
            self.dist_from,
            self.dist_to,
            build,
            self.build_version,
            requested_count=self.requested_count,
        )
        twin.scale = scale
        twin.validated_version = current_version
        twin.attempts, twin.paid_off, twin.skipped = self.attempts, self.paid_off, self.skipped
        return twin

    # ------------------------------------------------------------------ #
    # Triangle-inequality bounds (vectorized over all vertices)
    # ------------------------------------------------------------------ #
    def _bounds(self, fwd_ref, bwd_ref, sign: int, scratch, rows) -> np.ndarray:
        # One landmark row at a time (the work vectors stay in cache, and a
        # subset of landmarks costs its share).  ``inf - inf`` (both sides
        # unreachable from a landmark) is NaN and carries no information:
        # np.fmax drops NaNs in favour of any real bound, and starting from
        # 0.0 leaves 0 where every landmark said NaN.
        lf = self.dist_from
        lt = self.dist_to
        a, b = scratch.work
        h = scratch.to if sign > 0 else scratch.frm
        h.fill(0.0)
        with np.errstate(invalid="ignore"):
            for i in range(len(lf)) if rows is None else rows:
                if sign > 0:
                    np.subtract(fwd_ref[i], lf[i], out=a)
                    np.subtract(lt[i], bwd_ref[i], out=b)
                else:
                    np.subtract(lf[i], fwd_ref[i], out=a)
                    np.subtract(bwd_ref[i], lt[i], out=b)
                np.fmax(a, b, out=a)
                np.fmax(h, a, out=h)
        if self.scale != 1.0:
            h *= self.scale
        return h

    def bounds_to(
        self, target: int, scratch: BoundScratch, rows: Iterable[int] | None = None
    ) -> np.ndarray:
        """Lower bounds on ``d(v, target)`` for every vertex ``v`` at once.

        ``inf`` entries are exact: a finite landmark row proving ``target``
        unreachable from ``v`` transfers through the triangle inequality.
        The result is ``scratch.to`` (no allocation), valid until the scratch
        is next used or handed back; ``rows`` restricts the bounds to those
        landmarks (looser, cheaper).
        """
        return self._bounds(self.dist_from[:, target], self.dist_to[:, target], +1, scratch, rows)

    def bounds_from(
        self, source: int, scratch: BoundScratch, rows: Iterable[int] | None = None
    ) -> np.ndarray:
        """Lower bounds on ``d(source, v)`` — the backward-search potential
        (in ``scratch.frm``)."""
        return self._bounds(self.dist_from[:, source], self.dist_to[:, source], -1, scratch, rows)

    def tightest(
        self, source: int, target: int, count: int
    ) -> tuple[float, float, list[int] | None]:
        """The lower bound on ``d(source, target)``, the upper bound, and the
        ``count`` landmarks bounding it best from below (``None``: all).

        The upper bound is the cheapest detour ``d(source, L) + d(L, target)``
        through a landmark — the cost of a real walk at the *build* costs,
        so it bounds the pair only on :attr:`build_array` (``inf`` when no
        landmark links the pair)."""
        lf, lt = self.dist_from, self.dist_to
        with np.errstate(invalid="ignore"):
            per = np.fmax(lf[:, target] - lf[:, source], lt[:, source] - lt[:, target])
        per[np.isnan(per)] = -np.inf
        rows = np.argsort(per)[-count:].tolist() if count < self.count else None
        upper = float((lt[:, source] + lf[:, target]).min())
        return float(per.max()) * self.scale, upper, rows


# ---------------------------------------------------------------------- #
# Landmark selection
# ---------------------------------------------------------------------- #
def _sssp_rows(graph, key, array, version, sources: list[int]) -> np.ndarray:
    return batch.dijkstra_many(graph, key, array, version, sources)


def _seed_index(graph: "CompiledGraph") -> int:
    """A deterministic seed vertex that actually has outgoing edges.

    Index 0 may be a sink (one-way cul-de-sac), whose SSSP row would be
    all-``inf`` and derail the greedy selection before it starts.
    """
    offsets = graph.offsets
    for v in range(graph.vertex_count):
        if offsets[v + 1] > offsets[v]:
            return v
    return 0


def _uncovered_seed(graph: "CompiledGraph", min_dist: np.ndarray, chosen: list[int]) -> int:
    """A vertex no chosen landmark reaches (another weak component), or -1."""
    offsets = graph.offsets
    chosen_set = set(chosen)
    for v in range(len(min_dist)):
        if (
            not np.isfinite(min_dist[v])
            and v not in chosen_set
            and offsets[v + 1] > offsets[v]
        ):
            return v
    return -1


def _select_farthest(
    graph: "CompiledGraph",
    key: Hashable,
    array: np.ndarray,
    version: int | None,
    count: int,
) -> tuple[list[int], np.ndarray]:
    """Greedy max-min-distance selection; returns indices + forward rows.

    When no reachable candidate remains (the covered component is
    exhausted), the next landmark jumps to an uncovered component so
    disconnected graphs still get bounds everywhere a search can run.
    """
    seed = _seed_index(graph)
    seed_row = _sssp_rows(graph, key, array, version, [seed])[0]
    finite = np.where(np.isfinite(seed_row), seed_row, -1.0)
    first = int(np.argmax(finite))
    chosen = [first]
    rows = [_sssp_rows(graph, key, array, version, [first])[0]]
    min_dist = rows[0].copy()
    while len(chosen) < count:
        candidates = np.where(np.isfinite(min_dist), min_dist, -1.0)
        candidates[chosen] = -1.0
        nxt = int(np.argmax(candidates))
        if candidates[nxt] <= 0.0:
            nxt = _uncovered_seed(graph, min_dist, chosen)
            if nxt < 0:
                break  # every reachable vertex is a landmark (or at one)
        chosen.append(nxt)
        row = _sssp_rows(graph, key, array, version, [nxt])[0]
        rows.append(row)
        np.minimum(min_dist, row, out=min_dist)
    return chosen, np.vstack(rows)


def build_landmark_table(
    graph: "CompiledGraph",
    key: Hashable,
    array: np.ndarray,
    version: int | None,
    count: int | None = None,
) -> LandmarkTable | None:
    """Select landmarks and precompute their distance rows for one cost view."""
    n = graph.vertex_count
    if n == 0 or key is None:
        return None
    count = min(count or DEFAULT_LANDMARK_COUNT, n)
    chosen, dist_from = _select_farthest(graph, key, array, version, count)
    dist_to = batch.dijkstra_many(graph, key, array, version, chosen, reverse=True)
    build_version = version if version is not None else graph.costs.version
    return LandmarkTable(
        key, chosen, dist_from, dist_to, array, build_version, requested_count=count
    )
