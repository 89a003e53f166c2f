"""ALT landmark lower bounds (A*, Landmarks, Triangle inequality) on the CSR.

A :class:`LandmarkTable` bounds distances with pure array lookups: for a
handful of landmark vertices it precomputes the forward (``d(L, v)``) and
backward (``d(v, L)``) distance rows with the batched compiled Dijkstra
(:func:`~repro.network.compiled.batch.dijkstra_many`) and keeps them
vertex-major, ``rows[v] = (d(L, v) ..., -d(v, L) ...)``, so the triangle
inequality reads ``d(u, w) >= max_j (rows[w, j] - rows[u, j])``.  The
bounded point-to-point Dijkstra (``sparse.shortest_path_indices``) prunes
the vertices whose lower bound on ``d(s, v) + d(v, t)`` exceeds its search
limit a *cell* at a time (:meth:`LandmarkTable.cell_bounds`, :func:`_cells`).

The same rows also give an *upper* bound per pair, the cheapest detour
``min_L d(s, L) + d(L, t)``.  It is the cost of a real walk at the build
costs, so it holds on the table's ``build_array`` only: after any cost
patch it says nothing, even where the lower bounds stay admissible.

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

import copy
import math
from typing import TYPE_CHECKING, Hashable

import numpy as np

from . import batch
from .sparse import slot_targets

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
#: recent ones; a verdict needs half a window.  Paid off, travel time |
#: distance, over 600 pairs: 0.81 | 0.96 and 0.84 | 0.97 on the 60x60 and
#: 100x100 grid cities (1.84x and 2.07x over the full search); 0.28 | 0.71
#: and 0.26 | 0.78 on ``country_network`` scaled to 5,060 and 11,220
#: vertices (1.09x and 1.28x), where travel time is sampled only.
ATTEMPT_WINDOW = 512

#: While under half pay off, one query in this many still makes the attempt,
#: so the share keeps following the traffic and the verdict can turn back.
SKIPPED_SAMPLE = 32


#: Cells of the corridor's prune mask hold ``min(CELL_SIZE, n // MIN_CELLS)``
#: of a graph's ``n`` vertices (:func:`_cells`): one per cell under 512.
CELL_SIZE = 24
MIN_CELLS = 256


class BoundScratch:
    """Preallocated buffers for the corridor search over one graph snapshot.

    Borrowed per call from :meth:`CompiledGraph.borrowed_scratch` (one per
    thread and nesting depth, dying with the snapshot on a structural
    mutation), so a query allocates no edge-sized temporaries.
    """

    __slots__ = ("costs", "pruned", "matrix")

    def __init__(self, edge_count: int) -> None:
        self.costs = np.empty(edge_count, dtype=np.float64)
        self.pruned = np.empty(edge_count, dtype=np.bool_)
        self.matrix = None  # scipy CSR over ``costs``, made by its first user


class LandmarkTable:
    """Per-vertex landmark potentials, their per-cell ranges, and the
    cost-version admissibility state."""

    __slots__ = (
        "key",
        "indices",
        "rows",
        "low",
        "high",
        "slot_cell",
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
        rows: np.ndarray,
        cells: tuple[np.ndarray, np.ndarray, np.ndarray],
        build_array: np.ndarray,
        build_version: int,
        requested_count: int | None = None,
    ) -> None:
        self.key = key
        self.indices = indices
        # (n, 2k): d(L, v) for every landmark L, then -d(v, L), so that
        # rows[w] - rows[u] bounds d(u, w) from below landmark by landmark.
        self.rows = rows
        self.low, self.high, self.slot_cell = cells  # see :func:`_cells`
        self.build_array = build_array
        self.build_version = build_version
        # Selection may legitimately yield fewer landmarks than asked for
        # (tiny or fragmented graphs); remembering the *request* keeps a
        # repeated prepare_landmarks(count=k) from rebuilding forever.
        self.requested_count = requested_count if requested_count is not None else len(indices)
        self.scale = 1.0
        self.validated_version = build_version
        forward = rows[:, : len(indices)]  # span: ~ the graph's diameter
        self.span = float(forward.max(initial=0.0, where=np.isfinite(forward)))
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
        (sharing the rows and cells, carrying the new scale) when the
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
        twin = copy.copy(self)
        twin.scale = scale
        twin.validated_version = current_version
        return twin

    # ------------------------------------------------------------------ #
    # Triangle-inequality bounds
    # ------------------------------------------------------------------ #
    def pair_bounds(self, source: int, target: int) -> tuple[float, float]:
        """The lower bound on ``d(source, target)``, the largest landmark
        difference (NaN, ``inf - inf``, says nothing), and the upper bound,
        the cheapest detour ``d(source, L) + d(L, target)`` — the cost of a
        real walk at the *build* costs, so it bounds the pair only on
        :attr:`build_array` (``inf`` when no landmark links the pair)."""
        rows, k = self.rows, len(self.indices)
        with np.errstate(invalid="ignore"):
            lower = float(np.fmax.reduce(rows[target] - rows[source], initial=-math.inf))
        upper = float((rows[target, :k] - rows[source, k:]).min())
        return lower * self.scale, upper

    def cell_bounds(self, source: int, target: int) -> np.ndarray:
        """Per cell, a lower bound on ``d(source, v) + d(v, target)`` for all
        its members ``v`` at once (a fresh array, times :attr:`scale`):
        ``low - rows[source]`` and ``rows[target] - high`` are at most every
        member's own differences, float subtraction being monotone; NaN
        terms are dropped and each sum starts from 0."""
        rows = self.rows
        with np.errstate(invalid="ignore"):
            into = np.fmax.reduce(rows[target][:, None] - self.high, axis=0, initial=0.0)
            into += np.fmax.reduce(self.low - rows[source][:, None], axis=0, initial=0.0)
        if self.scale != 1.0:
            into *= self.scale
        return into


def _cells(
    graph: "CompiledGraph", rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(low, high, slot_cell)``: each cell's ``(2k, cells)`` minimum and
    maximum of every column of the table's ``(n, 2k)`` ``rows``, and the
    int32 cell of every CSR slot's head vertex.

    Recursive bisection in the rows' own space: each group over the cell
    size splits at its median along its row of largest spread, one level
    per vectorized pass (in float32, infinities clipped: the split only
    steers how tight the cells are).
    """
    n = rows.shape[0]
    size = max(1, min(CELL_SIZE, n // MIN_CELLS))
    far = 2.0 * float(np.abs(rows).max(initial=0.0, where=np.isfinite(rows))) + 1
    # Landmark-major, in C order: row reductions stay fast.
    points = np.clip(rows.T, -far, far, out=np.empty(rows.shape[::-1], np.float32))
    order = np.arange(n)
    everyone = np.arange(n)
    starts = np.zeros(1, dtype=np.int64)
    while (sizes := np.diff(starts, append=n)).max() > size:
        split = sizes > size
        spread = np.maximum.reduceat(points, starts, axis=1)
        spread -= np.minimum.reduceat(points, starts, axis=1)
        group = np.repeat(np.arange(len(starts)), sizes)
        value = points[spread.argmax(axis=0)[group], everyone]
        perm = np.argsort(group * (4.0 * far) + value)  # by group, then value
        order = order[perm]
        points = points.take(perm, axis=1)  # C order: row reductions stay fast
        starts = np.sort(np.concatenate((starts, (starts + (sizes + 1) // 2)[split])))
    cell_of = np.empty(n, dtype=np.int32)
    cell_of[order] = np.repeat(np.arange(len(starts), dtype=np.int32), np.diff(starts, append=n))
    del points
    grouped = rows.take(order, axis=0)
    low = np.minimum.reduceat(grouped, starts, axis=0).T
    high = np.maximum.reduceat(grouped, starts, axis=0).T
    return np.ascontiguousarray(low), np.ascontiguousarray(high), cell_of.take(slot_targets(graph))


# ---------------------------------------------------------------------- #
# Landmark selection
# ---------------------------------------------------------------------- #
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
    table: np.ndarray,
) -> list[int]:
    """Greedy max-min-distance selection of up to ``table.shape[1] // 2``
    landmarks; returns their indices, column ``i`` of ``table`` filled with
    landmark ``i``'s forward distances.

    When no reachable candidate remains (the covered component is
    exhausted), the next landmark jumps to an uncovered component so
    disconnected graphs still get bounds everywhere a search can run.
    """
    seed = _seed_index(graph)
    seed_row = batch.dijkstra_many(graph, key, array, version, [seed])[0]
    finite = np.where(np.isfinite(seed_row), seed_row, -1.0)
    first = int(np.argmax(finite))
    chosen = [first]
    table[:, 0] = batch.dijkstra_many(graph, key, array, version, [first])[0]
    min_dist = table[:, 0].copy()
    while len(chosen) < table.shape[1] // 2:
        candidates = np.where(np.isfinite(min_dist), min_dist, -1.0)
        candidates[chosen] = -1.0
        nxt = int(np.argmax(candidates))
        if candidates[nxt] <= 0.0:
            nxt = _uncovered_seed(graph, min_dist, chosen)
            if nxt < 0:
                break  # every reachable vertex is a landmark (or at one)
        table[:, len(chosen)] = batch.dijkstra_many(graph, key, array, version, [nxt])[0]
        np.minimum(min_dist, table[:, len(chosen)], out=min_dist)
        chosen.append(nxt)
    return chosen


def build_landmark_table(
    graph: "CompiledGraph",
    key: Hashable,
    array: np.ndarray,
    version: int | None,
    count: int | None = None,
) -> LandmarkTable | None:
    """Select landmarks and precompute their distance rows for one cost view,
    written in place into the one ``(n, 2k)`` table, each intermediate
    dropped before the next is allocated (a 10^4-vertex build peaks at
    2.98 MiB traced, of which the table is 1.22 MiB)."""
    n = graph.vertex_count
    if n == 0 or key is None:
        return None
    count = min(count or DEFAULT_LANDMARK_COUNT, n)
    rows = np.empty((n, 2 * count), dtype=np.float64)
    chosen = _select_farthest(graph, key, array, version, rows)
    k = len(chosen)
    dist_to = batch.dijkstra_many(graph, key, array, version, chosen, reverse=True)
    np.negative(dist_to.T, out=rows[:, k : 2 * k])
    del dist_to
    rows = np.ascontiguousarray(rows[:, : 2 * k])  # a copy only when k < count
    build_version = version if version is not None else graph.costs.version
    return LandmarkTable(
        key, chosen, rows, _cells(graph, rows), array, build_version, requested_count=count
    )
