"""Shortest paths over the compiled CSR arrays with scipy's C Dijkstra.

The :class:`~repro.network.compiled.graph.CompiledGraph` layout (``offsets`` /
``targets`` / flat cost arrays) *is* scipy's native CSR format, so
point-to-point Dijkstra runs ``scipy.sparse.csgraph.dijkstra`` for the
distance array and the search tree, and reads the path off the tree.

The reference path is the one of a deterministic backward walk: at every
vertex ``v`` it picks the predecessor ``u`` minimizing ``(dist[u], u)``
among those with ``dist[u] + w(u, v) == dist[v]`` exactly — provably the
parent the dict-based reference Dijkstra records (the first equal-cost
relaxer to settle wins there, and settle order is ``(dist, index)``-
lexicographic), so the path is identical to the reference one, not merely
cost-identical.  scipy's tree parent is that ``u`` wherever no two in-edges
of ``v`` can tie; a per-view certificate flags the vertices where two can,
and only there does the walk scan the in-edges (see
:func:`reconstruct_path_indices`).  A per-query cost array gets no
certificate and is scanned at every hop.

Given a landmark table, the search first tries a corridor: edges into
vertices whose landmark bounds put them off every path of cost ``U`` cost
``inf``, and the search stops at ``U = min(1.4 * LB, UB)`` — the lower bound
``LB`` stretched, capped by the cheapest landmark detour ``UB`` while the
costs are the table's build costs.  One bound covers each *cell* of the
table (up to 24 vertices close in landmark space).  A capped corridor
always reaches the destination; otherwise a miss falls back to the full
search.

A search whose answer goes into the route cache also leaves the path's
*arrival margins* (:func:`arrival_margins`): per vertex ``v`` after the
source, the cheapest arrival ``fl(dist[u] + w(u, v))`` over every in-edge
but the path's own hop.  After a batch that only raised costs, the path is
still the reference path if every margin is strictly greater than the
left-to-right float sum of the path's current hop costs up to ``v``
(:func:`still_reference`).  Proof: raising costs only raises every
distance, so every other in-edge of ``v`` still arrives at or above its
margin, above the path's sum; by induction along the path each vertex's
distance is that sum and the path's hop is its *only* exact relaxer, so the
reference walk, whatever its tie rule, picks the hop.  A corridor search
proves less: an in-neighbour's distance counts only where the corridor
provably contains its shortest path (see :func:`arrival_margins`).

With a zero weight (where the backward walk could cycle) or on a
reconstruction anomaly there is no answer here, and the caller runs the
dict-based reference.
"""

from __future__ import annotations

import copy
import math
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

import numpy as np
from scipy.sparse import csr_matrix as _csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

if TYPE_CHECKING:  # pragma: no cover
    from .graph import CompiledGraph
    from .landmarks import LandmarkTable

#: The bounded first attempt searches within ``CORRIDOR_RATIO`` times the
#: landmark lower bound on the source-destination cost.  Measured on the
#: 100x100 grid city against the full search (gain, share of attempts that
#: reach the destination), travel time | distance: 1.2 -> 1.31x 0.79 | 1.64x
#: 1.00; 1.3 -> 1.39x 0.84 | 1.55x 1.00; 1.4 -> 1.39x 0.95 | 1.41x 1.00;
#: 1.6 -> 1.28x 0.98 | 1.29x 1.00.  Distance bounds are within 6 % of the
#: cost there, travel-time bounds within 10 % at the median and 31 % at the
#: ninetieth percentile, and congestion loosens them further.
CORRIDOR_RATIO = 1.4

#: No attempt for an *uncapped* pair (no landmark detour within the stretched
#: lower bound, or costs off the table's build costs) whose lower bound
#: exceeds this share of the table's span (its largest landmark distance,
#: about the diameter): the corridor then holds most of the graph and the
#: attempt gains little or costs more than the full search.  Uncapped
#: attempt / full time by bound / span on the 60x60 and 100x100 grid cities
#: (1,500 pairs each, travel time | distance): 0.4-0.5 0.82 | 0.81 / 0.74 |
#: 0.75, 0.5-0.6 0.94 | 0.95 / 0.88 | 0.90, 0.6-0.7 1.09 | 1.14 / 1.03 |
#: 1.04.  A capped pair is attempted at any span: at build costs the detour
#: caps 96 to 100 % of the far pairs there.
CORRIDOR_MAX_SPAN = 0.5

#: Landmark bounds are differences of float path sums, so one may exceed the
#: true cost by rounding (~1e-13 relative); a vertex is pruned only when its
#: bound clears the limit by far more than that.
_CORRIDOR_SLACK = 1.0 + 1e-9


def _matrix(
    graph: "CompiledGraph",
    key: Hashable | None,
    array: np.ndarray,
    version: int | None,
):
    """A scipy CSR matrix over the graph's cost array (memoized per key)."""
    indptr = graph.memo(
        ("sparse-indptr",),
        lambda: np.asarray(graph.offsets, dtype=np.int32),
        cost_dependent=False,
    )
    indices = graph.memo(
        ("sparse-indices",),
        lambda: np.asarray(graph.targets, dtype=np.int32),
        cost_dependent=False,
    )
    n = graph.vertex_count

    def build():
        return _csr_matrix((array, indices, indptr), shape=(n, n))

    if key is None:
        # Nothing to memoize, and the constructor's index checks would cost
        # more than assembling a per-query array did: the indices are checked
        # once, in a memoized matrix that is shallow-copied and given the data.
        checked = graph.memo(
            ("sparse-checked",),
            lambda: _csr_matrix(
                (np.ones(len(array), dtype=np.float64), indices, indptr), shape=(n, n)
            ),
            cost_dependent=False,
        )
        matrix = copy.copy(checked)
        matrix.data = array
        return matrix
    return graph.memo(("sparse-matrix", key), build, version=version)


def _all_positive(
    graph: "CompiledGraph",
    key: Hashable | None,
    array: np.ndarray,
    version: int | None,
) -> bool:
    """Strictly positive weights guarantee the backward walk terminates
    (memoized per keyed array)."""

    def scan() -> bool:
        return not array.size or float(array.min()) > 0.0

    if key is None:
        return scan()
    return graph.memo(("sparse-positive", key), scan, version=version)  # type: ignore[return-value]


def slot_targets(graph: "CompiledGraph") -> np.ndarray:
    """The head vertex of every CSR slot as an int64 array (memoized)."""
    return graph.memo(  # type: ignore[return-value]
        ("csr-slot-targets",),
        lambda: np.asarray(graph.targets, dtype=np.int64),
        cost_dependent=False,
    )


def _slot_rows(offsets: Sequence[int]) -> tuple[np.ndarray, int]:
    """The row of every slot of a CSR layout, and the largest row length."""
    lengths = np.diff(np.asarray(offsets, dtype=np.int64))
    rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    return rows, int(lengths.max(initial=0))


def tie_flags(graph: "CompiledGraph", array: np.ndarray) -> np.ndarray:
    """Per vertex: could two of its in-edges tie in a path sum under ``array``?

    Two in-edges ``(u1, v)``, ``(u2, v)`` tie when ``dist[u1] == dist[u2]``
    and the float sums ``dist[u1] + w1`` and ``dist[u2] + w2`` are equal —
    which equal weights guarantee, and nearly equal ones allow: rounding to
    nearest moves each sum by at most ``2**-53`` of its value, and a shortest
    path sum is at most about the total ``T`` of the finite weights, so a tie
    needs ``|w1 - w2| <= 2**-52 * T``.  A vertex is flagged when two in-edge
    weights are within twice that (room for the rounding of ``T`` and of the
    path sums).  Each reverse-CSR slot is compared with the next ``k`` slots
    of its row for every ``k`` below the largest in-degree: O(edges) numpy
    per ``k``; sorting every row (``np.lexsort``) measured 18x slower at
    10^4 vertices.
    """
    n = graph.vertex_count
    tied = np.zeros(n, dtype=bool)
    if not len(array):
        return tied
    heads, most = graph.memo(  # the row (head vertex) of every reverse-CSR slot
        ("sparse-r-heads",),
        lambda: _slot_rows(graph.r_offsets),
        cost_dependent=False,
    )
    weights = array.take(graph.topology.r_slots)
    headroom = 2.0**-51 * float(np.sum(weights, where=np.isfinite(weights)))
    with np.errstate(invalid="ignore"):  # inf - inf: never a tie of finite sums
        for k in range(1, most):
            close = np.abs(weights[k:] - weights[:-k]) <= headroom
            close &= heads[k:] == heads[:-k]
            tied[heads[k:][close]] = True
    return tied


def _certificate(
    graph: "CompiledGraph", key: Hashable, array: np.ndarray, version: int | None
) -> memoryview | None:
    """:func:`tie_flags` of a keyed array as a memoryview of bools, or
    ``None`` when it flags no vertex (memoized per key and cost version)."""

    def build() -> memoryview | None:
        tied = tie_flags(graph, array)
        return memoryview(tied) if tied.any() else None

    return graph.memo(("sparse-tied", key), build, version=version)  # type: ignore[return-value]


def path_reader(
    graph: "CompiledGraph", key: Hashable | None, array: np.ndarray, version: int | None
) -> Callable[[Sequence[float], np.ndarray | None, int, int], list[int] | None]:
    """``read(dist, parents, source, destination)``: the reference path out of
    one scipy search over this cost view, by :func:`reconstruct_path_indices`
    (``dist`` a sequence of floats, ``parents`` the search's predecessor
    array).

    A keyed view reads the search tree, checked by its memoized certificate;
    its reverse weights are only fetched when the certificate flags a vertex
    to scan.  A per-query view (``key`` None) has no certificate, and every
    hop is scanned.
    """
    if key is None:
        r_weights = graph.reverse_weights(None, array, version)
        return lambda dist, parents, source, destination: reconstruct_path_indices(
            graph, dist, r_weights, source, destination
        )
    tied = _certificate(graph, key, array, version)
    r_weights = None if tied is None else graph.reverse_weights(key, array, version)
    return lambda dist, parents, source, destination: reconstruct_path_indices(
        graph, dist, r_weights, source, destination, memoryview(parents), tied
    )


def reconstruct_path_indices(
    graph: "CompiledGraph",
    dist: Sequence[float],
    r_weights: Sequence[float] | None,
    source: int,
    destination: int,
    parents: Sequence[int] | None = None,
    tied: Sequence[bool] | None = None,
) -> list[int] | None:
    """The reference path, read backwards over an exact distance array.

    ``dist`` holds the exact single-source distances from ``source``
    (vertices on no shortest path to ``destination`` may hold ``inf``
    instead) and ``r_weights`` the cost array in reverse CSR slot order.
    Both are any sequence whose items are Python floats: a list, or a
    ``memoryview`` of a float64 array, which makes a float only of the items
    the walk reads.

    At a vertex ``v`` the reference parent is the ``u`` minimizing
    ``(dist[u], u)`` among the exact relaxers (``dist[u] + w(u, v) ==
    dist[v]``).  Without ``parents`` every hop scans ``v``'s in-edges for
    it.  ``parents`` is the predecessor row of the scipy search that
    produced ``dist``, and ``tied`` its cost view's certificate
    (:func:`tie_flags`; ``None``: no vertex flagged, and ``r_weights`` is
    not read).  At a vertex the certificate does not flag, the hop is the
    tree parent ``p``, which is the reference parent:

    - scipy sets ``p`` when a relaxation *strictly* lowers ``dist[v]``, so
      ``p`` is the first relaxer, in settle order, to reach the final value;
      it is an exact relaxer;
    - Dijkstra settles in nondecreasing ``dist``, so an exact relaxer with a
      smaller ``dist`` than ``p`` would have settled and reached the final
      value first: ``dist[p]`` is the least ``dist`` of any exact relaxer;
    - another exact relaxer ``u`` with ``dist[u] == dist[p]`` would need
      ``dist[u] + w == dist[p] + w_p`` for two in-edges of ``v``, which the
      certificate rules out at an unflagged vertex — so ``p`` is the only
      exact relaxer of least ``dist``, the ``(dist[u], u)`` minimum.

    The argument holds for any positive weights the search ran on.  The
    corridor attempt searches a copy whose pruned vertices' in-edges cost
    ``inf``; a vertex on the path has a finite distance, so it is not
    pruned, and its in-edges keep the weights the certificate was built on.

    Returns the reference-identical vertex-index path, or ``None`` on a
    float anomaly (the caller runs the dict-based reference).  Weights must
    be strictly positive or the walk could cycle — callers guard with
    :func:`_all_positive`.
    """
    r_offsets = graph.r_offsets
    r_targets = graph.r_targets

    path = [destination]
    current = destination
    for _ in range(graph.vertex_count):
        if current == source:
            path.reverse()
            return path
        if parents is not None and (tied is None or not tied[current]):
            best = parents[current]
        else:
            best = -1
            best_key: tuple[float, int] | None = None
            dist_v = dist[current]
            for j in range(r_offsets[current], r_offsets[current + 1]):
                u = r_targets[j]
                if dist[u] + r_weights[j] == dist_v:  # type: ignore[index]
                    candidate = (dist[u], u)
                    if best_key is None or candidate < best_key:
                        best_key = candidate
                        best = u
        if best < 0:  # pragma: no cover - float anomaly; the reference answers
            return None
        path.append(best)
        current = best
    return None  # pragma: no cover - cycle guard tripped; the reference answers


def _corridor_distances(
    graph: "CompiledGraph", array: np.ndarray, table: "LandmarkTable", source: int, destination: int
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Distances, search tree and ``limit`` from ``source`` within a
    landmark corridor, or ``None``.

    With ``limit`` = lower bound on the source-destination cost times
    :data:`CORRIDOR_RATIO`, capped by the landmark detour's cost (the upper
    bound, while ``array`` is the table's build array), every vertex ``v``
    on a shortest path of cost ``<= limit`` has ``d(source, v) + d(v,
    destination) <= limit``, so edges into the members of every cell whose
    bound on that sum (:meth:`LandmarkTable.cell_bounds`) exceeds ``limit``
    cost ``inf`` in a scratch copy and the C Dijkstra stops at ``limit``.
    A finite distance at ``destination`` is then exact, as is the distance
    of every vertex on every shortest path to it — all the backward walk
    reads to pick the same predecessors, and the tree's parents of those
    vertices are the walk's
    (:func:`reconstruct_path_indices`); a capped limit always reaches it.
    ``None``: the destination lies beyond ``limit`` (or the bounds say
    nothing, or the pair is too far apart for an uncapped corridor,
    :data:`CORRIDOR_MAX_SPAN`) and the full search must run.
    """
    lower, upper = table.pair_bounds(source, destination)
    if not 0.0 < lower:
        return None
    limit = lower * CORRIDOR_RATIO
    if array is table.build_array and upper * _CORRIDOR_SLACK < limit:
        limit = upper * _CORRIDOR_SLACK
    elif lower > CORRIDOR_MAX_SPAN * table.span:
        return None
    outside = table.cell_bounds(source, destination) > limit * _CORRIDOR_SLACK
    with graph.borrowed_scratch() as scratch:
        np.take(outside, table.slot_cell, out=scratch.pruned)
        np.copyto(scratch.costs, array)
        np.putmask(scratch.costs, scratch.pruned, math.inf)
        if scratch.matrix is None:
            scratch.matrix = _matrix(graph, None, scratch.costs, None)
        distances, parents = _csgraph_dijkstra(
            scratch.matrix, indices=source, return_predecessors=True, limit=limit
        )
    reached = bool(distances[destination] != math.inf)
    table.note_attempt(
        reached and 2 * np.count_nonzero(distances != math.inf) <= len(distances)
    )
    return (distances, parents, limit) if reached else None


def shortest_path_indices(
    graph: "CompiledGraph",
    key: Hashable | None,
    array: np.ndarray,
    source: int,
    destination: int,
    version: int | None = None,
    table: "LandmarkTable | None" = None,
    margins: bool = False,
) -> list[int] | None | tuple[()] | tuple[list[int], np.ndarray, np.ndarray]:
    """Point-to-point shortest path via scipy's C Dijkstra.

    ``version`` is the cost version ``array`` was resolved under; it stamps
    the memoized matrix / positivity / certificate artifacts so a patch
    racing the query cannot leave pre-update data cached as current.
    ``table`` (landmark
    bounds admissible for ``array``) asks for a bounded first attempt, see
    :func:`_corridor_distances`; the path is the same with or without it.
    Returns the vertex-index path, the empty tuple ``()`` when the
    destination is provably unreachable, or ``None`` when the walk cannot
    answer (a zero weight / reconstruction anomaly) and the caller should
    run the dict-based reference.  With ``margins`` a path of two or more
    vertices comes back as ``(path, hops, margins)`` of
    :func:`arrival_margins`, over the search the path was read from.
    """
    if not _all_positive(graph, key, array, version):
        return None
    searched = None
    if table is not None:
        searched = _corridor_distances(graph, array, table, source, destination)
    if searched is None:
        matrix = _matrix(graph, key, array, version)
        if key is None:  # no certificate: no tree to read
            searched = _csgraph_dijkstra(matrix, indices=source), None, None
        else:
            searched = (
                *_csgraph_dijkstra(matrix, indices=source, return_predecessors=True),
                None,
            )
        if searched[0][destination] == math.inf:
            return ()
    distances, parents, limit = searched
    read = path_reader(graph, key, array, version)
    path = read(memoryview(distances), parents, source, destination)
    if not margins or path is None or len(path) < 2:
        return path
    return (path, *arrival_margins(graph, array, distances, path, limit))


def arrival_margins(
    graph: "CompiledGraph",
    array: np.ndarray,
    distances: np.ndarray,
    path: Sequence[int],
    limit: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(hops, margins)`` of ``path``, read off the search that found it:
    ``hops[i]`` is the CSR slot of the path's ``i``-th hop, and
    ``margins[i]`` bounds from below the arrival at the hop's head over any
    other in-edge ``(u, v)``, ``fl(dist[u] + w(u, v))`` with ``dist`` the
    exact distances from the source.  ``distances`` are that search's, over
    ``array``.

    A full search's distances are exact.  A corridor search (``limit`` its
    bound, ``d`` its distance to the destination) has exact distances only
    where the corridor holds every near-shortest path: for an in-neighbour
    ``u`` of a path vertex ``v`` with ``d(u) + w + (d - d(v)) <= limit``
    every vertex of such a path has ``d(s, x) + d(x, t) <= limit``, is
    neither pruned nor cut off, and ``u``'s distance is exact.  Any other
    ``u`` arrives above ``limit - d + d(v)``.  So the margin is the least of
    the corridor's arrivals and that bound, shrunk by
    :data:`_CORRIDOR_SLACK` for the rounding of the float path sums.
    """
    walk = np.asarray(path, dtype=np.int32)
    heads = walk[1:]
    tails, slots = _in_edges(graph).take(heads, axis=2)
    arrivals = distances.take(tails)
    arrivals += array.take(slots)
    on_path = tails == walk[:-1]
    np.putmask(arrivals, on_path, math.inf)
    margins = arrivals.min(axis=0)
    if limit is not None:
        beyond = limit / _CORRIDOR_SLACK - distances[walk[-1]] + distances.take(heads)
        np.minimum(margins, beyond, out=margins)
    return slots.max(axis=0, where=on_path, initial=-1), margins


def _in_edges(graph: "CompiledGraph") -> np.ndarray:
    """The reverse CSR as one int32 ``(2, largest in-degree, vertices)``
    array (memoized): ``[0, k, v]`` and ``[1, k, v]`` are the tail and the
    forward CSR slot of an in-edge of ``v``.  A row shorter than the largest
    in-degree repeats its first in-edge, which changes no minimum (and no
    vertex without in-edges lies on a path after its source)."""
    return graph.memo(  # type: ignore[return-value]
        ("sparse-in-edges",),
        lambda: _padded(graph.r_offsets, graph.r_targets, graph.topology.r_slots),
        cost_dependent=False,
    )


def _out_edges(graph: "CompiledGraph") -> np.ndarray:
    """:func:`_in_edges`' twin over the forward CSR (memoized): ``[0, k, v]``
    and ``[1, k, v]`` are the head and the CSR slot of an out-edge of ``v``,
    a short row repeating its first out-edge — the in-edges of ``v`` in the
    reverse graph, which a reverse search runs on."""
    return graph.memo(  # type: ignore[return-value]
        ("sparse-out-edges",),
        lambda: _padded(
            graph.offsets, graph.targets, np.arange(len(graph.targets), dtype=np.int64)
        ),
        cost_dependent=False,
    )


def _padded(offsets: Sequence[int], neighbours: Sequence[int], slots: np.ndarray) -> np.ndarray:
    """A CSR layout as the ``(2, largest row length, rows)`` int32 array of
    :func:`_in_edges`: neighbour and slot per rank, short rows padded with
    their first entry."""
    offsets = np.asarray(offsets, dtype=np.int64)
    starts = offsets[:-1]
    ranks = np.arange(int(np.diff(offsets).max(initial=0)), dtype=np.int64)[:, None]
    index = np.where(starts + ranks < offsets[1:], starts + ranks, starts)
    index = np.minimum(index, max(len(neighbours) - 1, 0))
    return np.stack(
        [np.asarray(neighbours, dtype=np.int32)[index], slots[index].astype(np.int32)]
    )


def still_reference(
    array: np.ndarray, hops: Sequence[np.ndarray], margins: Sequence[np.ndarray]
) -> np.ndarray:
    """Per cached path (its ``hops`` and ``margins`` from
    :func:`arrival_margins`): is it provably still the reference path under
    the current costs ``array``, all of them at or above those it was found
    under?

    A path passes when every margin is strictly greater than the running
    float sum of its current hop costs, summed left to right as Dijkstra
    sums them: one ``cumsum`` along the rows of a zero-padded matrix, each
    row summed in order and padded after the path's end.
    """
    lengths = np.fromiter(map(len, hops), dtype=np.int64, count=len(hops))
    filled = np.arange(int(lengths.max()), dtype=np.int64) < lengths[:, None]
    sums = np.zeros(filled.shape, dtype=np.float64)
    sums[filled] = array.take(np.concatenate(hops))
    np.cumsum(sums, axis=1, out=sums)
    below = sums[filled] < np.concatenate(margins)
    return np.logical_and.reduceat(below, np.cumsum(lengths) - lengths)
