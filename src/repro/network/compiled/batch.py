"""Batched multi-source SSSP over the compiled CSR arrays.

``dijkstra_many`` answers *k* independent single-source shortest-path
problems over one shared CSR cost view in one ``scipy.sparse.csgraph.dijkstra``
call: no Python runs between sources, but the call holds the GIL, so
threads running searches do not overlap them.  On request it also returns
the predecessor matrix of the search trees (negative = none): a caller that
needs *a* shortest path per row entry rather than the reference's — the
sharding layer's boundary tables — follows it, one int per hop.

``shortest_paths_many`` builds on that: a batch of ``(source, destination)``
pairs shares one distance row and one tree row per distinct source, which is
how an engine's ``route_batch``
(:meth:`~repro.service.engine.BaseEngine.route_batch`) turns the requests of
a ``route_many`` that repeat a source into one row each instead of a search
each, and how the offline fit's Step 1 builds its lowest-cost paths.  Each
path is read off the tree, checked by the cost view's tie certificate, as in
:func:`~repro.network.compiled.sparse.reconstruct_path_indices`, so it is the
reference's path, not merely one of equal cost.  The landmark tables in
:mod:`~repro.network.compiled.landmarks` use ``dijkstra_many`` for their
per-landmark forward/backward distance rows.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from . import sparse

if TYPE_CHECKING:  # pragma: no cover
    from .graph import CompiledGraph


def _reverse_matrix(
    graph: "CompiledGraph",
    key: Hashable | None,
    array: np.ndarray,
    version: int | None,
):
    """A scipy CSR matrix of the reverse (predecessor) graph (memoized)."""
    indptr = graph.memo(
        ("sparse-r-indptr",),
        lambda: np.asarray(graph.r_offsets, dtype=np.int32),
        cost_dependent=False,
    )
    indices = graph.memo(
        ("sparse-r-indices",),
        lambda: np.asarray(graph.r_targets, dtype=np.int32),
        cost_dependent=False,
    )
    n = graph.vertex_count

    def build():
        return sparse._csr_matrix(
            (array[graph.topology.r_slots], indices, indptr), shape=(n, n)
        )

    if key is None:
        return build()
    return graph.memo(("sparse-rmatrix", key), build, version=version)


#: "No predecessor" in a predecessor matrix — scipy's value; readers test ``< 0``.
NO_PREDECESSOR = -9999


def dijkstra_many(
    graph: "CompiledGraph",
    key: Hashable | None,
    array: np.ndarray,
    version: int | None,
    sources: Sequence[int],
    reverse: bool = False,
    return_predecessors: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Distances from every source index at once: a ``(len(sources), n)`` matrix.

    ``reverse=True`` searches the predecessor graph (distances *to* each
    source in the forward graph) — what the backward landmark tables need.
    Unreachable vertices hold ``inf``.  Weights must be non-negative, which
    :meth:`~repro.network.road_network.RoadNetwork.add_edge` and the cost
    constructors guarantee.

    ``return_predecessors=True`` returns ``(distances, predecessors)``:
    ``predecessors[i, j]`` is the vertex before ``j`` in the search tree of
    ``sources[i]`` (an int32 matrix; negative for the source itself and for
    unreached vertices), so following it from ``j`` ends at the source after
    one step per hop.  In a reverse search the tree runs against the edges:
    the "predecessor" of ``j`` is the vertex *after* it on the way to the
    source.  The tree comes out of the same sweep as the distances (at
    1,800 vertices, 64 sources a call: quartiles 237-247 us per source
    without, 238-247 with), and each distance is the float sum of its tree
    path's weights, accumulated from the source.
    """
    if reverse:
        matrix = _reverse_matrix(graph, key, array, version)
    else:
        matrix = sparse._matrix(graph, key, array, version)
    found = sparse._csgraph_dijkstra(
        matrix, indices=list(sources), return_predecessors=return_predecessors
    )
    if not return_predecessors:
        return np.atleast_2d(np.asarray(found, dtype=np.float64))
    distances, predecessors = found
    return (
        np.atleast_2d(np.asarray(distances, dtype=np.float64)),
        np.atleast_2d(np.asarray(predecessors, dtype=np.int32)),
    )


def repair_many(
    graph: "CompiledGraph",
    before: np.ndarray,
    after: np.ndarray,
    distances: np.ndarray,
    predecessors: np.ndarray,
    reverse: bool = False,
) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`dijkstra_many`'s ``(distances, predecessors)``, found over the
    cost array ``before``, brought to ``after`` without searching again:
    new arrays, or the inputs themselves when no entry changes (the inputs
    are never written).  ``None`` when a cost fell: only a batch of rises is
    repaired, the increase case of Ramalingam and Reps (J. Algorithms,
    1996), for every row at once.

    1. The slots whose cost changed; a fall returns ``None``.
    2. Per row, the raised edges that are edges of the row's search tree:
       ``predecessors[row, head] == tail`` (in a reverse search the tree
       runs against the edges, so ``predecessors[row, tail] == head``).
       Their lower ends are marked.
    3. The marks are carried down to every descendant, all rows at once, one
       tree level per pass over flat indices into ``predecessors``: the
       frontier's neighbours one edge further in the search's direction
       whose predecessor is the frontier entry are its children.
    4. Every affected ``(row, vertex)`` is seeded with its cheapest
       *unaffected* in-neighbour in the search's direction,
       ``distances[row, u] + after[slot]``.
    5. One search from a super-source over the stacked subgraphs the rows'
       affected sets induce, its edges to each seeded entry weighted by the
       seed, re-settles them all; distances and predecessors are scattered
       back.

    Exact: an unaffected entry's tree path kept its cost and no distance can
    fall, so its distance stands.  An affected vertex's new shortest path
    enters the affected set from an unaffected vertex for the last time and
    stays inside it after that, which is a path of the stacked search.  A
    seed is ``dist[u] + w``, summed as a full search sums it, so each
    distance is still the float sum of its tree path, accumulated from the
    source.  The tree may differ from a fresh search's where paths tie.
    """
    changed = np.flatnonzero(before != after)
    if (after[changed] < before[changed]).any():
        return None
    rows, n = distances.shape
    if not len(changed) or not rows:
        return distances, predecessors
    if distances.size >= 2**31:
        return None  # the flat indices below are int32
    heads = sparse.slot_targets(graph)[changed]
    tails = graph.topology.tails[changed]
    parents, children = (heads, tails) if reverse else (tails, heads)
    hit_rows, hit = np.nonzero(predecessors[:, children] == parents)
    if not len(hit_rows):
        return distances, predecessors
    # Each step runs in a helper of its own, so that the step's temporaries
    # are freed before the next one allocates.
    marked = (hit_rows * n + children[hit]).astype(np.int32)
    affected = _descendants(graph, predecessors, marked, reverse)
    entries = np.flatnonzero(affected).astype(np.int32)
    seeds, seeded_by = _seeds(graph, distances, after, affected, entries, reverse)
    size = len(entries)
    settled, tree = sparse._csgraph_dijkstra(
        _stacked(graph, after, entries, seeds, rows * n, reverse),
        indices=size,
        return_predecessors=True,
    )
    settled = settled[:size]
    if not np.isfinite(settled).all():
        return None  # not a tree of these costs: the caller searches
    seeded = tree[:size] == size
    parent = entries.take(np.where(seeded, 0, tree[:size])) - (entries - entries % n)
    parent[seeded] = seeded_by[seeded]

    repaired = distances.copy()
    repaired.ravel()[entries] = settled
    rewired = predecessors.copy()
    rewired.ravel()[entries] = parent
    return repaired, rewired


def _descendants(
    graph: "CompiledGraph", predecessors: np.ndarray, marked: np.ndarray, reverse: bool
) -> np.ndarray:
    """Step 3 of :func:`repair_many`: the flat ``(row, vertex)`` entries of
    ``predecessors`` at or below the ``marked`` ones, as a boolean mask."""
    n = predecessors.shape[1]
    affected = np.zeros(predecessors.size, dtype=bool)
    affected[marked] = True
    hops = _next_hops(graph, reverse)[0]
    links = predecessors.ravel()
    frontier = marked
    while len(frontier):
        vertices = frontier % n
        candidates = hops.take(vertices, axis=1) + (frontier - vertices)
        candidates = candidates[links.take(candidates) == vertices]
        frontier = candidates[~affected.take(candidates)]
        affected[frontier] = True
    return affected


def _seeds(
    graph: "CompiledGraph",
    distances: np.ndarray,
    after: np.ndarray,
    affected: np.ndarray,
    entries: np.ndarray,
    reverse: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Step 4 of :func:`repair_many`: per affected entry, the cheapest
    arrival ``distances[row, u] + after[slot]`` over its unaffected
    in-neighbours ``u`` in the search's direction (``inf`` when it has
    none), and that ``u``."""
    vertices = entries % graph.vertex_count
    neighbours, slots = (sparse._out_edges if reverse else sparse._in_edges)(graph).take(
        vertices, axis=2
    )
    sources = neighbours + (entries - vertices)
    arrivals = distances.ravel().take(sources)
    arrivals += after.take(slots)
    arrivals[affected.take(sources)] = np.inf
    best = arrivals.argmin(axis=0)
    columns = np.arange(len(entries), dtype=np.intp)
    return arrivals[best, columns], neighbours[best, columns]


def _stacked(
    graph: "CompiledGraph",
    after: np.ndarray,
    entries: np.ndarray,
    seeds: np.ndarray,
    flat_size: int,
    reverse: bool,
):
    """Step 5 of :func:`repair_many`: the graph the re-settling search runs
    on, as a scipy CSR matrix — one vertex per affected entry, in
    ``entries``' order, with its edges to the affected entries of its own
    row at the costs ``after``, then a super-source with an edge to every
    entry of finite seed, weighted by the seed."""
    hops, hop_slots = _next_hops(graph, reverse)
    size = len(entries)
    vertices = entries % graph.vertex_count
    heads = hops.take(vertices, axis=1).T + (entries - vertices)[:, None]
    compact = np.full(flat_size, -1, dtype=np.int32)
    compact[entries] = np.arange(size, dtype=np.int32)
    inner = compact.take(heads)
    kept = (inner >= 0) & (heads != entries[:, None])
    reached = np.isfinite(seeds)
    indptr = np.zeros(size + 2, dtype=np.int32)
    np.cumsum(kept.sum(axis=1), out=indptr[1 : size + 1])
    indptr[size + 1] = indptr[size] + int(reached.sum())
    return sparse._csr_matrix(
        (
            np.concatenate([after.take(hop_slots.take(vertices, axis=1).T[kept]), seeds[reached]]),
            np.concatenate([inner[kept], np.flatnonzero(reached).astype(np.int32)]),
            indptr,
        ),
        shape=(size + 1, size + 1),
    )


def _next_hops(graph: "CompiledGraph", reverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per rank and vertex, the edges one step further in a search's
    direction — :func:`~repro.network.compiled.sparse._out_edges`, or with
    ``reverse`` :func:`~repro.network.compiled.sparse._in_edges` — as int32
    ``(vertices, slots)``, a short row's vertices padded with the vertex
    itself: never its own child nor its own edge, so each edge is listed
    once (memoized)."""

    def build() -> tuple[np.ndarray, np.ndarray]:
        padded = (sparse._in_edges if reverse else sparse._out_edges)(graph)
        offsets = np.asarray(graph.r_offsets if reverse else graph.offsets, dtype=np.int64)
        ranks = np.arange(padded.shape[1], dtype=np.int64)[:, None]
        itself = np.arange(graph.vertex_count, dtype=np.int32)
        return np.where(ranks < np.diff(offsets), padded[0], itself), padded[1]

    return graph.memo(("batch-next-hops", reverse), build, cost_dependent=False)  # type: ignore[return-value]


def shortest_paths_many(
    graph: "CompiledGraph",
    key: Hashable | None,
    array: np.ndarray,
    version: int | None,
    pairs: Sequence[tuple[int, int]],
) -> list[list[int] | tuple[()] | None] | None:
    """Point-to-point paths for a batch of index pairs sharing cost view.

    Pairs are grouped by source so each distinct source pays one SSSP; each
    destination's reference-identical path is then read off its source's
    tree row, with an in-edge scan at the vertices the keyed view's
    certificate flags, and at every hop of a per-query view (``key`` None),
    which has none (:func:`~repro.network.compiled.sparse.path_reader`).
    Returns ``None`` when the walk cannot answer at all (a zero weight,
    where it could cycle); otherwise a list aligned with ``pairs`` whose
    entries are index paths, the empty tuple ``()`` for a provably
    unreachable destination, or ``None`` for a pair the caller must answer
    with the per-query search (reconstruction anomaly).
    """
    if not pairs:
        return []
    if not sparse._all_positive(graph, key, array, version):
        return None

    by_source: dict[int, int] = {}
    for source, _ in pairs:
        if source not in by_source:
            by_source[source] = len(by_source)
    distances, predecessors = dijkstra_many(
        graph, key, array, version, list(by_source), return_predecessors=True
    )

    read = sparse.path_reader(graph, key, array, version)
    rows: dict[int, tuple[memoryview, np.ndarray]] = {}
    results: list[list[int] | tuple[()] | None] = []
    for source, destination in pairs:
        row = rows.get(source)
        if row is None:
            # The walk reads a few hundred of the row's items: no list of all.
            index = by_source[source]
            row = rows[source] = (memoryview(distances[index]), predecessors[index])
        if source == destination:
            results.append([source])
            continue
        if math.isinf(row[0][destination]):
            results.append(())
            continue
        results.append(read(*row, source, destination))
    return results
