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
