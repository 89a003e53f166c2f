"""Optional scipy-accelerated SSSP over the compiled CSR arrays.

The :class:`~repro.network.compiled.graph.CompiledGraph` layout (``offsets`` /
``targets`` / flat cost arrays) *is* scipy's native CSR format, so when scipy
is installed point-to-point Dijkstra runs ``scipy.sparse.csgraph.dijkstra``
(a C implementation) for the distance array and reconstructs the path with a
deterministic backward walk.

The walk picks, at every vertex ``v``, the predecessor ``u`` minimizing
``(dist[u], u)`` among those with ``dist[u] + w(u, v) == dist[v]`` exactly —
which is provably the parent the dict-based reference Dijkstra records (the
first equal-cost relaxer to settle wins there, and settle order is
``(dist, index)``-lexicographic), so the reconstructed path is identical to
the reference one, not merely cost-identical.

Everything degrades gracefully: without scipy, with non-positive weights
(where the backward walk could cycle), or on any reconstruction anomaly the
caller falls back to the pure-python array kernels.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

try:  # scipy is optional; the pure-python kernels cover its absence.
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

    HAVE_SCIPY = True
except Exception:  # pragma: no cover - exercised only without scipy
    _csr_matrix = None
    _csgraph_dijkstra = None
    HAVE_SCIPY = False

if TYPE_CHECKING:  # pragma: no cover
    from .graph import CompiledGraph


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
    """Strictly positive weights guarantee the backward walk terminates."""
    if key is None:
        return bool(array.size == 0 or array.min() > 0.0)
    return bool(
        graph.memo(
            ("sparse-positive", key),
            lambda: array.size == 0 or array.min() > 0.0,
            version=version,
        )
    )


def reconstruct_path_indices(
    graph: "CompiledGraph",
    dist: list[float],
    r_weights: Sequence[float],
    source: int,
    destination: int,
) -> list[int] | None:
    """The deterministic backward walk over an exact distance array.

    ``dist`` is the full single-source distance list from ``source`` (any
    exact Dijkstra backend — scipy's C implementation or the python array
    kernel — produces suitable values) and ``r_weights`` the cost array in
    reverse CSR slot order (any sequence whose items are Python floats: a
    list, or a ``memoryview`` of a float64 array, which makes a float only
    of the items the walk reads).  Returns the reference-identical vertex-index
    path, or ``None`` on a float anomaly (the caller falls back to the
    exact per-query kernel).  Weights must be strictly positive or the walk
    could cycle — callers guard with :func:`_all_positive`.
    """
    r_offsets = graph.r_offsets
    r_targets = graph.r_targets

    path = [destination]
    current = destination
    for _ in range(graph.vertex_count):
        if current == source:
            path.reverse()
            return path
        best = -1
        best_key: tuple[float, int] | None = None
        dist_v = dist[current]
        for j in range(r_offsets[current], r_offsets[current + 1]):
            u = r_targets[j]
            if dist[u] + r_weights[j] == dist_v:
                candidate = (dist[u], u)
                if best_key is None or candidate < best_key:
                    best_key = candidate
                    best = u
        if best < 0:  # pragma: no cover - float anomaly; use the exact kernel
            return None
        path.append(best)
        current = best
    return None  # pragma: no cover - cycle guard tripped; use the exact kernel


def reconstruct_path_indices_forward(
    graph: "CompiledGraph",
    dist_to: list[float],
    weights: list[float],
    source: int,
    destination: int,
) -> list[int] | None:
    """The deterministic forward walk over exact distances *to* a target.

    Mirror of :func:`reconstruct_path_indices` for callers holding a reverse
    SSSP row: ``dist_to`` is the full distance list into ``destination`` and
    ``weights`` the cost array in forward CSR slot order.  At every vertex
    the successor minimizing ``(dist_to[v], v)`` among exact relaxers is
    chosen, so the walk is deterministic and cost-exact.  Same strict
    positivity requirement — callers guard with :func:`_all_positive`.
    """
    offsets = graph.offsets
    targets = graph.targets

    path = [source]
    current = source
    for _ in range(graph.vertex_count):
        if current == destination:
            return path
        best = -1
        best_key: tuple[float, int] | None = None
        dist_u = dist_to[current]
        for j in range(offsets[current], offsets[current + 1]):
            v = targets[j]
            if weights[j] + dist_to[v] == dist_u:
                candidate = (dist_to[v], v)
                if best_key is None or candidate < best_key:
                    best_key = candidate
                    best = v
        if best < 0:  # pragma: no cover - float anomaly; use the exact kernel
            return None
        path.append(best)
        current = best
    return None  # pragma: no cover - cycle guard tripped; use the exact kernel


def shortest_path_indices(
    graph: "CompiledGraph",
    key: Hashable | None,
    array: np.ndarray,
    source: int,
    destination: int,
    version: int | None = None,
) -> list[int] | None | tuple[()]:
    """Point-to-point shortest path via scipy's C Dijkstra.

    ``version`` is the cost version ``array`` was resolved under; it stamps
    the memoized matrix / positivity artifacts so a patch racing the query
    cannot leave pre-update data cached as current.  Returns the vertex-index
    path, the empty tuple ``()`` when the destination is provably
    unreachable, or ``None`` when this backend cannot answer (scipy missing /
    non-positive weights / reconstruction anomaly) and the pure-python kernel
    should run instead.
    """
    if not HAVE_SCIPY or not _all_positive(graph, key, array, version):
        return None
    matrix = _matrix(graph, key, array, version)
    distances = _csgraph_dijkstra(matrix, indices=source, return_predecessors=False)
    if not np.isfinite(distances[destination]):
        return ()

    dist = distances.tolist()
    r_weights = graph.reverse_weights(key, array, version)
    return reconstruct_path_indices(graph, dist, r_weights, source, destination)
