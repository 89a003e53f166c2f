"""Dispatch from the public routing functions onto the compiled kernels.

The functions here are the bridge between the dict-based routing API
(:mod:`repro.routing`) and the CSR kernels.  Each ``try_*`` function returns

* a vertex-id path (or cost rows) when the compiled kernel ran,
* ``None`` when the query is not eligible — compiled search disabled, the
  edge-cost callable opaque, or (A*) no landmark table to run on — in which
  case the caller falls back to its dict-based reference implementation,

and raises :class:`~repro.exceptions.NoPathError` when the kernel ran and
proved the destination unreachable.

This module deliberately imports nothing from :mod:`repro.routing` (the
routing modules import *it*), keeping the dependency graph acyclic.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Hashable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ...exceptions import NoPathError
from . import sparse
from .kernels import astar_kernel, bidirectional_kernel, dijkstra_kernel

if TYPE_CHECKING:  # pragma: no cover
    from ..road_network import RoadNetwork, VertexId
    from .graph import CompiledGraph

_enabled = True
_alt_enabled = True


def is_enabled() -> bool:
    """Whether routing functions dispatch to the compiled kernels."""
    return _enabled


@contextmanager
def compiled_disabled() -> Iterator[None]:
    """Force the dict-based reference searches.

    The switch that reaches the oracle, not a serving mode: tests and the
    end-to-end output checks compare compiled answers against what runs
    under it.  A contraction hierarchy is prebuilt array state, not a search
    with a dict twin: ``ch_shortest_path`` runs the same query either way.
    """
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


@contextmanager
def alt_disabled() -> Iterator[None]:
    """Turn off goal-directed (ALT) search.

    ALT-A* and ALT-bidirectional answers are cost-optimal but may pick a
    different equal-cost path than the dict-based references.  Under this
    context A* runs :func:`~repro.routing.astar.dict_astar` with the
    caller's heuristic and the bidirectional search its plain kernel, which
    the exact path-identity tests compare against the references.
    """
    global _alt_enabled
    previous = _alt_enabled
    _alt_enabled = False
    try:
        yield
    finally:
        _alt_enabled = previous


def _resolved(
    network: "RoadNetwork", edge_cost
) -> tuple["CompiledGraph", Hashable | None, np.ndarray, int] | None:
    """``(graph, cache key, cost array, cost version)`` for a query the
    compiled kernels can run, else ``None``: the cost callable is opaque, or
    compiled search is disabled.

    The callable is checked *before* touching ``network.compiled()`` so
    opaque costs never trigger (and then discard) a CSR compilation.
    """
    if not _enabled or not (
        getattr(edge_cost, "cost_attr", None) is not None
        or getattr(edge_cost, "cost_terms", None) is not None
        or getattr(edge_cost, "build_cost_array", None) is not None
    ):
        return None
    accessor = getattr(network, "compiled", None)
    if accessor is None:
        return None
    graph = accessor()
    resolved = graph.resolve_cost(edge_cost)
    if resolved is None:
        return None
    return (graph, *resolved)


#: The bounded first attempt of :func:`try_dijkstra` pays two landmark-bound
#: passes and an O(edges) pruning pass per query, and a landmark build per
#: attribute cost view; below this vertex count the full C search is as
#: fast.  Gain over the full search on grid cities: 40x40 1.01x, 50x50 1.02x,
#: 55x55 1.20x, 60x60 1.17x, 80x80 1.31x, 100x100 1.40x, 140x140 1.66x.
BOUNDED_DIJKSTRA_MIN_VERTICES = 3_000


def try_dijkstra(
    network: "RoadNetwork",
    source: "VertexId",
    destination: "VertexId",
    edge_cost,
) -> list["VertexId"] | None:
    """Compiled point-to-point Dijkstra (see module docstring for protocol)."""
    resolved = _resolved(network, edge_cost)
    if resolved is None:
        return None
    graph, key, array, version = resolved
    source_index = graph.index_of[source]
    destination_index = graph.index_of[destination]
    # Fast path: scipy's C Dijkstra over the same CSR arrays, with an exact
    # (reference-identical) path reconstruction.  A full SSSP has no
    # destination early-stop; in C that still beats the early-exiting python
    # kernel below once a query settles more than about a sixth of the graph,
    # memoized matrix (keyed arrays) or not (per-query arrays, key None, e.g.
    # corridor costs).  Keyed arrays on graphs large enough first try a search
    # bounded by the landmark table.  Only the attribute views, a fixed few,
    # get a table built for that (16 SSSPs): a weighted or per-driver view may
    # be new with every request and is bounded only by a table something else
    # already built.
    table = None
    if graph.vertex_count >= BOUNDED_DIJKSTRA_MIN_VERTICES and _alt_enabled and key is not None:
        table = graph.landmark_table(key, array, version, build=key[0] == "attr")
        if table is not None and not table.wants_attempt():
            table = None
    result = sparse.shortest_path_indices(
        graph, key, array, source_index, destination_index, version, table
    )
    if result == ():
        raise NoPathError(source, destination)
    if result is not None:
        return graph.path_ids(result)
    weights = graph.forward_weights(key, array, version)
    with graph.borrowed_workspace() as ws:
        indices = dijkstra_kernel(
            graph.offsets, graph.targets, weights, source_index, destination_index, ws
        )
    if indices is None:
        raise NoPathError(source, destination)
    return graph.path_ids(indices)


def _alt_table(graph: "CompiledGraph", key, array, version):
    """The landmark table for this cost view, or ``None`` when ALT is off."""
    if not _alt_enabled or key is None:
        return None
    return graph.landmark_table(key, array, version)


def try_astar(
    network: "RoadNetwork",
    source: "VertexId",
    destination: "VertexId",
    edge_cost,
) -> list["VertexId"] | None:
    """Compiled ALT A*: the landmark lower bounds are the heuristic.

    One vectorized bound pass per query, then pure lookups inside the
    kernel; on road networks the bounds are far tighter than geometric ones.
    Returns ``None`` when there is no landmark table to run on — opaque or
    per-query cost, compiled search or ALT disabled — and the caller runs
    its dict reference with its own heuristic.
    """
    resolved = _resolved(network, edge_cost)
    if resolved is None:
        return None
    graph, key, array, version = resolved
    table = _alt_table(graph, key, array, version)
    if table is None:
        return None
    weights = graph.forward_weights(key, array, version)
    destination_index = graph.index_of[destination]
    # The kernel reads the bounds of the vertices it opens, out of the buffer.
    with graph.borrowed_workspace() as ws, graph.borrowed_scratch() as scratch:
        indices = astar_kernel(
            graph.offsets,
            graph.targets,
            weights,
            graph.index_of[source],
            destination_index,
            memoryview(table.bounds_to(destination_index, scratch)),
            ws,
        )
    if indices is None:
        raise NoPathError(source, destination)
    return graph.path_ids(indices)


#: Sentinel: the ALT-bidirectional path could not run (fall through to plain).
_ALT_SKIP = object()

#: ALT-bidirectional pays O(edges) per query up front (reduced-cost arrays +
#: list conversions, since the potentials depend on the endpoints).  Past
#: this edge count that setup can outweigh the pruning on queries whose
#: frontiers settle only a small fraction of the graph, so the plain kernel
#: runs instead.  ALT-A* is unaffected: its per-query work is O(k * vertices)
#: numpy plus one O(vertices) list conversion.
ALT_BIDIRECTIONAL_MAX_EDGES = 200_000


def _bidirectional_alt_indices(
    graph: "CompiledGraph", key, array, version, table, source_index, destination_index
):
    """Goal-directed bidirectional search via consistent average potentials.

    With ``p(v) = (pi_t(v) - pi_s(v)) / 2`` the forward and backward reduced
    edge costs coincide (``w'(u,v) = w(u,v) - p(u) + p(v) >= 0`` by
    consistency of the landmark bounds), so the *plain* bidirectional
    kernel — stopping rule included — runs unchanged on the reduced arrays
    and returns a path that is optimal under the true costs.  Returns the
    index path, ``None`` for unreachable, or :data:`_ALT_SKIP` when the
    potentials are unusable (non-finite entries on partially reachable
    graphs) and the caller should run the plain kernel.
    """
    with graph.borrowed_scratch() as scratch, graph.borrowed_workspace() as ws:
        potentials = table.bounds_to(destination_index, scratch)
        with np.errstate(invalid="ignore"):  # inf - inf on partially reachable graphs
            potentials -= table.bounds_from(source_index, scratch)
        potentials *= 0.5
        if not np.isfinite(potentials).all():
            return _ALT_SKIP
        slot_sources = graph.memo(
            ("csr-slot-sources",),
            lambda: np.repeat(
                np.arange(graph.vertex_count, dtype=np.int64),
                np.diff(np.asarray(graph.offsets, dtype=np.int64)),
            ),
            cost_dependent=False,
        )
        # reduced = array - p[tail] + p[head], in the scratch buffers.
        reduced, r_reduced = scratch.costs, scratch.r_costs
        np.subtract(array, potentials.take(slot_sources, out=r_reduced), out=reduced)
        reduced += potentials.take(sparse.slot_targets(graph), out=r_reduced)
        # Mathematically >= 0; clip the float-rounding dust so Dijkstra's
        # invariant holds (the perturbation is ~ulp-sized and cost-neutral).
        np.maximum(reduced, 0.0, out=reduced)
        reduced.take(graph.topology.r_slots, out=r_reduced)
        # The frontiers read the weights of the edges they relax, not all.
        return bidirectional_kernel(
            graph.offsets,
            graph.targets,
            memoryview(reduced),  # type: ignore[arg-type]
            graph.r_offsets,
            graph.r_targets,
            memoryview(r_reduced),  # type: ignore[arg-type]
            source_index,
            destination_index,
            ws,
        )


def try_bidirectional(
    network: "RoadNetwork",
    source: "VertexId",
    destination: "VertexId",
    edge_cost,
) -> list["VertexId"] | None:
    """Compiled bidirectional Dijkstra over the forward and reverse CSR.

    With ALT enabled and a cacheable cost view, both frontiers run on
    landmark-reduced costs (goal-directed from each end); otherwise — and
    whenever the potentials cannot cover the whole graph — the plain
    mirror-of-the-reference kernel runs.
    """
    resolved = _resolved(network, edge_cost)
    if resolved is None:
        return None
    graph, key, array, version = resolved
    source_index = graph.index_of[source]
    destination_index = graph.index_of[destination]

    table = None
    if graph.edge_count <= ALT_BIDIRECTIONAL_MAX_EDGES:
        table = _alt_table(graph, key, array, version)
    if table is not None:
        indices = _bidirectional_alt_indices(
            graph, key, array, version, table, source_index, destination_index
        )
        if indices is not _ALT_SKIP:
            if indices is None:
                raise NoPathError(source, destination)
            return graph.path_ids(indices)

    weights = graph.forward_weights(key, array, version)
    r_weights = graph.reverse_weights(key, array, version)
    with graph.borrowed_workspace() as ws:
        indices = bidirectional_kernel(
            graph.offsets,
            graph.targets,
            weights,
            graph.r_offsets,
            graph.r_targets,
            r_weights,
            source_index,
            destination_index,
            ws,
        )
    if indices is None:
        raise NoPathError(source, destination)
    return graph.path_ids(indices)


def try_route_many(
    network: "RoadNetwork",
    pairs: list[tuple["VertexId", "VertexId"]],
    edge_cost,
) -> list[list["VertexId"] | tuple[()] | None] | None:
    """Batch point-to-point search over one shared cost view.

    Returns ``None`` when the batch backend cannot run at all (opaque cost,
    compiled search disabled, non-positive weights); otherwise a list
    aligned with ``pairs``: a vertex-id path, the empty tuple ``()`` for a
    provably unreachable pair, or ``None`` for a pair that must fall back
    to the per-request path (unknown vertex / reconstruction anomaly).
    Paths are reference-identical to per-query compiled Dijkstra.
    """
    resolved = _resolved(network, edge_cost)
    if resolved is None:
        return None
    graph, key, array, version = resolved

    from . import batch

    index_of = graph.index_of
    index_pairs: list[tuple[int, int]] = []
    positions: list[int] = []
    results: list[list["VertexId"] | tuple[()] | None] = [None] * len(pairs)
    for position, (source, destination) in enumerate(pairs):
        s = index_of.get(source)
        t = index_of.get(destination)
        if s is None or t is None:
            continue  # unknown vertex: the per-request path raises properly
        index_pairs.append((s, t))
        positions.append(position)

    answered = batch.shortest_paths_many(graph, key, array, version, index_pairs)
    if answered is None:
        return None
    for position, answer in zip(positions, answered):
        if isinstance(answer, list):
            results[position] = graph.path_ids(answer)
        elif answer == ():
            results[position] = ()
    return results


class CostRows(NamedTuple):
    """Batched SSSP rows of one network and cost view, with the search trees.

    ``costs[row_of[s], column_of[v]]`` is the cost from source ``s`` to
    vertex ``v`` — in ``reverse`` rows, from ``v`` *to* ``s`` — ``inf`` when
    unreachable; ``predecessors`` is the matrix described at
    :func:`~repro.network.compiled.batch.dijkstra_many`.
    """

    costs: np.ndarray
    predecessors: np.ndarray
    row_of: Mapping["VertexId", int]
    column_of: Mapping["VertexId", int]
    vertex_ids: Sequence["VertexId"]
    reverse: bool

    def path(
        self, source: "VertexId", vertex: "VertexId"
    ) -> list["VertexId"] | tuple[()] | None:
        """The path the cost between ``source`` and ``vertex`` is the price
        of, in travel order: from ``source`` to ``vertex``, in reverse rows
        from ``vertex`` to ``source``.

        Read off the source's predecessor row, one int per hop.  ``()`` when
        the search did not reach ``vertex``; ``None`` when the chain breaks
        off before the source or outruns the vertex count — the rows are not
        a search tree, and the caller must search.
        """
        vertex_ids = self.vertex_ids
        chain = memoryview(self.predecessors[self.row_of[source]])
        end = self.column_of[source]
        current = self.column_of[vertex]
        path = [vertex]
        for _ in range(len(vertex_ids)):
            if current == end:
                if not self.reverse:
                    path.reverse()
                return path
            current = chain[current]
            if current < 0:
                return () if len(path) == 1 else None
            path.append(vertex_ids[current])
        return None


def try_cost_rows(
    network: "RoadNetwork",
    sources: list["VertexId"],
    edge_cost,
    reverse: bool = False,
) -> CostRows | None:
    """Batched SSSP cost rows, one per source, over one shared cost view.

    Returns ``None`` when the batch backend cannot run — opaque cost,
    compiled search disabled, or an unknown source vertex.  The sharding
    layer's boundary tables are the primary caller.
    """
    resolved = _resolved(network, edge_cost)
    if resolved is None:
        return None
    graph, key, array, version = resolved
    index_of = graph.index_of
    source_indices: list[int] = []
    for source in sources:
        index = index_of.get(source)
        if index is None:
            return None
        source_indices.append(index)

    from . import batch

    costs, predecessors = batch.dijkstra_many(
        graph, key, array, version, source_indices, reverse=reverse, return_predecessors=True
    )
    row_of = {source: row for row, source in enumerate(sources)}
    return CostRows(costs, predecessors, row_of, index_of, graph.vertex_ids, reverse)
