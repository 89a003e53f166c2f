"""Dispatch from the public routing functions onto the compiled searches.

The functions here are the bridge between the dict-based routing API
(:mod:`repro.routing`) and scipy's C Dijkstra over the CSR arrays: one
point-to-point search (:func:`try_dijkstra`, bounded first by the landmark
corridor on large graphs), one batch of point-to-point searches
(:func:`try_route_many`) and batched cost rows (:func:`try_cost_rows`), which
:func:`repair_cost_rows` brings forward after a batch of cost rises.
Each ``try_*`` function returns

* a vertex-id path (or cost rows) when the compiled search ran,
* ``None`` when the query is not eligible — compiled search disabled, the
  edge-cost callable opaque, or a zero weight in the cost view — in which
  case the caller falls back to its dict-based reference implementation,

and raises :class:`~repro.exceptions.NoPathError` when the search ran and
proved the destination unreachable.

Inside :func:`proving` a point-to-point search over the armed cost view
also leaves a :class:`RouteProof` of its path, and :func:`reprove` decides,
after costs rose, which of those paths are still the reference path (the
route cache's traffic invalidation; see :mod:`~repro.network.compiled.sparse`
for the rule and its proof).

This module deliberately imports nothing from :mod:`repro.routing` (the
routing modules import *it*), keeping the dependency graph acyclic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Hashable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ...exceptions import NoPathError
from . import sparse

if TYPE_CHECKING:  # pragma: no cover
    from ..road_network import RoadNetwork, VertexId
    from .graph import CompiledGraph

_enabled = True
_alt_enabled = True
class _Armed(threading.local):
    """Per thread, ``(edge_cost, proofs)`` while :func:`proving` is armed
    (the class attribute answers every thread that never armed it)."""

    armed: "tuple[object, list[RouteProof]] | None" = None


_local = _Armed()


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
    """Turn off the landmark corridor of :func:`try_dijkstra`.

    Under this context the point-to-point search is the full scipy SSSP,
    with no bounded first attempt: the reference the corridor tests compare
    the bounded answers against, path for path.
    """
    global _alt_enabled
    previous = _alt_enabled
    _alt_enabled = False
    try:
        yield
    finally:
        _alt_enabled = previous


class RouteProof(NamedTuple):
    """What re-proves one point-to-point answer after costs rose.

    ``hops`` and ``margins`` are :func:`~repro.network.compiled.sparse.
    arrival_margins` of ``vertices`` on ``graph``, the compiled snapshot the
    search ran on, under ``edge_cost``; ``topology_version`` is the
    network's at the search.
    """

    network: "RoadNetwork"
    topology_version: int
    graph: "CompiledGraph"
    edge_cost: object
    vertices: tuple["VertexId", ...]
    hops: np.ndarray
    margins: np.ndarray


class proving:
    """Arm this thread: every :func:`try_dijkstra` over ``edge_cost`` (the
    same object) that runs inside appends the :class:`RouteProof` of its
    path to the list ``with`` yields.  Searches over other costs, per-query
    cost arrays and dict-reference fallbacks leave none.  (A class, not a
    generator: every cached miss enters one.)"""

    __slots__ = ("_armed", "_previous")

    def __init__(self, edge_cost) -> None:
        self._armed = (edge_cost, [])

    def __enter__(self) -> list[RouteProof]:
        self._previous = _local.armed
        _local.armed = self._armed
        return self._armed[1]

    def __exit__(self, *exc_info) -> None:
        _local.armed = self._previous


def reprove(proofs: Sequence[RouteProof]) -> list[bool]:
    """Per proof: is its path provably still the reference path now?

    Valid only while every cost of the proof's view is at or above what it
    was at the search (the caller drops proofs when a cost falls).  A proof
    passes only while its graph is still its network's live compiled
    snapshot — a topology change retires it — and then by
    :func:`~repro.network.compiled.sparse.still_reference` at the view's
    current costs, one pass per graph and cost view.
    """
    kept = [False] * len(proofs)
    groups: dict[tuple, list[int]] = {}
    for position, proof in enumerate(proofs):
        groups.setdefault(proof[:4], []).append(position)
    for (network, version, graph, edge_cost), members in groups.items():
        if network.topology_version != version or network.compiled() is not graph:
            continue
        resolved = graph.resolve_cost(edge_cost)
        if resolved is None or resolved[0] is None:
            continue
        passed = sparse.still_reference(
            resolved[1],
            [proofs[position].hops for position in members],
            [proofs[position].margins for position in members],
        )
        for position, ok in zip(members, passed.tolist()):
            kept[position] = ok
    return kept


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


#: The bounded first attempt of :func:`try_dijkstra` pays a per-cell bound
#: pass and an O(edges) pruning pass per query, and a landmark build per
#: attribute cost view.  Gain over the full search on grid cities (600
#: uniform pairs, travel time and distance alternating, median of 5 runs):
#: 40x40 1.31x, 50x50 1.56x, 55x55 1.63x, 60x60 1.65x, 80x80 2.06x, 100x100
#: 1.89x.  The crossover lies below 40x40; the bound stays where it is, so
#: a city's few hundred vertices and a shard's build no landmark tables.
BOUNDED_DIJKSTRA_MIN_VERTICES = 3_000


def try_dijkstra(
    network: "RoadNetwork",
    source: "VertexId",
    destination: "VertexId",
    edge_cost,
) -> Sequence["VertexId"] | None:
    """Compiled point-to-point Dijkstra (see module docstring for protocol)."""
    resolved = _resolved(network, edge_cost)
    if resolved is None:
        return None
    graph, key, array, version = resolved
    source_index = graph.index_of[source]
    destination_index = graph.index_of[destination]
    # scipy's C Dijkstra over the same CSR arrays, with an exact
    # (reference-identical) path reconstruction.  Keyed arrays on graphs
    # large enough first try a search bounded by the landmark table.  Only
    # the attribute views, a fixed few, get a table built for that (16
    # SSSPs): a weighted or per-driver view may be new with every request and
    # is bounded only by a table something else already built.
    table = None
    if graph.vertex_count >= BOUNDED_DIJKSTRA_MIN_VERTICES and _alt_enabled and key is not None:
        table = graph.landmark_table(key, array, version, build=key[0] == "attr")
        if table is not None and not table.wants_attempt():
            table = None
    armed = _local.armed
    prove = armed is not None and armed[0] is edge_cost and key is not None
    result = sparse.shortest_path_indices(
        graph, key, array, source_index, destination_index, version, table, prove
    )
    if result == ():
        raise NoPathError(source, destination)
    if result is None:
        return None
    if not prove or isinstance(result, list):  # a one-vertex path has no proof
        return graph.path_ids(result)
    indices, hops, margins = result
    # A tuple, which ``Path.of`` adopts as is: the proof shares the path's.
    vertices = tuple(graph.path_ids(indices))
    armed[1].append(
        RouteProof(
            network, network.topology_version, graph, edge_cost, vertices, hops, margins
        )
    )
    return vertices


def try_route_many(
    network: "RoadNetwork",
    pairs: list[tuple["VertexId", "VertexId"]],
    edge_cost,
) -> list[list["VertexId"] | tuple[()] | None] | None:
    """Batch point-to-point search over one shared cost view.

    Returns ``None`` when the batch backend cannot run at all (opaque cost,
    compiled search disabled, a zero weight); otherwise a list
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


def repair_cost_rows(
    network: "RoadNetwork", rows: CostRows, before: np.ndarray, after: np.ndarray
) -> CostRows | None:
    """``rows``, priced over the network's cost array ``before``, repaired
    to its array ``after`` (:func:`~repro.network.compiled.batch.repair_many`):
    a new :class:`CostRows`, with the same sources.

    Returns ``None`` when the repair cannot run — a cost fell, compiled
    search is disabled, or the rows were not read off the network's current
    compiled snapshot — and the caller runs :func:`try_cost_rows` instead.
    """
    if not _enabled:
        return None
    graph = network.compiled()
    if rows.column_of is not graph.index_of:
        return None
    from . import batch

    repaired = batch.repair_many(
        graph, before, after, rows.costs, rows.predecessors, reverse=rows.reverse
    )
    if repaired is None:
        return None
    return rows._replace(costs=repaired[0], predecessors=repaired[1])
