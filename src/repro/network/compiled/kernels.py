"""Array-based search kernels over a CSR graph.

Each kernel mirrors one of the dict-based reference implementations in
:mod:`repro.routing` *exactly* — same relaxation order, same strict-less
tie-breaking, same termination conditions — so the two produce identical
paths, not merely cost-identical ones.  (Vertex indices are assigned in sorted
vertex-id order and CSR slots preserve adjacency insertion order, which makes
heap tie-breaking order-isomorphic to the dict kernels'.)

The kernels work on plain Python lists (CSR ``offsets`` / ``targets`` plus a
per-query ``weights`` list) and a generation-stamped
:class:`~repro.network.compiled.workspace.SearchWorkspace`; they allocate
nothing per query beyond the heap itself.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable

from .workspace import SearchWorkspace

_INF = math.inf


def _walk_parents(parent: list[int], source: int, destination: int) -> list[int]:
    """Vertex-index path from ``source`` to ``destination`` via parent links."""
    out = [destination]
    current = destination
    while current != source:
        current = parent[current]
        out.append(current)
    out.reverse()
    return out


def dijkstra_kernel(
    offsets: list[int],
    targets: list[int],
    weights: list[float],
    source: int,
    destination: int,
    ws: SearchWorkspace,
) -> list[int] | None:
    """Point-to-point Dijkstra; returns the index path or ``None``."""
    gen = ws.begin()
    dist = ws.dist
    parent = ws.parent
    stamp = ws.stamp
    dist[source] = 0.0
    stamp[source] = gen
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        cost_u, u = heappop(heap)
        if cost_u > dist[u]:
            continue
        if u == destination:
            return _walk_parents(parent, source, destination)
        for i in range(offsets[u], offsets[u + 1]):
            v = targets[i]
            candidate = cost_u + weights[i]
            if stamp[v] != gen:
                if candidate != _INF:
                    stamp[v] = gen
                    dist[v] = candidate
                    parent[v] = u
                    heappush(heap, (candidate, v))
            elif candidate < dist[v]:
                dist[v] = candidate
                parent[v] = u
                heappush(heap, (candidate, v))
    return None


def dijkstra_costs_kernel(
    offsets: list[int],
    targets: list[int],
    weights: list[float],
    source: int,
    ws: SearchWorkspace,
) -> list[tuple[int, float]]:
    """Single-source settle order: ``(vertex index, cost)`` pairs.

    On return ``ws.parent`` holds the search-tree parent of every settled
    vertex but ``source`` (other slots are stale).
    """
    gen = ws.begin()
    dist = ws.dist
    parent = ws.parent
    stamp = ws.stamp
    dist[source] = 0.0
    stamp[source] = gen
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled: list[tuple[int, float]] = []
    while heap:
        cost_u, u = heappop(heap)
        if cost_u > dist[u]:
            continue
        # A vertex pops at its final distance exactly once: later duplicates
        # carry a strictly larger key and are skipped above.
        settled.append((u, cost_u))
        for i in range(offsets[u], offsets[u + 1]):
            v = targets[i]
            candidate = cost_u + weights[i]
            if stamp[v] != gen:
                if candidate != _INF:
                    stamp[v] = gen
                    dist[v] = candidate
                    parent[v] = u
                    heappush(heap, (candidate, v))
            elif candidate < dist[v]:
                dist[v] = candidate
                parent[v] = u
                heappush(heap, (candidate, v))
    return settled


def astar_kernel(
    offsets: list[int],
    targets: list[int],
    weights: list[float],
    source: int,
    destination: int,
    heuristic: Callable[[int], float],
    ws: SearchWorkspace,
    gen: int,
) -> list[int] | None:
    """A* on the CSR graph; ``heuristic`` maps a vertex *index* to a bound.

    The caller owns the generation (``gen = ws.begin()``) so it can share the
    workspace's heuristic cache with the kernel.
    """
    g_score = ws.dist
    parent = ws.parent
    stamp = ws.stamp
    closed = ws.closed
    g_score[source] = 0.0
    stamp[source] = gen
    heap: list[tuple[float, int]] = [(heuristic(source), source)]
    while heap:
        _, u = heappop(heap)
        if closed[u] == gen:
            continue
        closed[u] = gen
        if u == destination:
            return _walk_parents(parent, source, destination)
        cost_u = g_score[u]
        for i in range(offsets[u], offsets[u + 1]):
            v = targets[i]
            if closed[v] == gen:
                continue
            tentative = cost_u + weights[i]
            if stamp[v] != gen:
                if tentative != _INF:
                    stamp[v] = gen
                    g_score[v] = tentative
                    parent[v] = u
                    heappush(heap, (tentative + heuristic(v), v))
            elif tentative < g_score[v]:
                g_score[v] = tentative
                parent[v] = u
                heappush(heap, (tentative + heuristic(v), v))
    return None


def bidirectional_kernel(
    offsets: list[int],
    targets: list[int],
    weights: list[float],
    r_offsets: list[int],
    r_targets: list[int],
    r_weights: list[float],
    source: int,
    destination: int,
    ws: SearchWorkspace,
) -> list[int] | None:
    """Bidirectional Dijkstra mirroring the reference stopping rule."""
    gen = ws.begin()
    dist_f = ws.dist
    parent_f = ws.parent
    stamp_f = ws.stamp
    settled_f = ws.closed
    dist_b = ws.dist_b
    parent_b = ws.parent_b
    stamp_b = ws.stamp_b
    settled_b = ws.closed_b
    dist_f[source] = 0.0
    stamp_f[source] = gen
    dist_b[destination] = 0.0
    stamp_b[destination] = gen
    heap_f: list[tuple[float, int]] = [(0.0, source)]
    heap_b: list[tuple[float, int]] = [(0.0, destination)]

    best_cost = _INF
    meeting = -1

    while heap_f and heap_b:
        top_f = heap_f[0][0]
        top_b = heap_b[0][0]
        if top_f + top_b >= best_cost:
            break
        if top_f <= top_b:
            cost_u, u = heappop(heap_f)
            if settled_f[u] == gen:
                continue
            settled_f[u] = gen
            if stamp_b[u] == gen and cost_u + dist_b[u] < best_cost:
                best_cost = cost_u + dist_b[u]
                meeting = u
            for i in range(offsets[u], offsets[u + 1]):
                v = targets[i]
                if settled_f[v] == gen:
                    continue
                candidate = cost_u + weights[i]
                if stamp_f[v] != gen:
                    if candidate != _INF:
                        stamp_f[v] = gen
                        dist_f[v] = candidate
                        parent_f[v] = u
                        heappush(heap_f, (candidate, v))
                elif candidate < dist_f[v]:
                    dist_f[v] = candidate
                    parent_f[v] = u
                    heappush(heap_f, (candidate, v))
                if stamp_b[v] == gen and candidate + dist_b[v] < best_cost:
                    best_cost = candidate + dist_b[v]
                    meeting = v
        else:
            cost_u, u = heappop(heap_b)
            if settled_b[u] == gen:
                continue
            settled_b[u] = gen
            if stamp_f[u] == gen and cost_u + dist_f[u] < best_cost:
                best_cost = cost_u + dist_f[u]
                meeting = u
            for i in range(r_offsets[u], r_offsets[u + 1]):
                v = r_targets[i]
                if settled_b[v] == gen:
                    continue
                candidate = cost_u + r_weights[i]
                if stamp_b[v] != gen:
                    if candidate != _INF:
                        stamp_b[v] = gen
                        dist_b[v] = candidate
                        parent_b[v] = u
                        heappush(heap_b, (candidate, v))
                elif candidate < dist_b[v]:
                    dist_b[v] = candidate
                    parent_b[v] = u
                    heappush(heap_b, (candidate, v))
                if stamp_f[v] == gen and candidate + dist_f[v] < best_cost:
                    best_cost = candidate + dist_f[v]
                    meeting = v

    if meeting < 0:
        return None

    forward = _walk_parents(parent_f, source, meeting)
    current = meeting
    while current != destination:
        current = parent_b[current]
        forward.append(current)
    return forward


def preference_kernel(
    offsets: list[int],
    targets: list[int],
    weights: list[float],
    allowed: list[bool],
    none_allowed: list[bool],
    source: int,
    destination: int,
    ws: SearchWorkspace,
) -> list[int] | None:
    """Algorithm 2 (preference-aware Dijkstra) on the CSR graph.

    ``allowed[slot]`` says whether the edge satisfies the slave road-condition
    feature; ``none_allowed[u]`` is precomputed as "no outgoing edge of ``u``
    satisfies it", in which case all of ``u``'s edges are expanded (the
    paper's Case ii).
    """
    gen = ws.begin()
    dist = ws.dist
    parent = ws.parent
    stamp = ws.stamp
    dist[source] = 0.0
    stamp[source] = gen
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        cost_u, u = heappop(heap)
        if cost_u > dist[u]:
            continue
        if u == destination:
            return _walk_parents(parent, source, destination)
        expand_all = none_allowed[u]
        for i in range(offsets[u], offsets[u + 1]):
            if not (allowed[i] or expand_all):
                continue
            v = targets[i]
            candidate = cost_u + weights[i]
            if stamp[v] != gen:
                if candidate != _INF:
                    stamp[v] = gen
                    dist[v] = candidate
                    parent[v] = u
                    heappush(heap, (candidate, v))
            elif candidate < dist[v]:
                dist[v] = candidate
                parent[v] = u
                heappush(heap, (candidate, v))
    return None
