"""Array-based goal-directed search kernels over a CSR graph.

These are the searches scipy has no form for; Dijkstra runs on scipy's C
implementation (:mod:`~repro.network.compiled.sparse`).  The bidirectional
kernel mirrors its dict-based reference in :mod:`repro.routing` *exactly* —
same relaxation order, same strict-less tie-breaking, same stopping rule —
so the two produce identical paths, not merely cost-identical ones.  (Vertex
indices are assigned in sorted vertex-id order and CSR slots preserve
adjacency insertion order, which makes heap tie-breaking order-isomorphic to
the dict kernel's.)  The A* kernel runs on ALT landmark bounds only, which no
dict search has: its answers are cost-identical to Dijkstra's, not
path-identical to ``dict_astar``.

The kernels work on plain Python lists (CSR ``offsets`` / ``targets`` plus a
per-query ``weights`` list) and a generation-stamped
:class:`~repro.network.compiled.workspace.SearchWorkspace`; they allocate
nothing per query beyond the heap itself.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Sequence

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


def astar_kernel(
    offsets: list[int],
    targets: list[int],
    weights: list[float],
    source: int,
    destination: int,
    bounds: Sequence[float],
    ws: SearchWorkspace,
) -> list[int] | None:
    """A* on the CSR graph; ``bounds[v]`` is a lower bound on the cost from
    vertex index ``v`` to ``destination``."""
    gen = ws.begin()
    g_score = ws.dist
    parent = ws.parent
    stamp = ws.stamp
    closed = ws.closed
    g_score[source] = 0.0
    stamp[source] = gen
    heap: list[tuple[float, int]] = [(bounds[source], source)]
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
                    heappush(heap, (tentative + bounds[v], v))
            elif tentative < g_score[v]:
                g_score[v] = tentative
                parent[v] = u
                heappush(heap, (tentative + bounds[v], v))
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
