"""A host-speed probe, so timings can be reported at one reference speed.

This box's speed drifts by +-20% over minutes (wall and CPU time move
together: frequency and neighbours, not scheduling), which is wider than
any bound worth setting.  The probe is fixed work that shares no code with
the program under test, in three parts that are slowed differently —

* dictionary and list churn on a small working set (interpreter-bound);
* a pure-Python Dijkstra over a dict-of-lists grid (pointer chasing over a
  few MB, like the routing layers' object graphs);
* scipy's C Dijkstra over the same grid as a CSR matrix (the kernels).

It is timed next to every block and every set-up (for a workload served by
worker processes: on every CPU, keeping the slowest); the host factor is the
geometric mean of the three parts' times over their reference times.  A
timing is then divided by the factor (a rate multiplied), i.e. reported as
it would read on a host that runs each part in exactly its reference time.
The raw value is kept beside every scaled one.
"""

from __future__ import annotations

import heapq
import os
import statistics
from time import perf_counter

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

REFERENCE_S = (0.00055, 0.0029, 0.0015)
"""Nominal seconds of the three parts on the reference host; constants of
the benchmark, so that numbers from different runs, days and commits share
one scale."""

_GRID = 70
_CHURN_STEPS = 6000
_SETTLED = 2500
_SOURCES = [5, 1000, 3000]


class Probe:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        index = np.arange(_GRID * _GRID).reshape(_GRID, _GRID)
        right = np.stack([index[:, :-1].ravel(), index[:, 1:].ravel()])
        down = np.stack([index[:-1, :].ravel(), index[1:, :].ravel()])
        pairs = np.concatenate([right, down, right[::-1], down[::-1]], axis=1)
        weights = rng.uniform(1.0, 2.0, size=pairs.shape[1])
        self._matrix = csr_matrix((weights, (pairs[0], pairs[1])), shape=(index.size, index.size))
        self._adjacency: dict[int, list[tuple[int, float]]] = {}
        for (source, target), weight in zip(pairs.T.tolist(), weights.tolist()):
            self._adjacency.setdefault(source, []).append((target, weight))

    def once(self) -> tuple[float, float, float]:
        """Seconds taken by each of the three parts."""
        started = perf_counter()
        table: dict[int, list[int]] = {}
        for step in range(_CHURN_STEPS):
            key = (step * 7919) % 509
            bucket = table.get(key)
            if bucket is None:
                table[key] = [step]
            else:
                bucket.append(step)
        churned = perf_counter()

        adjacency = self._adjacency
        best = {0: 0.0}
        heap = [(0.0, 0)]
        settled: set[int] = set()
        while heap and len(settled) < _SETTLED:
            cost, vertex = heapq.heappop(heap)
            if vertex in settled:
                continue
            settled.add(vertex)
            for neighbour, weight in adjacency[vertex]:
                candidate = cost + weight
                if candidate < best.get(neighbour, 1e18):
                    best[neighbour] = candidate
                    heapq.heappush(heap, (candidate, neighbour))
        walked = perf_counter()

        dijkstra(self._matrix, indices=_SOURCES, return_predecessors=False)
        return churned - started, walked - churned, perf_counter() - walked

    def factor(self, repeats: int = 3, slowest_cpu: bool = False) -> float:
        """Host slowness now: per part the median over ``repeats`` against
        its reference, then the geometric mean of the three.

        With ``slowest_cpu`` the calling thread is pinned to each CPU it may
        run on in turn and the largest factor is returned: the vCPUs of this
        host speed up and slow down independently (1.0 on one beside 1.6 on
        the other), and a call that waits for one worker process per CPU
        takes as long as the slower of them.
        """
        if not slowest_cpu:
            return self._factor_here(repeats)
        allowed = os.sched_getaffinity(0)
        try:
            readings = []
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                readings.append(self._factor_here(repeats))
        finally:
            os.sched_setaffinity(0, allowed)
        return max(readings)

    def _factor_here(self, repeats: int) -> float:
        readings = [self.once() for _ in range(repeats)]
        ratios = [
            statistics.median(reading[part] for reading in readings) / REFERENCE_S[part]
            for part in range(3)
        ]
        return float(np.prod(ratios) ** (1.0 / 3.0))
