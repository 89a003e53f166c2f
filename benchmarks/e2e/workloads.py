"""Workload configs and seeded request / traffic streams.

One frozen config dataclass per workload and one ``np.random.Generator``
made from ``--seed`` with one spawned child per workload.  Everything the
program under test receives — route requests, ``route_many`` batches and
traffic batches — is drawn here as plain integer / float arrays; the
drivers in :mod:`systems` only turn them into ``RouteRequest`` /
``TrafficUpdate`` objects.

What ``--seed`` does *not* move is the structure the requests run against
(network generator seed, trajectory set, fitted model): those seeds are
fields of the frozen configs.  Measured on this box, re-seeding the
Chengdu-like scenario moved ``fit_s`` by +-17% and ``routes_per_s`` by
+-16% (region layout changes the in-region / cross-region mix), which is
wider than every bound; ten request streams over one city repeat within a
few percent.
"""

from __future__ import annotations

import hashlib
import os
import platform
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ENGINES = ("Fastest", "Shortest")
"""Engine names a stream may address; ``Block.engine_ids`` indexes this."""


# ---------------------------------------------------------------------- #
# Configs
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class L2RCityConfig:
    """Fit L2R on the Chengdu-like city, then serve held-out + random ODs."""

    name: str = "l2r_city"
    why: str = (
        "only workload where regions/preferences/core.router do most of the "
        "work; carries fit_s and l2r_accuracy_pct so route quality cannot be "
        "traded away silently"
    )
    scenario_scale: float = 0.25
    scenario_seed: int = 7
    train_fraction: float = 0.75
    block_routes: int = 600
    heldout_per_block: int = 60
    min_blocks: int = 10
    warmup_routes: int = 200
    call_size: int = 1
    engines: tuple[int, ...] = ()
    """Empty: every request goes to the service's default engine (L2R)."""
    traffic_edges: int = 0

    def smoke(self) -> "L2RCityConfig":
        return replace(
            self, scenario_scale=0.05, block_routes=12, heldout_per_block=4, warmup_routes=4
        )


@dataclass(frozen=True)
class GridColdConfig:
    """Uniform random ODs, cache off: dispatch + SSSP + reconstruction."""

    name: str = "grid_cold"
    why: str = (
        "kernel-bound: cache and traffic do nothing, so a kernel or "
        "reconstruction gain shows here and is predicted flat on "
        "grid_hot_traffic p50"
    )
    rows: int = 100
    cols: int = 100
    network_seed: int = 5
    block_routes: int = 250
    min_blocks: int = 10
    warmup_routes: int = 100
    call_size: int = 1
    engines: tuple[int, ...] = (0, 1)
    """Requests alternate Fastest / Shortest."""
    traffic_edges: int = 0

    def smoke(self) -> "GridColdConfig":
        return replace(self, rows=14, cols=14, block_routes=5, warmup_routes=2)


@dataclass(frozen=True)
class GridHotTrafficConfig:
    """Zipf-popular ODs through the route cache, traffic written beside reads."""

    name: str = "grid_hot_traffic"
    why: str = (
        "hit path is service/cache/stats/api object overhead with almost no "
        "kernel; routes read the cost store that traffic writes, so cheaper "
        "invalidation or journaling shows as one metric up, another down"
    )
    rows: int = 60
    cols: int = 60
    network_seed: int = 5
    cache_size: int = 2048
    pool_size: int = 5000
    zipf_exponent: float = 1.2
    block_routes: int = 500
    min_blocks: int = 10
    warmup_routes: int = 6000
    call_size: int = 1
    engines: tuple[int, ...] = (0,)
    traffic_edges: int = 32
    snapshot_after_block: int = 5
    fsync: str = "interval"

    def smoke(self) -> "GridHotTrafficConfig":
        return replace(
            self, rows=9, cols=9, cache_size=41, pool_size=100,
            block_routes=10, warmup_routes=120, traffic_edges=4,
        )


@dataclass(frozen=True)
class ShardedTcpConfig:
    """``route_many`` batches over two TCP shard workers plus ack-barrier traffic."""

    name: str = "sharded_tcp"
    why: str = (
        "only workload where sharding (plan, overlay stitch, worker, "
        "coordinator), shm and the transport frame codec work; TCP runs the "
        "same ShardWorker loop as queues plus codec and sockets"
    )
    rows: int = 60
    cols: int = 60
    network_seed: int = 5
    shard_count: int = 2
    block_routes: int = 25 * 64
    min_blocks: int = 10
    warmup_routes: int = 4 * 64
    call_size: int = 64
    engines: tuple[int, ...] = (0,)
    traffic_edges: int = 32

    def smoke(self) -> "ShardedTcpConfig":
        return replace(
            self, rows=9, cols=9, block_routes=2 * 8, warmup_routes=8, call_size=8, traffic_edges=4
        )


WorkloadConfig = L2RCityConfig | GridColdConfig | GridHotTrafficConfig | ShardedTcpConfig

WORKLOADS: tuple[WorkloadConfig, ...] = (
    L2RCityConfig(),
    GridColdConfig(),
    GridHotTrafficConfig(),
    ShardedTcpConfig(),
)
WORKLOAD_NAMES = tuple(config.name for config in WORKLOADS)

TRAFFIC_FACTOR_RANGE = (1.05, 1.6)
"""Congestion only: costs at or above free flow keep the A* heuristics
admissible (see ``RoadNetwork.update_edge_costs``)."""


def workload_rngs(seed: int) -> dict[str, np.random.Generator]:
    """One generator from ``seed``, one spawned child per workload."""
    children = np.random.default_rng(seed).spawn(len(WORKLOADS))
    return dict(zip(WORKLOAD_NAMES, children))


# ---------------------------------------------------------------------- #
# Network shape
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class NetworkShape:
    """What a stream needs to know about a network, and what a report records."""

    vertex_ids: np.ndarray
    edge_keys: np.ndarray
    heldout_ods: np.ndarray
    """``(n, 2)`` source/destination ids of held-out trajectories (may be empty)."""

    @classmethod
    def of(cls, network, heldout_ods=()) -> "NetworkShape":
        vertex_ids = np.array(sorted(network.vertex_ids()), dtype=np.int64)
        edge_keys = np.array(sorted((e.source, e.target) for e in network.edges()), dtype=np.int64)
        heldout = np.array(list(heldout_ods), dtype=np.int64).reshape(-1, 2)
        return cls(vertex_ids, edge_keys, heldout)

    def describe(self) -> dict:
        sources = np.searchsorted(self.vertex_ids, self.edge_keys[:, 0])
        degrees = np.bincount(sources, minlength=len(self.vertex_ids))
        histogram = np.bincount(degrees)
        return {
            "vertices": int(len(self.vertex_ids)),
            "edges": int(len(self.edge_keys)),
            "out_degree_histogram": {str(d): int(c) for d, c in enumerate(histogram) if c},
        }


# ---------------------------------------------------------------------- #
# Streams
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Block:
    """One block of generated operations: routes, then at most one traffic batch."""

    ods: np.ndarray
    """``(n, 2)`` vertex ids."""
    engine_ids: np.ndarray
    """``(n,)`` indexes into :data:`ENGINES`; ``-1`` = the service default."""
    call_size: int
    """Routes per client call: 1 = ``route()``, more = one ``route_many``."""
    traffic: tuple[np.ndarray, np.ndarray] | None = None
    """``(edges (m, 2), factors (m,))`` applied after the routes, if any."""

    def update_digest(self, digest) -> None:
        for array in (self.ods, self.engine_ids, *(self.traffic or ())):
            digest.update(array.tobytes())


class Stream:
    """The seeded operation stream of one workload over one network shape.

    Blocks are drawn in order from the workload's generator, so block ``k``
    is the same for a given seed however many blocks a run gets through.
    """

    def __init__(
        self, config: WorkloadConfig, rng: np.random.Generator, shape: NetworkShape
    ) -> None:
        self.config = config
        self._rng = rng
        self._shape = shape
        self._replay_rng = rng.spawn(1)[0]
        self._pool: np.ndarray | None = None
        self._popularity: np.ndarray | None = None
        if isinstance(config, GridHotTrafficConfig):
            self._pool = self._uniform_ods(config.pool_size)
            weights = np.arange(1, config.pool_size + 1, dtype=np.float64) ** -config.zipf_exponent
            self._popularity = weights / weights.sum()
        self.warmup = self._draw(config.warmup_routes, traffic=False)
        self._blocks = [
            self._draw(config.block_routes, traffic=True) for _ in range(config.min_blocks)
        ]

    def _uniform_ods(self, count: int) -> np.ndarray:
        ids = self._shape.vertex_ids
        sources = self._rng.integers(0, len(ids), size=count)
        offsets = self._rng.integers(1, len(ids), size=count)
        return np.stack([ids[sources], ids[(sources + offsets) % len(ids)]], axis=1)

    def _draw(self, routes: int, traffic: bool) -> Block:
        config, rng = self.config, self._rng
        if self._pool is not None:
            ods = self._pool[rng.choice(len(self._pool), size=routes, p=self._popularity)]
        elif isinstance(config, L2RCityConfig) and len(self._shape.heldout_ods):
            heldout = self._shape.heldout_ods
            picked = heldout[rng.choice(len(heldout), size=min(config.heldout_per_block, routes))]
            ods = np.concatenate([picked, self._uniform_ods(routes - len(picked))])
            ods = ods[rng.permutation(len(ods))]
        else:
            ods = self._uniform_ods(routes)
        if config.engines:
            engine_ids = np.resize(np.array(config.engines, dtype=np.int8), routes)
        else:
            engine_ids = np.full(routes, -1, dtype=np.int8)
        batch = None
        if traffic and config.traffic_edges:
            batch = self._traffic_batch(rng, config.traffic_edges)
        return Block(ods, engine_ids, config.call_size, batch)

    def _traffic_batch(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Distinct random edges with congestion factors."""
        keys = self._shape.edge_keys
        chosen = keys[rng.choice(len(keys), size=count, replace=False)]
        return chosen, rng.uniform(*TRAFFIC_FACTOR_RANGE, size=count)

    def replay_batches(self, count: int, edges: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Traffic batches for the isolated layer replays, from a child
        generator so that drawing them never shifts the measured blocks."""
        return [self._traffic_batch(self._replay_rng, edges) for _ in range(count)]

    def block(self, index: int) -> Block:
        while index >= len(self._blocks):
            self._blocks.append(self._draw(self.config.block_routes, traffic=True))
        return self._blocks[index]

    def digest(self) -> str:
        """sha256 over the warm-up and the first ``min_blocks`` blocks."""
        digest = hashlib.sha256()
        self.warmup.update_digest(digest)
        for block in self._blocks[: self.config.min_blocks]:
            block.update_digest(digest)
        return digest.hexdigest()


# ---------------------------------------------------------------------- #
# Environment stamp
# ---------------------------------------------------------------------- #
def git_commit(root: Path) -> str | None:
    """HEAD's commit id read from ``.git`` (no subprocess); ``None`` outside a clone."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
    }
