"""Set-up, closed-loop block drivers and output checks, one per workload.

Everything here reaches the program through public functions only:
scenario / network generators, ``LearnToRoute.fit``, ``RoutingService`` /
``ShardedRoutingService``, ``TrafficFeed`` and ``DurabilityManager``.  One
caller issues each operation and waits for its reply before the next.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.baselines.cost_centric import FastestBaseline, ShortestBaseline
from repro.core import LearnToRoute
from repro.datasets import d2_like_scenario, tiny_scenario
from repro.datasets.splits import split_by_id
from repro.evaluation.metrics import accuracy_eq1
from repro.exceptions import ReproError
from repro.network import grid_city_network
from repro.network.compiled import compiled_disabled
from repro.routing import CostFeature, cost_function, dict_dijkstra_costs, fastest_path
from repro.service import DurabilityManager, RouteRequest, RoutingService, ShardedRoutingService
from repro.service.durability import final_state, states_identical
from repro.service.sharding.overlay import path_cost
from repro.traffic import TrafficFeed
from repro.traffic.updates import TrafficUpdate

from spans import SpanRecorder, TimedEngine, TimedJournal
from workloads import (
    ENGINES,
    Block,
    GridColdConfig,
    GridHotTrafficConfig,
    L2RCityConfig,
    NetworkShape,
    ShardedTcpConfig,
    WorkloadConfig,
)

ENGINE_FEATURES = {"Fastest": CostFeature.TRAVEL_TIME, "Shortest": CostFeature.DISTANCE}
CHECK_SOURCES = 16
CHECK_DESTINATIONS = 16
COST_REL_TOL = 1e-9


@dataclass
class Ops:
    """One block turned into the objects the public API takes (untimed)."""

    calls: list
    """``(RouteRequest | list[RouteRequest], engine name | None)`` per client call."""
    updates: list[TrafficUpdate] | None
    routes: int


@dataclass
class Tally:
    """Timings and operation counts of a measured phase."""

    route_s: list[float] = field(default_factory=list)
    """Wall time of each client call (one route, or one ``route_many``)."""
    traffic_s: list[float] = field(default_factory=list)
    routes_sent: int = 0
    routes_failed: int = 0
    traffic_sent: int = 0
    traffic_failed: int = 0


@dataclass
class PhaseCount:
    """Operations sent / succeeded / failed in one phase of a run."""

    phase: str
    sent: int
    failed: int

    def row(self) -> dict:
        return {
            "phase": self.phase,
            "sent": self.sent,
            "succeeded": self.sent - self.failed,
            "failed": self.failed,
        }


def finish_lazy_setup() -> None:
    """One untimed tiny fit, so imports and first-call caches are not billed
    to the first timed set-up."""
    scenario = tiny_scenario()
    split = split_by_id(scenario.trajectories, train_fraction=0.75)
    LearnToRoute().fit(scenario.network, split.train)


class System:
    """What the harness drives; subclasses differ in how a call is made."""

    fit_s: float | None = None
    worker_processes = 0
    """Processes besides the client's that serve a call."""

    def __init__(self, config: WorkloadConfig, recorder: SpanRecorder | None) -> None:
        self.config = config
        self.recorder = recorder
        self.network = None
        self.heldout = []
        self._shape: NetworkShape | None = None

    # -- description ---------------------------------------------------- #
    def shape(self) -> NetworkShape:
        """Vertex ids, edge keys and held-out ODs (the topology never changes)."""
        if self._shape is None:
            ods = [(t.source, t.destination) for t in self.heldout]
            self._shape = NetworkShape.of(self.network, ods)
        return self._shape

    # -- untimed preparation -------------------------------------------- #
    def prepare(self, block: Block) -> Ops:
        requests = [RouteRequest(source=int(s), destination=int(d)) for s, d in block.ods]
        names = [ENGINES[i] if i >= 0 else None for i in block.engine_ids]
        size = block.call_size
        if size == 1:
            calls = list(zip(requests, names))
        else:
            calls = [(requests[i : i + size], names[i]) for i in range(0, len(requests), size)]
        updates = updates_of(*block.traffic) if block.traffic is not None else None
        return Ops(calls, updates, len(requests))

    def set_tracing(self, on: bool) -> None:
        if self.recorder is not None:
            self.recorder.enabled = on

    def _traced(self, name: str, function):
        return function if self.recorder is None else self.recorder.wrap(name, function)

    def _engine(self, engine):
        return engine if self.recorder is None else TimedEngine(engine, self.recorder)

    # -- the closed loop ------------------------------------------------ #
    def run_block(self, ops: Ops, tally: Tally) -> None:
        raise NotImplementedError

    def after_block(self, index: int) -> dict:
        """Untimed maintenance between blocks; returns layer observations."""
        return {}

    def paths_for(self, ods: list[tuple[int, int]], engine: str | None) -> list:
        """Served paths (``None`` on failure) for the output check."""
        raise NotImplementedError

    # -- output check --------------------------------------------------- #
    def check(self, rng: np.random.Generator) -> PhaseCount:
        """Sampled ODs re-routed at the final cost version, compared by path
        cost with the dict reference on the master network."""
        ids = self.shape().vertex_ids
        sources = rng.choice(ids, size=min(CHECK_SOURCES, len(ids)), replace=False)
        engines = [ENGINES[i] for i in self.config.engines]
        failed = sent = 0
        for index, source in enumerate(int(s) for s in sources):
            engine = engines[index % len(engines)]
            others = ids[ids != source]
            count = min(CHECK_DESTINATIONS, len(others))
            destinations = rng.choice(others, size=count, replace=False)
            ods = [(source, int(d)) for d in destinations]
            feature = ENGINE_FEATURES[engine]
            with compiled_disabled():
                reference = dict_dijkstra_costs(self.network, source, cost_function(feature))
            for (_, destination), path in zip(ods, self.paths_for(ods, engine)):
                sent += 1
                want = reference.get(destination, math.inf)
                got = math.inf
                if path is not None:
                    got = path_cost(self.network, tuple(path), feature)
                if not math.isclose(got, want, rel_tol=COST_REL_TOL):
                    failed += 1
        return PhaseCount("output_check", sent, failed)

    def finish(self) -> tuple[list[PhaseCount], dict]:
        """Untimed end-of-run operations: extra phases and observations."""
        return [], {}

    def stats(self):
        return self.service.stats()

    def close(self) -> None:
        pass


def grid_of(config):
    """The workload's grid city, compiled (part of every grid set-up)."""
    network = grid_city_network(rows=config.rows, cols=config.cols, seed=config.network_seed)
    network.compiled()
    return network


def updates_of(edges: np.ndarray, factors: np.ndarray) -> list[TrafficUpdate]:
    return [
        TrafficUpdate.scale_by(int(u), int(v), travel_time_s=float(f))
        for (u, v), f in zip(edges, factors)
    ]


# ---------------------------------------------------------------------- #
# In-process RoutingService workloads
# ---------------------------------------------------------------------- #
class LocalSystem(System):
    """``RoutingService.route`` in this process, optionally with a traffic
    feed (service subscribed) and a durability manager attached."""

    def __init__(self, config, recorder, scratch: Path) -> None:
        super().__init__(config, recorder)
        self.feed = None
        self.manager = None
        self.pipeline = None
        self._wal_dir = None
        if isinstance(config, L2RCityConfig):
            self._build_l2r(config)
        elif isinstance(config, GridColdConfig):
            self.network = grid_of(config)
            self.service = RoutingService(enable_cache=False)
            self._register_baselines()
        else:
            self._build_hot(config, scratch)
        self._route = self._traced("service.route", self.service.route)
        if self.feed is not None:
            self._apply = self._traced("feed.apply", self.feed.apply)

    def _register_baselines(self) -> None:
        fastest = FastestBaseline(self.network).as_engine()
        shortest = ShortestBaseline(self.network).as_engine()
        self.service.register("Fastest", self._engine(fastest), default=True)
        self.service.register("Shortest", self._engine(shortest))

    def _build_l2r(self, config: L2RCityConfig) -> None:
        scenario = d2_like_scenario(scale=config.scenario_scale, seed=config.scenario_seed)
        split = split_by_id(scenario.trajectories, train_fraction=config.train_fraction)
        self.network = scenario.network
        self.heldout = split.test
        started = perf_counter()
        self.pipeline = LearnToRoute().fit(scenario.network, split.train)
        self.fit_s = perf_counter() - started
        self.service = RoutingService(enable_cache=False)
        l2r = self._engine(self.pipeline.as_engine())
        self.service.register("L2R", l2r, fallback="Fastest", default=True)
        self.service.register("Fastest", self._engine(FastestBaseline(self.network).as_engine()))

    def _build_hot(self, config: GridHotTrafficConfig, scratch: Path) -> None:
        self.network = grid_of(config)
        self.service = RoutingService(cache_size=config.cache_size)
        self._register_baselines()
        self.feed = TrafficFeed(self.network)
        evict = self._traced("service.on_traffic_update", self.service.on_traffic_update)
        self.feed.subscribe(
            lambda result: evict(result.touched_edges, cost_version=result.cost_version)
        )
        scratch.mkdir(parents=True, exist_ok=True)
        self._wal_dir = scratch / "durability"
        shutil.rmtree(self._wal_dir, ignore_errors=True)
        self.manager = DurabilityManager(self._wal_dir, fsync=config.fsync)
        journal = self.manager
        if self.recorder is not None:
            journal = TimedJournal(self.manager, self.recorder)
        self.feed.attach_journal(journal)

    def run_block(self, ops: Ops, tally: Tally) -> None:
        route = self._route
        timings = tally.route_s
        failed = 0
        for request, engine in ops.calls:
            started = perf_counter()
            response = route(request, engine)
            timings.append(perf_counter() - started)
            if response.error is not None or response.path is None:
                failed += 1
        tally.routes_sent += len(ops.calls)
        tally.routes_failed += failed
        if ops.updates is not None:
            started = perf_counter()
            result = self._apply(ops.updates)
            tally.traffic_s.append(perf_counter() - started)
            tally.traffic_sent += 1
            if len(result.touched_edges) != len(ops.updates):
                tally.traffic_failed += 1

    def after_block(self, index: int) -> dict:
        if self.manager is None or index + 1 != self.config.snapshot_after_block:
            return {}
        started = perf_counter()
        self.manager.snapshot(self.network)
        return {"snapshot_s": perf_counter() - started}

    def paths_for(self, ods, engine):
        route = self.service.route
        return [route(RouteRequest(source=s, destination=d), engine).path for s, d in ods]

    def check(self, rng: np.random.Generator) -> PhaseCount:
        if self.pipeline is None:
            return super().check(rng)
        # L2R answers are not cost-optimal for any single feature: the served
        # path must equal what the pipeline itself recommends (or, where it
        # has no answer, what the Fastest fallback does).
        ids = self.shape().vertex_ids
        picked = rng.choice(len(ids), size=(CHECK_SOURCES * CHECK_DESTINATIONS, 2))
        ods = [(int(ids[a]), int(ids[b])) for a, b in picked if a != b]
        failed = 0
        for (source, destination), served in zip(ods, self.paths_for(ods, None)):
            try:
                expected = self.pipeline.route(source, destination)
            except ReproError:
                expected = fastest_path(self.network, source, destination)
            if served is None or tuple(served) != tuple(expected):
                failed += 1
        return PhaseCount("output_check", len(ods), failed)

    def finish(self) -> tuple[list[PhaseCount], dict]:
        phases: list[PhaseCount] = []
        observed: dict = {}
        if self.pipeline is not None:
            scores = []
            failed = 0
            for trajectory in self.heldout:
                response = self.service.route(
                    RouteRequest(source=trajectory.source, destination=trajectory.destination)
                )
                if response.path is None:
                    failed += 1
                    continue
                scores.append(accuracy_eq1(self.network, trajectory.path, response.path))
            phases.append(PhaseCount("heldout_accuracy", len(self.heldout), failed))
            observed["l2r_accuracy_pct"] = float(np.mean(scores)) if scores else 0.0
            observed["heldout_queries"] = len(self.heldout)
        if self.manager is not None:
            self.manager.close()
            config = self.config
            fresh = grid_city_network(
                rows=config.rows, cols=config.cols, seed=config.network_seed
            )
            started = perf_counter()
            with DurabilityManager(self._wal_dir, fsync=config.fsync) as manager:
                manager.recover(fresh, TrafficFeed(fresh))
            observed["recover_s"] = perf_counter() - started
            identical = states_identical(final_state(fresh), final_state(self.network))
            phases.append(PhaseCount("recovery", 1, 0 if identical else 1))
        return phases, observed

    def close(self) -> None:
        self.service.close()
        if self.manager is not None:
            self.manager.close()
            shutil.rmtree(self._wal_dir, ignore_errors=True)


# ---------------------------------------------------------------------- #
# Sharded serving over TCP
# ---------------------------------------------------------------------- #
class ShardedSystem(System):
    """``ShardedRoutingService.route_many`` over two TCP worker processes;
    a request's latency is the wall time of the call that carried it."""

    def __init__(self, config: ShardedTcpConfig, recorder, scratch: Path) -> None:
        super().__init__(config, recorder)
        self.worker_processes = config.shard_count
        self.network = grid_of(config)
        self.service = ShardedRoutingService(
            self.network, shard_count=config.shard_count, transport="tcp", cache_size=0
        )
        self._route_many = self._traced("sharded.route_many", self.service.route_many)
        self._apply = self._traced("sharded.apply_traffic", self.service.apply_traffic)

    def run_block(self, ops: Ops, tally: Tally) -> None:
        route_many = self._route_many
        timings = tally.route_s
        failed = 0
        for requests, engine in ops.calls:
            started = perf_counter()
            responses = route_many(requests, engine)
            timings.append(perf_counter() - started)
            for response in responses:
                if response.error is not None or response.path is None:
                    failed += 1
        tally.routes_sent += ops.routes
        tally.routes_failed += failed
        if ops.updates is not None:
            started = perf_counter()
            result = self._apply(ops.updates, wait=True)
            tally.traffic_s.append(perf_counter() - started)
            tally.traffic_sent += 1
            if len(result.touched_edges) != len(ops.updates):
                tally.traffic_failed += 1

    def paths_for(self, ods, engine):
        requests = [RouteRequest(source=s, destination=d) for s, d in ods]
        return [response.path for response in self.service.route_many(requests, engine)]

    def close(self) -> None:
        self.service.close()


def build(config: WorkloadConfig, recorder: SpanRecorder | None, scratch: Path) -> System:
    """One full set-up of a workload's system (the harness times this)."""
    if isinstance(config, ShardedTcpConfig):
        return ShardedSystem(config, recorder, scratch)
    return LocalSystem(config, recorder, scratch)
