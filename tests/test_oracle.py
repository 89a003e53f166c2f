"""One model-based oracle over the whole serving stack.

A hypothesis ``RuleBasedStateMachine`` runs real verbs against two
deployments, each write-ahead logging through a :class:`DurabilityManager`:
an in-process :class:`RoutingService` with its route cache on, and a
two-shard :class:`ShardedRoutingService`.  Every answer is checked against
an independent model — a dict of the live edge costs, updated only once a
traffic call has returned, and a ten-line heapq Dijkstra over it.

Verbs: route and route_many on random ODs; traffic batches of ``scale_by``
rises and falls (the kind whose double replay would corrupt state), each
followed by asking every request answered so far again (the route cache's
hits); snapshot; reset the stats window; damage the newest snapshot file
and restart; crash at a :data:`KILL_POINTS` entry — the append points
during a traffic batch, the rotation and snapshot points during a snapshot
— and recover into a fresh network and deployment over the same directory.
Sharded only: SIGKILL a worker through the pool's process handle before a
route and before a broadcast (every example starts with one); partition a
worker, apply batches it misses, heal it (the resync path).

Invariants:

* every answer, cache hits included, costs what the model's Dijkstra costs
  (``rel_tol=1e-9``), or both are unreachable;
* ``cost_version`` never decreases: it is the model's acknowledged version,
  which each batch moves up by one;
* recovery keeps every acknowledged batch, and a batch the crash interrupted
  is wholly present or wholly absent; it restores the newest intact snapshot
  and replays exactly the versions after it;
* a recovery that skipped a damaged snapshot publishes the recovered state
  as a fresh one, and the snapshot files on disk are the model's;
* the WAL gains exactly one record per acknowledged batch and none during
  recovery;
* ``ServiceStats`` counts only the work of the call (requests, shard
  requests, traffic updates, worker restarts and resyncs), and a reset
  zeroes the window but keeps ``cost_version``;
* local only: after a batch that only raised costs, every cached answer
  whose path crosses no touched edge is a hit, and evictions plus re-proofs
  are the crossing entries; after a batch with a fall, every entry is
  evicted and nothing hits; ``traffic_touched_edges`` counts the batch's
  edges;
* the local machine runs under ``sanitize(strict=True)``;
* no shared-memory segment outlives a closed sharded deployment.

Pinned walks replay fixed step sequences through the local machine: one
crash per :data:`KILL_POINTS` entry, so every point fires in every run, two
damaged snapshots in a row, and a rise-only batch far larger than the drawn
ones.

Faults come from outside the serving code: a kill switch on the managers'
``kill=`` hook, a truncated snapshot file, ``SIGKILL``, and the hub's
partition set.  Breakers and engine faults are ``test_resilience.py``'s.
"""

from __future__ import annotations

import heapq
import math
import tempfile

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.analysis import sanitize
from repro.baselines import FastestBaseline, ShortestBaseline
from repro.network import grid_city_network
from repro.network.compiled import shm
from repro.network.compiled.graph import EDGE_COST_ATTRIBUTES
from repro.routing import CostFeature
from repro.routing.costs import FEATURE_EDGE_ATTRIBUTES
from repro.service import DurabilityManager, RouteRequest, RoutingService, ShardedRoutingService
from repro.service.durability import KILL_POINTS
from repro.service.durability.snapshot import RETAIN
from repro.service.sharding import coordinator as coordinator_module
from repro.traffic import TrafficFeed, TrafficUpdate

from support.crash import KillSwitch, SimulatedCrash


def _network():
    return grid_city_network(4, 4, seed=3)


VERTICES = tuple(sorted(_network().vertex_ids()))
EDGES = tuple(sorted(edge.key for edge in _network().edges()))
ENGINES = {"Shortest": "distance_m", "Fastest": "travel_time_s"}

engines = st.sampled_from(sorted(ENGINES))
queries = st.builds(
    RouteRequest,
    st.sampled_from(VERTICES),
    st.sampled_from(VERTICES),
    cost_override=st.sampled_from([None, CostFeature.FUEL]),
)
factors = st.one_of(st.floats(1.5, 4.0), st.floats(0.05, 0.5))
#: One scale per edge and attribute, so every batch changes a cost.
batches = st.lists(
    st.tuples(
        st.sampled_from(EDGES),
        st.dictionaries(st.sampled_from(EDGE_COST_ATTRIBUTES), factors, min_size=1),
    ),
    min_size=1,
    max_size=6,
    unique_by=lambda update: update[0],
)


class _Model:
    """The live edge costs as a dict, and the acknowledged cost version."""

    def __init__(self, network) -> None:
        self.costs = {
            edge.key: {a: float(getattr(edge, a)) for a in EDGE_COST_ATTRIBUTES}
            for edge in network.edges()
        }
        self.successors: dict[int, list[int]] = {v: [] for v in network.vertex_ids()}
        for tail, head in self.costs:
            self.successors[tail].append(head)
        self.version = network.cost_version

    def apply(self, batch) -> None:
        for key, scale in batch:
            for attribute, factor in scale.items():
                self.costs[key][attribute] *= factor

    def cost(self, source, destination, attribute) -> float:
        best = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            cost, vertex = heapq.heappop(heap)
            if vertex == destination:
                return cost
            if cost > best[vertex]:
                continue
            for head in self.successors[vertex]:
                candidate = cost + self.costs[vertex, head][attribute]
                if candidate < best.get(head, math.inf):
                    best[head] = candidate
                    heapq.heappush(heap, (candidate, head))
        return math.inf

    def path_cost(self, request, path, attribute) -> float:
        if path is None:
            return math.inf
        assert (path.source, path.destination) == (request.source, request.destination)
        return sum(self.costs[hop][attribute] for hop in path.edge_keys)


def _segment_exists(name: str) -> bool:
    try:
        probe = shm._attach_untracked(name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


class _Oracle(RuleBasedStateMachine):
    """The verbs and checks both deployments share.  A subclass boots the
    deployment (``_boot``) and maps apply / snapshot / crash / recover onto
    it."""

    restart_budget = math.inf
    """Restarts (crash or damage, then recover) one example may draw."""

    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.TemporaryDirectory()
        self.switch: KillSwitch | None = None
        self.snapshots: dict[int, bool] = {}
        """Snapshot files on disk: version -> intact."""
        self.answered: dict[str, set[RouteRequest]] = {}
        self.restarts = 0
        self.network = None
        self.manager: DurabilityManager | None = None

    def _kill(self, point: str) -> None:
        """The managers' ``kill=`` hook: the armed switch, if any."""
        if self.switch is not None:
            self.switch(point)

    def _new_manager(self) -> DurabilityManager:
        return DurabilityManager(self.directory.name, kill=self._kill)

    @initialize()
    def boot(self) -> None:
        network = _network()
        self.model = _Model(network)
        self._boot(network)

    def teardown(self) -> None:
        if self.manager is not None:
            self._close()
            self.manager.close()
        self.directory.cleanup()

    def _close(self) -> None:
        """Stop the deployment (a no-op in process)."""

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    @rule(engine=engines, request=queries)
    def route(self, engine, request) -> None:
        self._serve(engine, [request], lambda: [self.service.route(request, engine)])

    @rule(engine=engines, requests=st.lists(queries, min_size=1, max_size=6))
    def route_many(self, engine, requests) -> None:
        self._serve(engine, requests, lambda: self.service.route_many(requests, engine))

    def _ask_again(self) -> dict:
        """Ask every request answered so far again: each cached answer that
        survived the batches since is a hit, and must still be optimal.
        Returns the answers by ``(engine, request)``."""
        replies = {}
        for engine, asked in sorted(self.answered.items()):
            requests = sorted(asked, key=repr)
            responses = self._serve(
                engine, requests, lambda: self.service.route_many(requests, engine)
            )
            replies.update(((engine, r), response) for r, response in zip(requests, responses))
        return replies

    def _serve(self, engine, requests, call) -> list:
        self.answered.setdefault(engine, set()).update(requests)
        before = self.service.stats().requests
        responses = call()
        assert self.service.stats().requests == before + len(requests)
        for request, response in zip(requests, responses):
            attribute = (
                FEATURE_EDGE_ATTRIBUTES[request.cost_override]
                if request.cost_override is not None
                else ENGINES[engine]
            )
            want = self.model.cost(request.source, request.destination, attribute)
            got = self.model.path_cost(request, response.path, attribute)
            assert (math.isinf(got) and math.isinf(want)) or math.isclose(
                got, want, rel_tol=1e-9
            ), (engine, request, response, got, want)
        return responses

    @rule()
    def reset_stats(self) -> None:
        """A fresh monitoring window: the counters restart, the cost version
        stays (it mirrors the network, not the window)."""
        self.service.reset_stats()
        stats = self.service.stats()
        assert stats.requests == stats.traffic_updates == 0
        assert stats.cost_version == self.network.cost_version

    # ------------------------------------------------------------------ #
    # Traffic and durability
    # ------------------------------------------------------------------ #
    @rule(batch=batches)
    def traffic(self, batch) -> None:
        self._traffic(batch)

    def _traffic(self, batch, *, wait: bool = True) -> dict:
        """Apply one batch; returns the answers asked again after it (none
        without ``wait``)."""
        before = self.service.stats().traffic_updates
        appended = self.manager.journal.records_appended
        updates = [TrafficUpdate.scale_by(*key, **scale) for key, scale in batch]
        result = self._apply(updates, wait=wait)
        self.model.apply(batch)
        assert result.cost_version == self.network.cost_version == self.model.version + 1
        self.model.version = result.cost_version
        assert self.service.stats().traffic_updates == before + 1
        assert self.manager.journal.records_appended == appended + 1
        return self._ask_again() if wait else {}

    @precondition(lambda self: self.network.cost_version not in self.snapshots)
    @rule()
    def snapshot(self) -> None:
        self._snapshot()
        self._published(retained=True)

    def _published(self, *, retained: bool) -> None:
        self.snapshots[self.network.cost_version] = True
        if retained:
            for stale in sorted(self.snapshots)[:-RETAIN]:
                del self.snapshots[stale]

    @precondition(
        lambda self: self.restarts < self.restart_budget
        and sum(self.snapshots.values()) >= 1
        and self.snapshots[max(self.snapshots)]
    )
    @rule()
    def damage_newest_snapshot_and_restart(self) -> None:
        """Truncate the newest snapshot file and restart: recovery falls back
        to the older intact one, or to the base state when it was the only
        one, replays the longer WAL suffix after it, and publishes a fresh
        snapshot in place of the damaged one."""
        newest = self.manager.snapshots.snapshot_paths()[-1]
        assert int(newest.stem.split("-", 1)[1]) == max(self.snapshots)
        newest.write_bytes(newest.read_bytes()[: newest.stat().st_size // 2])
        self.snapshots[max(self.snapshots)] = False
        self._restart()

    @precondition(lambda self: self.restarts < self.restart_budget)
    @rule(point=st.sampled_from(KILL_POINTS), batch=batches)
    def crash_and_recover(self, point, batch) -> None:
        """Crash at ``point`` during a traffic batch (append points) or a
        snapshot (rotation and snapshot points), then recover from the
        directory alone."""
        interrupted = None
        switch = self.switch = KillSwitch(point)
        try:
            if point.startswith("journal.append."):
                interrupted = batch
                self._traffic(batch)
            else:
                self.snapshot()
        except SimulatedCrash:
            if point in ("snapshot.post-rename", "snapshot.pre-prune"):
                self._published(retained=point == "snapshot.pre-prune")
        self.switch = None
        assert switch.fired, point
        self._restart(interrupted)

    def _restart(self, interrupted=None) -> None:
        """Stop the deployment and abandon its manager, as kill -9 would,
        then recover into a fresh network and deployment over the same
        directory.  ``interrupted`` is the batch the crash cut short."""
        self.restarts += 1
        self._close()
        acknowledged = self.model.version
        network = _network()
        initial = network.cost_version
        report = self._recover(network)
        assert report.verified and not report.gap, report
        assert self.manager.journal.records_appended == 0  # replay journals nothing
        intact = [version for version, ok in self.snapshots.items() if ok]
        assert report.snapshot_version == (max(intact) if intact else None), report
        start = initial if report.snapshot_version is None else report.snapshot_version
        assert report.replayed == report.recovered_version - start, report
        assert report.recovered_version == network.cost_version
        assert self.service.stats().cost_version == network.cost_version
        if interrupted is not None and report.recovered_version == acknowledged + 1:
            self.model.apply(interrupted)  # wholly present
            self.model.version += 1
        assert report.recovered_version == self.model.version, report
        for key, costs in self.model.costs.items():
            edge = network.edge(*key)
            assert all(getattr(edge, a) == cost for a, cost in costs.items()), key
        # Recovery deletes the damaged snapshots it skipped, those newer than
        # the one it restored, and publishes the recovered state in their
        # place, so a fallback is retained again.
        skipped = [
            version
            for version in self.snapshots
            if report.snapshot_version is None or version > report.snapshot_version
        ]
        for version in skipped:
            del self.snapshots[version]
        if skipped:
            self._published(retained=True)

    @invariant()
    def matches_the_model(self) -> None:
        if self.network is not None:
            self._check()

    def _check(self) -> None:
        assert self.network.cost_version == self.model.version
        on_disk = [int(p.stem.split("-", 1)[1]) for p in self.manager.snapshots.snapshot_paths()]
        assert on_disk == sorted(self.snapshots), (on_disk, self.snapshots)


class LocalOracle(_Oracle):
    """An in-process service, route cache on, fed by a journaled feed."""

    def _boot(self, network) -> None:
        self.network = network
        self.view = network.compiled()
        self.cached: dict[tuple[str, RouteRequest], object] = {}
        """The route cache's live entries: ``(engine, request)`` -> path."""
        self.manager = self._new_manager()
        self.service = RoutingService()
        self.service.register("Shortest", ShortestBaseline(network).as_engine("Shortest"))
        self.service.register("Fastest", FastestBaseline(network).as_engine("Fastest"))
        self.feed = TrafficFeed(network, services=[self.service])
        self.feed.attach_journal(self.manager)

    def _apply(self, updates, *, wait: bool):
        return self.feed.apply(updates)

    def _serve(self, engine, requests, call) -> list:
        responses = super()._serve(engine, requests, call)
        for request, response in zip(requests, responses):
            if response.ok:
                self.cached[engine, request] = response.path
        return responses

    def _traffic(self, batch, *, wait: bool = True) -> dict:
        """The route cache drops what the batch may have made stale, and
        only that: a rise leaves every path that crosses no touched edge
        optimal, a fall can improve any path."""
        before = self.service.stats()
        live = dict(self.cached)
        replies = super()._traffic(batch, wait=wait)
        after = self.service.stats()
        touched = {key for key, _ in batch}
        assert after.traffic_touched_edges == before.traffic_touched_edges + len(touched)
        evicted = after.traffic_evicted_routes - before.traffic_evicted_routes
        if any(factor < 1 for _, scale in batch for factor in scale.values()):
            assert evicted == len(live)
            assert not any(replies[asked].cache_hit for asked in live)
        else:
            crossing = {asked for asked, path in live.items() if touched & set(path.edge_keys)}
            reproved = after.traffic_reproved_routes - before.traffic_reproved_routes
            assert evicted + reproved == len(crossing)
            assert all(replies[asked].cache_hit for asked in live.keys() - crossing)
        return replies

    def _snapshot(self) -> None:
        self.manager.snapshot(self.network)

    def _recover(self, network):
        self._boot(network)
        return self.service.recover(self.manager, self.feed)

    def _check(self) -> None:
        super()._check()
        assert self.network.compiled() is self.view  # patched, not rebuilt


class ShardedOracle(_Oracle):
    """Two shard workers over TCP, behind the same serving gate."""

    restart_budget = 1  # each one boots a fresh deployment (~1 s)
    kill_budget = 2
    """Kills per example, the one at boot included (each respawns twice)."""

    def __init__(self) -> None:
        super().__init__()
        self.kills = 0

    def _boot(self, network) -> None:
        self.network = network
        self.manager = self._new_manager()
        self.service = ShardedRoutingService(network, shard_count=2, durability=self.manager)
        assert _segment_exists(self.service.coordinator.segment_name)

    def _close(self) -> None:
        name = self.service.coordinator.segment_name
        if name is not None:  # not closed already by a failed restart
            self.service.close()
            assert not _segment_exists(name)

    def _apply(self, updates, *, wait: bool):
        return self.service.apply_traffic(updates, wait=wait)

    def _snapshot(self) -> None:
        self.service.coordinator.snapshot()

    def _recover(self, network):
        self._boot(network)
        return self.service.coordinator.recover()

    def _serve(self, engine, requests, call) -> list:
        before = self.service.stats()
        responses = super()._serve(engine, requests, call)
        after = self.service.stats()
        answered = after.cross_shard_requests + after.in_shard_requests
        assert answered == before.cross_shard_requests + before.in_shard_requests + len(requests)
        dispatched = sum(after.shard_requests.values())
        assert dispatched == sum(before.shard_requests.values()) + len(requests)
        return responses

    def _sigkill(self, worker: int) -> None:
        process = self.service.coordinator._pool._processes[worker]
        process.kill()
        process.join(timeout=10.0)

    @initialize(worker=st.sampled_from([0, 1]), engine=engines, batch=batches)
    def boot(self, worker, engine, batch) -> None:
        """Boot, then lose a worker at once: every example covers both
        restart paths before its drawn steps, which may kill again."""
        super().boot()
        self.kill_worker(worker, engine, batch)

    @precondition(lambda self: self.kills < self.kill_budget)
    @rule(worker=st.sampled_from([0, 1]), engine=engines, batch=batches)
    def kill_worker(self, worker, engine, batch) -> None:
        """SIGKILL a worker before a route on its shard (the batch is
        resubmitted to its respawn), then again before a broadcast (the
        respawn, booted at the segment's version, counts as its ack)."""
        self.kills += 1
        restarts = self.service.stats().worker_restarts
        self._sigkill(worker)
        victim = next(v for v in VERTICES if self.service.plan.shard_of(v) == worker)
        requests = [RouteRequest(victim, VERTICES[-1] - victim)]
        self._serve(engine, requests, lambda: self.service.route_many(requests, engine))
        assert self.service.stats().worker_restarts == restarts + 1
        self._sigkill(worker)
        self._traffic(batch)
        assert self.service.stats().worker_restarts == restarts + 2

    @rule(
        worker=st.sampled_from([0, 1]),
        missed=st.lists(batches, min_size=1, max_size=3),
        barrier=batches,
    )
    def partition_and_heal(self, worker, missed, barrier) -> None:
        """The worker misses every batch of the partition; on heal its
        reconnect carries the stale version and it resyncs once, which the
        next acknowledged batch waits for."""
        before = self.service.stats()
        assert self.service.coordinator.partition_worker(worker)
        for batch in missed:
            self._traffic(batch, wait=False)
        self.service.coordinator.heal_worker(worker)
        self._traffic(barrier)
        after = self.service.stats()
        assert after.worker_resyncs == before.worker_resyncs + 1
        assert after.worker_restarts == before.worker_restarts


#: No explain phase: it replays a failure under a tracer for minutes.
LOCAL_SETTINGS = settings(
    max_examples=40,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink),
)
#: Each example boots a deployment (~1 s); a failing run is reported as found,
#: not shrunk, since every replay pays the boots and timeouts again.
SHARDED_SETTINGS = settings(
    max_examples=2,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)


def test_local_deployment_matches_the_model():
    with sanitize(strict=True):
        run_state_machine_as_test(LocalOracle, settings=LOCAL_SETTINGS)


def test_sharded_deployment_matches_the_model(monkeypatch):
    # A broken recovery path fails in seconds, not after the 60 s default.
    monkeypatch.setattr(coordinator_module, "REQUEST_TIMEOUT_S", 5.0)
    monkeypatch.setattr(coordinator_module, "TRAFFIC_TIMEOUT_S", 5.0)
    run_state_machine_as_test(ShardedOracle, settings=SHARDED_SETTINGS)


# -------------------------------------------------------------------- #
# Pinned walks
# -------------------------------------------------------------------- #
RISE = [(EDGES[0], {"travel_time_s": 2.0}), (EDGES[9], {"distance_m": 1.5, "fuel_ml": 3.0})]
FALL = [(EDGES[4], {"travel_time_s": 0.25}), (EDGES[17], {"distance_m": 2.0})]
ASKED = [RouteRequest(VERTICES[0], VERTICES[-1]), RouteRequest(VERTICES[3], VERTICES[12])]


def _walk(*steps) -> None:
    """Run ``(rule, arguments)`` steps on a booted :class:`LocalOracle`,
    checking the invariants after each, as a drawn example would."""
    machine = LocalOracle()
    try:
        with sanitize(strict=True):
            machine.boot()
            machine._check()
            for name, arguments in steps:
                getattr(machine, name)(**arguments)
                machine._check()
    finally:
        machine.teardown()


@pytest.mark.parametrize("point", KILL_POINTS)
def test_crash_at_each_kill_point_keeps_acked_batches(point):
    """The point fires first with no state on disk, then with two snapshots
    retained and the WAL pruned through the older one."""
    _walk(
        ("crash_and_recover", {"point": point, "batch": RISE}),
        ("route_many", {"engine": "Fastest", "requests": ASKED}),
        ("traffic", {"batch": RISE}),
        ("snapshot", {}),
        ("traffic", {"batch": FALL}),
        ("snapshot", {}),
        ("traffic", {"batch": RISE}),
        ("crash_and_recover", {"point": point, "batch": FALL}),
        ("traffic", {"batch": RISE}),
    )


def test_two_damaged_snapshots_in_a_row_keep_every_acknowledged_batch():
    """After the first fallback recovery a fresh snapshot is retained beside
    the survivor, and the WAL is still whole from the survivor on."""
    _walk(
        ("traffic", {"batch": RISE}),
        ("snapshot", {}),
        ("traffic", {"batch": FALL}),
        ("snapshot", {}),
        ("traffic", {"batch": RISE}),
        ("damage_newest_snapshot_and_restart", {}),
        ("damage_newest_snapshot_and_restart", {}),
        ("route_many", {"engine": "Shortest", "requests": ASKED}),
    )


def test_a_large_rise_only_batch_keeps_every_route_it_does_not_cross():
    """No batch size switches the delta-aware eviction off: 40 raised edges,
    none on the two one-hop routes, which must hit afterwards."""
    ends = {VERTICES[0], VERTICES[1]}
    near = [RouteRequest(VERTICES[0], VERTICES[1]), RouteRequest(VERTICES[1], VERTICES[0])]
    far = [(edge, {"travel_time_s": 1.2, "distance_m": 1.2}) for edge in EDGES if not ends & set(edge)]
    _walk(
        ("route_many", {"engine": "Fastest", "requests": near + ASKED}),
        ("traffic", {"batch": far}),
    )


def test_the_first_rise_after_a_snapshot_recovery_keeps_routes_it_does_not_cross():
    """Restoring a snapshot may lower costs, but recovery empties the route
    cache with it, so the first rise-only batch after the restart still
    drops only the routes it crosses."""
    _walk(
        ("traffic", {"batch": RISE}),
        ("snapshot", {}),
        ("crash_and_recover", {"point": "journal.append.pre-write", "batch": RISE}),
        ("route_many", {"engine": "Fastest", "requests": ASKED}),
        ("traffic", {"batch": RISE}),
    )
