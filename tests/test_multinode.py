"""Fault-tolerant multi-node transport (:mod:`repro.service.sharding.transport`).

Four layers:

* **wire** — the length-prefixed pickle frame codec and its caps;
* **endpoints** — :class:`SocketTransport` reconnect behaviour and the
  :class:`TcpHub` registry (displacement, drops, partitions);
* **replication** — :class:`HeartbeatMonitor` with an injected clock;
* **deployment** — a batch resent over a dropped link, heartbeats, an
  unanswering shard seen by the serving gate as an engine-health failure,
  shutdown stragglers, and the boot handshake (a worker's payload travels
  over its link, not the spawn pipe) — with cost identity against
  full-network Dijkstra throughout.  Healed partitions and worker kills are driven by
  the model-based oracle in ``tests/test_oracle.py``.

The deployment tests boot real worker processes over loopback TCP, so they
keep grids small and share deployments per scenario.
"""

from __future__ import annotations

import math
import pickle
import queue
import random
import socket
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import grid_city_network
from repro.network.compiled import shm
from repro.routing import CostFeature, cost_function, dijkstra
from repro.exceptions import ShardingError
from repro.service import RouteRequest, RoutingService, ShardedRoutingService, resilience
from repro.service.sharding import (
    MAX_FRAME_BYTES,
    FrameError,
    Hello,
    HeartbeatMonitor,
    Ping,
    Pong,
    RouteWork,
    ShardCoordinator,
    ShardWorkerPool,
    SocketTransport,
    TcpHub,
    WorkerPayload,
    build_shard_plan,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.service.sharding import coordinator as coordinator_module
from repro.service.sharding import pool as pool_module
from repro.service.sharding import transport as transport_module
from repro.service.sharding.overlay import path_cost


def _reference_cost(network, source, destination, feature) -> float:
    try:
        path = dijkstra(network, source, destination, cost_function(feature))
    except Exception:
        return math.inf
    return path_cost(network, tuple(path), feature)


def _response_cost(network, response, feature) -> float:
    if response.path is None:
        return math.inf
    return path_cost(network, tuple(response.path.vertices), feature)


def _requests(network, count, seed=7):
    rng = random.Random(seed)
    vertices = sorted(network.vertex_ids())
    return [
        RouteRequest(source=rng.choice(vertices), destination=rng.choice(vertices))
        for _ in range(count)
    ]


def _assert_identity(network, service, requests, engine="Shortest"):
    feature = (
        CostFeature.DISTANCE if engine == "Shortest" else CostFeature.TRAVEL_TIME
    )
    responses = service.route_many(requests, engine=engine)
    assert all(r.error is None for r in responses), [
        r.error for r in responses if r.error
    ]
    for request, response in zip(requests, responses):
        got = _response_cost(network, response, feature)
        want = _reference_cost(network, request.source, request.destination, feature)
        assert math.isclose(got, want, rel_tol=1e-9)
    return responses


# -------------------------------------------------------------------- #
# Wire framing
# -------------------------------------------------------------------- #
_HELLO_PAYLOAD = encode_frame(Hello(worker_id=3, shard_id=1, pid=123, cost_version=7))[4:]


def _flip_bits(positions: list[int]) -> bytes:
    """The pickled ``Hello`` with the given bits flipped."""
    payload = bytearray(_HELLO_PAYLOAD)
    for position in positions:
        payload[position // 8] ^= 1 << (position % 8)
    return bytes(payload)


class TestFrameCodec:
    def test_round_trip_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            message = Hello(worker_id=3, shard_id=1, pid=123, cost_version=7)
            send_frame(left, message)
            assert recv_frame(right, timeout_s=2.0) == message
        finally:
            left.close()
            right.close()

    def test_frame_layout_is_length_prefixed_pickle(self):
        frame = encode_frame("payload")
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert pickle.loads(frame[4:]) == "payload"

    def test_oversized_message_refused_at_encode(self):
        with pytest.raises(FrameError):
            encode_frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_oversized_length_prefix_refused_at_decode(self):
        left, right = socket.socketpair()
        try:
            left.settimeout(2.0)
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameError):
                recv_frame(right, timeout_s=2.0)
        finally:
            left.close()
            right.close()

    def test_peer_close_mid_frame_raises_eof(self):
        left, right = socket.socketpair()
        try:
            left.settimeout(2.0)
            left.sendall(struct.pack(">I", 64) + b"partial")
            left.close()
            with pytest.raises(EOFError):
                recv_frame(right, timeout_s=2.0)
        finally:
            right.close()

    def test_no_frame_within_timeout_raises_socket_timeout(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(socket.timeout):
                recv_frame(right, timeout_s=0.05)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize(
        "payload",
        [b"", b"\x80\x09", b"X\x02\x00\x00\x00\xff\xfe."],
        ids=["empty", "unsupported-protocol", "bad-binunicode"],
    )
    def test_undecodable_payload_raises_frame_error(self, payload):
        # Empty input, an unknown protocol and bad BINUNICODE make the
        # unpickler raise EOFError, ValueError and UnicodeDecodeError.
        left, right = socket.socketpair()
        try:
            left.settimeout(2.0)
            left.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(FrameError):
                recv_frame(right, timeout_s=2.0)
        finally:
            left.close()
            right.close()

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=256),
            st.lists(
                st.integers(min_value=0, max_value=len(_HELLO_PAYLOAD) * 8 - 1),
                min_size=1,
                max_size=6,
            ).map(_flip_bits),
        )
    )
    def test_arbitrary_payload_decodes_or_raises_frame_error(self, payload):
        left, right = socket.socketpair()
        try:
            left.settimeout(2.0)
            left.sendall(struct.pack(">I", len(payload)) + payload)
            started = time.monotonic()
            try:
                recv_frame(right, timeout_s=2.0)
            except FrameError:
                pass  # the one error a well-formed frame may raise
            assert time.monotonic() - started < 2.0
        finally:
            left.close()
            right.close()


# -------------------------------------------------------------------- #
# Endpoints
# -------------------------------------------------------------------- #
def _wait_until(predicate, timeout_s=10.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestSocketEndpoints:
    def test_hub_registers_on_first_frame_and_round_trips(self):
        with TcpHub() as hub:
            transport = SocketTransport(hub.address)
            try:
                transport.send(Hello(worker_id=5, shard_id=0, pid=1, cost_version=0))
                hello = hub.recv(timeout_s=5.0)
                assert hello.worker_id == 5
                assert _wait_until(lambda: hub.connected(5))
                assert hub.send(5, "downstream")
                assert transport.recv(timeout_s=5.0) == "downstream"
            finally:
                transport.close()

    def test_recv_timeout_raises_queue_empty(self):
        with TcpHub() as hub:
            transport = SocketTransport(hub.address)
            try:
                transport.send(Hello(worker_id=0, shard_id=0, pid=1, cost_version=0))
                hub.recv(timeout_s=5.0)  # drain the identify frame
                with pytest.raises(queue.Empty):
                    transport.recv(timeout_s=0.05)
                with pytest.raises(queue.Empty):
                    hub.recv(timeout_s=0.0)
            finally:
                transport.close()

    def test_dropped_connection_reconnects_and_reidentifies(self):
        with TcpHub() as hub:
            transport = SocketTransport(hub.address)
            transport.identify = lambda: Hello(
                worker_id=9, shard_id=0, pid=1, cost_version=4
            )
            try:
                transport.send(Hello(worker_id=9, shard_id=0, pid=1, cost_version=0))
                assert hub.recv(timeout_s=5.0).cost_version == 0
                assert _wait_until(lambda: hub.connected(9))
                assert hub.drop_connection(9)
                assert hub.drops == 1
                # The next poll notices the dead link and redials; the first
                # frame of the new connection is the identify Hello.
                for _ in range(200):
                    try:
                        transport.recv(timeout_s=0.05)
                    except queue.Empty:
                        pass
                    if hub.connected(9):
                        break
                assert hub.connected(9)
                assert transport.connects >= 2
                rehello = hub.recv(timeout_s=5.0)
                assert isinstance(rehello, Hello) and rehello.cost_version == 4
            finally:
                transport.close()

    def test_worker_treats_an_undecodable_frame_as_a_dead_link(self):
        garbled = struct.pack(">I", 2) + b"\x80\x09"
        with socket.create_server(("127.0.0.1", 0)) as server:
            server.settimeout(5.0)
            transport = SocketTransport(server.getsockname()[:2])
            transport.identify = lambda: Hello(
                worker_id=4, shard_id=0, pid=1, cost_version=6
            )
            try:
                transport.send(Hello(worker_id=4, shard_id=0, pid=1, cost_version=0))
                first, _ = server.accept()
                with first:
                    assert recv_frame(first, timeout_s=5.0).cost_version == 0
                    first.settimeout(5.0)
                    first.sendall(garbled)
                    # Dropped and redialed: the new link opens with identify.
                    with pytest.raises(queue.Empty):
                        transport.recv(timeout_s=5.0)
                    assert transport.connects == 2
                    second, _ = server.accept()
                    with second:
                        assert recv_frame(second, timeout_s=5.0).cost_version == 6
            finally:
                transport.close()

    def test_hub_drops_a_link_that_sends_an_undecodable_frame(self, monkeypatch):
        uncaught = []
        monkeypatch.setattr("threading.excepthook", uncaught.append)
        with TcpHub() as hub:
            with socket.create_connection(hub.address, timeout=5.0) as worker:
                send_frame(worker, Hello(worker_id=8, shard_id=0, pid=1, cost_version=0))
                hub.recv(timeout_s=5.0)
                assert _wait_until(lambda: hub.connected(8))
                worker.sendall(struct.pack(">I", 2) + b"\x80\x09")
                assert _wait_until(lambda: not hub.connected(8))
        assert uncaught == []

    def test_newer_connection_displaces_older(self):
        with TcpHub() as hub:
            first = SocketTransport(hub.address)
            second = SocketTransport(hub.address)
            try:
                first.send(Hello(worker_id=1, shard_id=0, pid=1, cost_version=0))
                hub.recv(timeout_s=5.0)
                second.send(Hello(worker_id=1, shard_id=0, pid=2, cost_version=1))
                assert hub.recv(timeout_s=5.0).pid == 2
                assert _wait_until(lambda: hub.connected(1))
                assert hub.connected_workers() == [1]
                assert hub.send(1, "to-the-newer")
                assert second.recv(timeout_s=5.0) == "to-the-newer"
            finally:
                first.close()
                second.close()

    def test_send_to_unknown_worker_is_false_not_an_exception(self):
        with TcpHub() as hub:
            assert not hub.send(42, "nobody-home")
            assert hub.broadcast("nobody-home") == 0

    def test_partitioned_worker_stays_disconnected_until_healed(self):
        with TcpHub() as hub:
            transport = SocketTransport(hub.address)
            transport.identify = lambda: Hello(
                worker_id=2, shard_id=0, pid=1, cost_version=0
            )
            try:
                transport.send(Hello(worker_id=2, shard_id=0, pid=1, cost_version=0))
                hub.recv(timeout_s=5.0)
                assert _wait_until(lambda: hub.connected(2))
                assert hub.partition_worker(2)
                # Repeated polls keep redialing, but every dial is refused
                # at the handshake while the partition is open.
                for _ in range(20):
                    with pytest.raises(queue.Empty):
                        transport.recv(timeout_s=0.02)
                    assert not hub.connected(2)
                hub.heal_worker(2)
                assert _wait_until(
                    lambda: self._poll_once(transport) or hub.connected(2)
                )
                assert hub.connected(2)
            finally:
                transport.close()

    @staticmethod
    def _poll_once(transport) -> bool:
        try:
            transport.recv(timeout_s=0.02)
        except queue.Empty:
            pass
        return False

    def test_reconnect_budget_exhaustion_surfaces_as_eof(self, monkeypatch):
        hub = TcpHub()
        address = hub.address
        hub.close()
        monkeypatch.setattr(transport_module, "RECONNECT_RETRIES", 1)
        monkeypatch.setattr(transport_module, "RECONNECT_BASE_DELAY_S", 0.001)
        transport = SocketTransport(address)
        with pytest.raises(EOFError):
            transport.recv(timeout_s=0.05)


# -------------------------------------------------------------------- #
# Replication primitives
# -------------------------------------------------------------------- #
class TestHeartbeatMonitor:
    def test_unanswered_probe_crosses_deadline_once(self):
        clock = [0.0]
        monitor = HeartbeatMonitor([0, 1], clock=lambda: clock[0])
        monitor.note_ping(0)
        monitor.note_ping(1)
        clock[0] = 1.0
        monitor.note_message(1)  # any traffic proves life
        clock[0] = 6.0
        assert monitor.is_suspect(0, timeout_s=5.0)
        assert not monitor.is_suspect(1, timeout_s=5.0)
        assert monitor.suspects(timeout_s=5.0) == [0]
        assert monitor.timeouts == 1
        # The crossing re-arms: not reported again until a fresh deadline.
        assert monitor.suspects(timeout_s=5.0) == []
        clock[0] = 12.0
        assert monitor.suspects(timeout_s=5.0) == [0]
        assert monitor.timeouts == 2

    def test_reprobing_a_silent_worker_does_not_extend_its_deadline(self):
        clock = [0.0]
        monitor = HeartbeatMonitor([0], clock=lambda: clock[0])
        monitor.note_ping(0)
        clock[0] = 4.0
        monitor.note_ping(0)  # outstanding probe: deadline must not move
        clock[0] = 5.0
        assert monitor.is_suspect(0, timeout_s=5.0)

    def test_recovery_after_message(self):
        clock = [0.0]
        monitor = HeartbeatMonitor([0], clock=lambda: clock[0])
        monitor.note_ping(0)
        clock[0] = 2.0
        monitor.note_message(0)
        clock[0] = 100.0
        assert not monitor.is_suspect(0, timeout_s=5.0)
        assert monitor.pings_sent == 1 and monitor.timeouts == 0


# -------------------------------------------------------------------- #
# Deployments
# -------------------------------------------------------------------- #
class TestFaultTolerantDeployment:
    def test_duplicate_results_do_not_accumulate(self, monkeypatch):
        """A link dropped right after a batch went out gets the batch resent
        on reconnect, so it may be answered twice; the spare RouteResults
        matches no pending task and must not be kept."""
        network = grid_city_network(4, 4, seed=3)
        with ShardedRoutingService(network, shard_count=2) as service:
            coordinator = service.coordinator
            pool = coordinator._pool
            submit = pool.submit
            drops = []

            def submit_then_drop(worker_id, message):
                delivered = submit(worker_id, message)
                if isinstance(message, RouteWork) and len(drops) < 4:
                    drops.append(worker_id)
                    coordinator.drop_connection(worker_id)
                return delivered

            monkeypatch.setattr(pool, "submit", submit_then_drop)
            for call in range(6):
                _assert_identity(network, service, _requests(network, 16, seed=call))
            assert len(drops) == 4
            assert len(coordinator._results) == 0

    def test_heartbeat_round_probes_every_worker(self, monkeypatch):
        monkeypatch.setattr(coordinator_module, "HEARTBEAT_TIMEOUT_S", 30.0)
        network = grid_city_network(4, 4, seed=3)
        with ShardedRoutingService(network, shard_count=2) as service:
            assert service.coordinator.heartbeat() == []  # all healthy
            stats = service.stats()
            assert stats.heartbeats_sent == 2
            assert stats.heartbeat_timeouts == 0

    def test_a_shard_that_does_not_answer_is_an_engine_health_failure(
        self, monkeypatch
    ):
        """A partitioned worker's slots fail as TransientEngineError, so the
        gate's breaker counts the call and degraded serving covers an OD
        served before the partition."""
        network = grid_city_network(4, 4, seed=3)
        with ShardCoordinator(network, shard_count=2) as coordinator:
            monkeypatch.setattr(resilience, "BREAKER_MIN_SAMPLES", 1)
            monkeypatch.setattr(resilience, "BREAKER_RECOVERY_S", 60.0)
            service = RoutingService(enable_cache=False, breaker=True)
            service.register("Fastest", coordinator.engine("Fastest"))
            shard_one = [
                v for v in sorted(network.vertex_ids()) if coordinator.plan.shard_of(v) == 1
            ]
            served = RouteRequest(source=shard_one[0], destination=shard_one[-1])
            unseen = RouteRequest(source=shard_one[-1], destination=shard_one[0])
            fresh = service.route(served)
            assert fresh.ok and not fresh.degraded

            monkeypatch.setattr(coordinator_module, "REQUEST_TIMEOUT_S", 0.3)
            assert coordinator.partition_worker(1)
            try:
                degraded, failed = service.route_many([served, unseen])
            finally:
                coordinator.heal_worker(1)
            assert degraded.ok and degraded.degraded and degraded.path == fresh.path
            assert not failed.ok and not failed.degraded
            assert failed.error.startswith("TransientEngineError: shard 1")
            assert service.breaker("Fastest").state == "open"
            stats = service.stats()
            assert stats.breaker_trips == 1 and stats.degraded_responses == 1

            # Healed: the worker redials and answers again.
            monkeypatch.undo()
            assert coordinator.engine("Fastest").route(served).path == fresh.path


class TestShutdownStragglers:
    def test_worker_ignoring_shutdown_is_terminated_within_deadline(self):
        """A wedged worker that drops Shutdown on the floor must be
        terminate()d by the pool's close deadline — reported unclean, never
        a deadlock."""
        network = grid_city_network(4, 4, seed=3)
        plan = build_shard_plan(network, 2)
        segment = shm.export_graph(
            network.compiled(), cost_version=network.cost_version
        )
        try:
            payloads = [
                WorkerPayload(
                    worker_id=worker_id,
                    shard_id=worker_id,
                    plan=plan,
                    network=network,
                    spec=segment.spec,
                    ignore_shutdown=(worker_id == 1),
                )
                for worker_id in range(2)
            ]
            pool = ShardWorkerPool(payloads)
            pool.start()
            started = time.monotonic()
            clean = pool.close(timeout_s=2.0)
            elapsed = time.monotonic() - started
            assert clean is False  # the straggler had to be terminated
            assert elapsed < 30.0
            assert not any(pool.alive())
        finally:
            segment.close()
            segment.unlink()

    def test_orderly_workers_close_clean(self):
        network = grid_city_network(4, 4, seed=3)
        plan = build_shard_plan(network, 2)
        segment = shm.export_graph(
            network.compiled(), cost_version=network.cost_version
        )
        try:
            payloads = [
                WorkerPayload(
                    worker_id=worker_id,
                    shard_id=worker_id,
                    plan=plan,
                    network=network,
                    spec=segment.spec,
                )
                for worker_id in range(2)
            ]
            pool = ShardWorkerPool(payloads)
            pool.start()
            assert pool.close(timeout_s=15.0) is True
        finally:
            segment.close()
            segment.unlink()


def _payloads(network, segment, plan=None):
    plan = plan or build_shard_plan(network, 2)
    return [
        WorkerPayload(
            worker_id=worker_id,
            shard_id=worker_id,
            plan=plan,
            network=network,
            spec=segment.spec,
        )
        for worker_id in range(2)
    ]


class TestBootOverTheLink:
    """Each worker fetches its payload over its own link (``Attach`` →
    ``WorkerPayload`` → ``Hello``), so the spawn pipe carries only the
    worker id and the hub address."""

    def test_spawn_arguments_fit_in_one_pipe_buffer(self, monkeypatch):
        """``Process.start()`` writes the pickled process into a 64 KiB
        pipe and blocks until the child reads it, which a spawned child does
        only after importing: a larger pickle would make each start wait
        for the previous child's imports."""
        network = grid_city_network(60, 60, seed=5)
        segment = shm.export_graph(network.compiled(), cost_version=network.cost_version)
        built = []

        class _Unstarted:
            def __init__(self, **kwargs):
                built.append(kwargs)

            def start(self):
                pass

            def is_alive(self):
                return False

            def join(self, timeout=None):
                pass

        try:
            pool = ShardWorkerPool(_payloads(network, segment))
            monkeypatch.setattr(pool._ctx, "Process", _Unstarted)
            for worker_id in range(pool.size):
                pool._spawn(worker_id)
            pool.close()
            assert len(pickle.dumps(pool._payloads[0])) > 256 * 1024  # what used to ride along
            for kwargs in built:
                spawned = pickle.dumps((kwargs["target"], kwargs["args"]), pickle.HIGHEST_PROTOCOL)
                assert len(spawned) < 64 * 1024
            # The payload frame carries the network as arrays: 910,727 bytes
            # for this grid (1,386,849 while it pickled Edge and Vertex
            # objects), bounded with ~25 % headroom.
            assert len(transport_module.encode_frame(pool._payloads[0])) < 1_140_000
        finally:
            segment.close()
            segment.unlink()

    def test_link_dropped_before_the_payload_reattaches_and_boots(self, monkeypatch):
        monkeypatch.setattr(pool_module, "HANDSHAKE_TIMEOUT_S", 30.0)  # fail, not hang
        network = grid_city_network(4, 4, seed=3)
        segment = shm.export_graph(network.compiled(), cost_version=network.cost_version)
        try:
            pool = ShardWorkerPool(_payloads(network, segment))
            hub = pool._hub
            send = hub.send
            withheld = []

            def drop_the_first_payload(worker_id, message):
                if isinstance(message, WorkerPayload) and not withheld:
                    withheld.append(worker_id)
                    assert hub.drop_connection(worker_id)
                    return False
                return send(worker_id, message)

            hub.send = drop_the_first_payload
            try:
                pool.start()
                assert len(withheld) == 1 and hub.drops == 1
                assert all(pool.alive())
                # Both booted and serve: each answers a heartbeat.
                assert pool.broadcast(Ping(sequence=1)) == 2
                pongs = set()
                deadline = time.monotonic() + 10.0
                while len(pongs) < 2 and time.monotonic() < deadline:
                    message = pool.recv(timeout_s=1.0)
                    if isinstance(message, Pong):
                        pongs.add(message.worker_id)
                assert pongs == {0, 1}
            finally:
                assert pool.close(timeout_s=15.0) is True
        finally:
            segment.close()
            segment.unlink()

    def test_a_worker_without_a_payload_fails_the_start_in_bounded_time(
        self, monkeypatch
    ):
        monkeypatch.setattr(pool_module, "HANDSHAKE_TIMEOUT_S", 3.0)
        network = grid_city_network(4, 4, seed=3)
        segment = shm.export_graph(network.compiled(), cost_version=network.cost_version)
        try:
            pool = ShardWorkerPool(_payloads(network, segment))
            send = pool._hub.send
            pool._hub.send = lambda worker_id, message: (
                True if isinstance(message, WorkerPayload) else send(worker_id, message)
            )
            started = time.monotonic()
            with pytest.raises(ShardingError, match="did not finish booting"):
                pool.start()
            assert time.monotonic() - started < 30.0
            # Still waiting for a payload, the workers honour the stop.
            assert pool.close(timeout_s=15.0) is True
            assert not any(pool.alive())
        finally:
            segment.close()
            segment.unlink()

    def test_a_boot_failure_is_reported_over_the_same_link(self):
        network = grid_city_network(4, 4, seed=3)
        other = grid_city_network(5, 5, seed=3)
        segment = shm.export_graph(other.compiled(), cost_version=other.cost_version)
        try:
            pool = ShardWorkerPool(_payloads(network, segment))
            try:
                with pytest.raises(ShardingError, match="failed to boot.*CSR topology"):
                    pool.start()
            finally:
                # A sibling that attaches after the stop went out is answered
                # with a stop of its own, not left to the close deadline.
                started = time.monotonic()
                clean = pool.close()
                elapsed = time.monotonic() - started
            assert clean is True
            assert elapsed < pool_module._JOIN_TIMEOUT_S / 2
            assert not any(pool.alive())
        finally:
            segment.close()
            segment.unlink()
