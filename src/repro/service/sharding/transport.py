"""TCP socket transport for the sharded serving protocol.

The one wire between coordinator and workers: this module supplies its two
endpoints.

* :class:`SocketTransport` — the worker side.  Implements the
  :class:`~repro.service.sharding.protocol.Transport` protocol (``send`` /
  ``recv``) over one TCP connection to the coordinator, dialing lazily and
  *reconnecting* with :class:`~repro.service.resilience.RetryPolicy`
  seeded-jitter backoff when the link dies.  ``recv`` raises
  ``queue.Empty`` on a poll timeout (the worker loop's contract).  The
  first frame of every re-dialed connection is the ``identify`` message:
  an :class:`~repro.service.sharding.protocol.Attach` until the worker has
  booted (the pool answers it with the worker's payload), then a
  :class:`~repro.service.sharding.protocol.Hello` carrying the worker's
  current cost version, which is what tells the coordinator to order a
  segment resync.
* :class:`TcpHub` — the coordinator side.  One listening socket, a
  background accept thread, and one reader thread per live connection;
  every inbound message lands in a single bounded-wait queue the pool
  drains, and outbound sends go straight to the owning connection under a
  per-connection lock.  A newer connection from the same worker id
  displaces the older one (reconnects win), and :meth:`TcpHub.
  drop_connection` severs a link deliberately — the chaos hook the
  partition tests are built on.

Framing is length-prefixed pickle (see :mod:`~repro.service.sharding.
protocol` for the byte layout); every socket operation — ``accept``,
``recv``, ``sendall``, the dial — carries an explicit timeout, enforced by
reprolint RL010, so no peer can wedge a coordinator or worker forever.
"""

from __future__ import annotations

import pickle
import queue
import socket
import struct
import threading
import time
from typing import Callable

from ...exceptions import ShardingError
from ..resilience import RetryPolicy

#: Frame length prefix: 4 bytes, big-endian, unsigned.
_LENGTH_STRUCT = struct.Struct(">I")

#: Hard cap on one frame's payload. A corrupt length prefix (or a hostile
#: peer) must not make the reader allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: How long one worker-side ``recv`` poll blocks by default.
_DEFAULT_POLL_TIMEOUT_S = 1.0

#: Socket timeout for whole-frame writes and for the mid-frame chunks of a
#: read that already consumed its length prefix (a peer that stops mid-frame
#: is broken, not slow).
_IO_TIMEOUT_S = 10.0

#: A worker's dial timeout, and the redials its reconnect budget allows
#: (exponential seeded-jitter backoff from the base delay).
CONNECT_TIMEOUT_S = 5.0
RECONNECT_RETRIES = 8
RECONNECT_BASE_DELAY_S = 0.01

#: How long the hub's accept and reader loops block before re-checking
#: for shutdown.
ACCEPT_TIMEOUT_S = 0.2

#: Seconds a new connection gets to send its identify frame.  Also the
#: pool's boot deadline (a worker's ``Attach`` to its ``Hello``) and how
#: long a spawned worker waits for its payload.
HANDSHAKE_TIMEOUT_S = 120.0


class FrameError(ShardingError):
    """A malformed frame: oversized length prefix or undecodable payload."""


# ---------------------------------------------------------------------- #
# Frame codec
# ---------------------------------------------------------------------- #
def encode_frame(message: object) -> bytes:
    """One wire frame: 4-byte big-endian length + pickled message."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    return _LENGTH_STRUCT.pack(len(payload)) + payload


def send_frame(sock: socket.socket, message: object) -> None:
    """Write one frame under the I/O timeout (``sendall`` semantics)."""
    sock.settimeout(_IO_TIMEOUT_S)
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, count: int, deadline: float) -> bytes:
    """Read exactly ``count`` bytes before ``deadline`` (monotonic).

    Raises ``socket.timeout`` when the deadline passes, ``EOFError`` when
    the peer closes mid-read.  Every chunk read re-arms the socket timeout
    from the remaining budget, so a trickling peer cannot stretch one frame
    past the deadline.
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        budget = deadline - time.monotonic()
        if budget <= 0:
            raise socket.timeout("frame read deadline passed")
        sock.settimeout(budget)
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise EOFError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, timeout_s: float) -> object:
    """Read and unpickle one frame.

    ``socket.timeout`` means "no frame started within ``timeout_s``" (the
    caller's poll loop continues); once a length prefix arrives the rest of
    the frame must follow within :data:`_IO_TIMEOUT_S`.  ``EOFError`` means
    the peer closed the connection; :class:`FrameError` means an oversized
    frame or a payload that does not unpickle, whatever the unpickler raised.
    """
    deadline = time.monotonic() + timeout_s
    try:
        header = _recv_exact(sock, _LENGTH_STRUCT.size, deadline)
    except socket.timeout:
        raise
    (length,) = _LENGTH_STRUCT.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame announces {length} bytes, above the {MAX_FRAME_BYTES}-byte cap"
        )
    payload = _recv_exact(sock, length, time.monotonic() + _IO_TIMEOUT_S)
    try:
        return pickle.loads(payload)
    except Exception as exc:  # corrupt bytes raise nearly any type from the unpickler
        raise FrameError(f"undecodable {length}-byte frame payload: {exc!r}") from exc


# ---------------------------------------------------------------------- #
# Worker side: SocketTransport
# ---------------------------------------------------------------------- #
class SocketTransport:
    """The worker end of the wire: one auto-reconnecting TCP connection.

    Satisfies the :class:`~repro.service.sharding.protocol.Transport`
    protocol.  ``recv`` converts poll timeouts to ``queue.Empty`` (the
    worker loop's contract) and treats a dead link, or a frame it cannot
    decode, as "no message yet":
    it redials with the retry policy's seeded backoff and keeps polling.
    Only when the whole reconnect budget is exhausted does it raise
    ``EOFError`` — the worker loop exits, the process dies, and the pool's
    respawn path takes over with a full boot.
    """

    def __init__(
        self,
        address: tuple[str, int],
        *,
        identify: Callable[[], object] | None = None,
    ) -> None:
        self.address = address
        self.retry = RetryPolicy(
            max_retries=RECONNECT_RETRIES, base_delay_s=RECONNECT_BASE_DELAY_S
        )
        self.identify = identify
        """Zero-arg factory for the re-identification message sent as the
        first frame of every re-dialed connection (set by the worker entry:
        an :class:`~repro.service.sharding.protocol.Attach` until it has
        booted, then a :class:`~repro.service.sharding.protocol.Hello`
        closure over the worker's live cost version)."""
        self._sock: socket.socket | None = None
        self._connects = 0

    # -- connection management ----------------------------------------- #
    @property
    def connects(self) -> int:
        """Successful dials so far (1 = never reconnected)."""
        return self._connects

    def _dial_once(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=CONNECT_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _connect(self) -> socket.socket:
        """Dial with seeded-backoff retries; raises ``OSError`` when the
        whole retry budget is spent."""
        attempt = 0
        while True:
            try:
                sock = self._dial_once()
                break
            except OSError:
                delay = self.retry.delay(attempt)
                if delay is None:
                    raise
                attempt += 1
                time.sleep(delay)
        self._connects += 1
        self._sock = sock
        # Re-identification happens on reconnects only: on the very first
        # connection the worker's own first frame (its Attach) is the
        # identify frame.
        if self._connects > 1 and self.identify is not None:
            try:
                send_frame(sock, self.identify())
            except OSError:
                self._drop()
                raise
        return sock

    def _ensure_connected(self) -> socket.socket:
        if self._sock is None:
            return self._connect()
        return self._sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass  # already torn down by the peer; nothing left to close
            self._sock = None

    def close(self) -> None:
        self._drop()

    # -- Transport protocol -------------------------------------------- #
    def send(self, message: object) -> None:
        """Deliver one message, reconnecting once on a dead link.

        The re-dialed connection's identify frame precedes the payload, so
        the coordinator re-learns the worker before the (possibly resent)
        message arrives.  A second consecutive failure propagates — the
        worker loop treats it as transport teardown.
        """
        try:
            send_frame(self._ensure_connected(), message)
        except (OSError, EOFError):
            self._drop()
            send_frame(self._connect(), message)

    def recv(self, timeout_s: float | None = None) -> object:
        wait = _DEFAULT_POLL_TIMEOUT_S if timeout_s is None else timeout_s
        try:
            sock = self._ensure_connected()
        except OSError as exc:
            raise EOFError(f"reconnect budget exhausted dialing {self.address}") from exc
        try:
            return recv_frame(sock, timeout_s=wait)
        except socket.timeout:
            raise queue.Empty() from None
        except (OSError, EOFError, FrameError):
            # Dead or garbled link: redial (bounded by the retry policy) and
            # report "nothing yet" — whatever was in flight is the coordinator's
            # problem (it resubmits work to reconnected/respawned workers).
            # The pause keeps a worker whose connections keep dying at birth
            # (a coordinator-side partition) from busy-spinning the dial.
            self._drop()
            time.sleep(self.retry.base_delay_s)
            try:
                self._connect()
            except OSError as exc:
                raise EOFError(
                    f"reconnect budget exhausted dialing {self.address}"
                ) from exc
            raise queue.Empty() from None


# ---------------------------------------------------------------------- #
# Coordinator side: TcpHub
# ---------------------------------------------------------------------- #
class _Connection:
    """One live worker link: socket, send lock, and its reader thread."""

    __slots__ = ("sock", "lock", "thread", "closed")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()
        self.thread: threading.Thread | None = None
        self.closed = False

    def close(self) -> None:
        self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # peer already gone; close below still releases the fd
        try:
            self.sock.close()
        except OSError:
            pass  # double-close race with the reader thread is harmless


class TcpHub:
    """The coordinator's socket endpoint: accept, route, collect.

    Connections self-identify: the first frame a worker sends on any
    connection carries its ``worker_id`` (an ``Attach`` from a worker that
    has not booted yet, a ``Hello`` from one that has), and the hub binds
    the connection to that id —
    displacing any previous connection, so reconnects always win.  Every
    inbound message (the identify frame included) lands in one queue that
    :meth:`recv` drains with a bounded wait; outbound :meth:`send` /
    :meth:`broadcast` are best-effort — a send onto a dead link marks the
    connection gone and returns ``False`` rather than raising, because the
    liveness/resync machinery (not the sender) owns recovery.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._inbound: queue.Queue[object] = queue.Queue()
        self._connections: dict[int, _Connection] = {}
        self._partitioned: set[int] = set()
        self._registry_lock = threading.Lock()
        self._closing = False
        self._drops = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tcp-hub-accept", daemon=True
        )
        self._accept_thread.start()

    # -- background threads -------------------------------------------- #
    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                self._listener.settimeout(ACCEPT_TIMEOUT_S)
                conn_sock, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed underneath us: shutting down
            conn_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(conn_sock)
            reader = threading.Thread(
                target=self._reader_loop,
                args=(connection,),
                name="tcp-hub-reader",
                daemon=True,
            )
            connection.thread = reader
            reader.start()

    def _reader_loop(self, connection: _Connection) -> None:
        worker_id: int | None = None
        try:
            first = recv_frame(connection.sock, timeout_s=HANDSHAKE_TIMEOUT_S)
            worker_id = getattr(first, "worker_id", None)
            if not isinstance(worker_id, int):
                raise FrameError(
                    f"first frame {type(first).__name__} carries no worker_id"
                )
            with self._registry_lock:
                blackholed = worker_id in self._partitioned
            if blackholed:
                # An active partition: refuse the connection (the worker
                # keeps redialing with backoff until the partition heals).
                connection.close()
                return
            self._register(worker_id, connection)
            self._inbound.put(first)
            while not connection.closed and not self._closing:
                try:
                    message = recv_frame(connection.sock, timeout_s=ACCEPT_TIMEOUT_S)
                except socket.timeout:
                    continue
                self._inbound.put(message)
        except (OSError, EOFError, FrameError):
            pass  # dead/garbled link: unregister below, liveness heals it
        finally:
            if worker_id is not None:
                self._unregister(worker_id, connection)
            connection.close()

    def _register(self, worker_id: int, connection: _Connection) -> None:
        with self._registry_lock:
            previous = self._connections.get(worker_id)
            self._connections[worker_id] = connection
        if previous is not None and previous is not connection:
            previous.close()

    def _unregister(self, worker_id: int, connection: _Connection) -> None:
        with self._registry_lock:
            if self._connections.get(worker_id) is connection:
                del self._connections[worker_id]

    # -- coordinator API ------------------------------------------------ #
    @property
    def drops(self) -> int:
        """Connections severed via :meth:`drop_connection` (chaos hook)."""
        return self._drops

    def connected(self, worker_id: int) -> bool:
        with self._registry_lock:
            connection = self._connections.get(worker_id)
        return connection is not None and not connection.closed

    def connected_workers(self) -> list[int]:
        with self._registry_lock:
            return sorted(
                worker_id
                for worker_id, connection in self._connections.items()
                if not connection.closed
            )

    def send(self, worker_id: int, message: object) -> bool:
        """Best-effort delivery; ``False`` when no live link took it."""
        with self._registry_lock:
            connection = self._connections.get(worker_id)
        if connection is None or connection.closed:
            return False
        try:
            with connection.lock:
                send_frame(connection.sock, message)
            return True
        except (OSError, FrameError):
            self._unregister(worker_id, connection)
            connection.close()
            return False

    def broadcast(self, message: object) -> int:
        """Send to every connected worker; returns the delivered count."""
        delivered = 0
        for worker_id in self.connected_workers():
            if self.send(worker_id, message):
                delivered += 1
        return delivered

    def recv(self, timeout_s: float = 1.0) -> object:
        """The next worker-to-coordinator message (``queue.Empty`` on
        timeout — callers own the retry loop)."""
        return self._inbound.get(timeout=timeout_s)

    def partition_worker(self, worker_id: int) -> bool:
        """Chaos hook: black-hole the worker until :meth:`heal_worker`.

        Its current link is severed and every re-dial is refused at the
        handshake, so — unlike a bare :meth:`drop_connection`, which the
        worker heals in milliseconds — the worker *deterministically* stays
        unreachable across whatever the test does next (e.g. a traffic
        broadcast it must later catch up on via a resync).  Returns
        whether a live link existed when the partition opened.
        """
        with self._registry_lock:
            self._partitioned.add(worker_id)
        return self.drop_connection(worker_id)

    def heal_worker(self, worker_id: int) -> None:
        """Close the partition; the worker's next dial registers normally."""
        with self._registry_lock:
            self._partitioned.discard(worker_id)

    def drop_connection(self, worker_id: int) -> bool:
        """Chaos hook: sever the worker's link (it reconnects on its own).

        Returns whether a live connection existed.  The worker process is
        untouched — this is a network fault, not a crash — so the next
        frames it sends redial and re-identify, which is exactly the
        reconnect path the partition tests exercise.
        """
        with self._registry_lock:
            connection = self._connections.pop(worker_id, None)
        if connection is None:
            return False
        connection.close()
        self._drops += 1
        return True

    def close(self) -> None:
        """Stop accepting, sever every link, release the port.  Idempotent."""
        if self._closing:
            return
        self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass  # already closed; the accept loop exits either way
        self._accept_thread.join(timeout=5.0)
        with self._registry_lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "TcpHub":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
