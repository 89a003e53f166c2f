"""Shared-memory export of a compiled snapshot's cost state.

The owner of a sharded deployment publishes the per-feature cost arrays of
one compiled snapshot where every worker process on the machine can read
them: the authoritative cost state, and its version, that a worker adopts at
boot and catches up from on a resync.  The topology itself is *not* in the
segment — a worker compiles its own from the network it was handed — only
its stamp (:attr:`~repro.network.compiled.graph.Topology.stamp`: vertex
count, edge count, CRC over ``offsets`` / ``targets`` / ``vertex_ids``), which
:func:`verify_topology` compares to prove that the worker's compile lands on
the same slots these slot-indexed arrays belong to.

One :func:`export_graph` call packs everything into a single
:class:`multiprocessing.shared_memory.SharedMemory` segment::

    [ header int64[8] | cost array 0 | cost array 1 | ... ]   (16-byte aligned)

each array one-dimensional ``float64``.  The header block carries the magic,
the layout version, the topology stamp, and — the one *mutable* slot — the
network cost version the cost arrays currently reflect, so attached workers
can detect staleness and resync without any side channel.
The owner patches the cost arrays in place (:meth:`SharedGraphSegment.patch`:
values first, then the version); a worker reads them at boot and on a resync
only, copying them and adopting the copy through
:meth:`~repro.network.road_network.RoadNetwork.restore_cost_state`, and serves
from its own arrays in between.

Lifecycle etiquette (enforced by reprolint RL009):

* the **owner** creates the segment and is the only party that ever calls
  :meth:`SharedGraphSegment.unlink`; creation is paired with
  ``close()``/``unlink()`` cleanup on every failure path;
* **workers** attach by name through :func:`attach` and only ever
  :meth:`SegmentView.close` their mapping — a worker that unlinks would
  tear the segment out from under its siblings.

Every array is forced C-contiguous with its expected dtype at export time
and verified again at attach time: a transposed or casted view would
silently corrupt the zero-copy reconstruction otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ...exceptions import NetworkError
from .graph import EDGE_COST_ATTRIBUTES

if TYPE_CHECKING:  # pragma: no cover
    from .graph import CompiledGraph

#: ``b"RPRO"`` as one little-endian int64: guards against attaching a
#: foreign (or torn) segment as a compiled-graph export.
MAGIC = 0x4F525052

#: Bumped whenever the packed layout changes incompatibly.
LAYOUT_VERSION = 3

_HEADER_SLOTS = 8
HEADER_BYTES = _HEADER_SLOTS * 8
_ALIGN = 16

_SLOT_MAGIC = 0
_SLOT_LAYOUT = 1
_SLOT_VERTICES = 2
_SLOT_EDGES = 3
_SLOT_COST_VERSION = 4
_SLOT_TOPOLOGY_CRC = 5

_COST_PREFIX = "cost:"


def _cost_name(attribute: str) -> str:
    return f"{_COST_PREFIX}{attribute}"


def expected_dtype(name: str) -> np.dtype:
    """The pinned dtype for one exported array name (cost arrays only)."""
    if not name.startswith(_COST_PREFIX):
        raise NetworkError(f"unknown shared-segment array {name!r}")
    return np.dtype(np.float64)


def _exportable(name: str, raw: object) -> np.ndarray:
    """Force one array into its exportable form, or refuse loudly.

    C-contiguity and the pinned dtype are *forced* (a cast or a transposed
    view is normalized into a packed copy); anything that cannot be
    represented — wrong dimensionality, lossy casts from non-numeric data —
    raises :class:`NetworkError` instead of silently corrupting the
    zero-copy reconstruction on the attach side.
    """
    dtype = expected_dtype(name)
    try:
        arr = np.ascontiguousarray(raw, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NetworkError(
            f"array {name!r} cannot be exported as {dtype.name}: {exc}"
        ) from exc
    if arr.ndim != 1:
        raise NetworkError(
            f"array {name!r} must be 1-dimensional for export, got shape {arr.shape}"
        )
    if not arr.flags.c_contiguous or arr.dtype != dtype:
        raise NetworkError(
            f"array {name!r} failed export normalization "
            f"(contiguous={arr.flags.c_contiguous}, dtype={arr.dtype})"
        )
    return arr


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one packed array inside the segment (picklable)."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class SegmentSpec:
    """Everything a worker needs to attach and rebuild the views.

    Shipped to worker processes over the spawn pickle; the segment itself
    is looked up by name in the operating system's shared-memory namespace.
    """

    segment_name: str
    size: int
    arrays: tuple[ArraySpec, ...]
    cost_attributes: tuple[str, ...]


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    On Python < 3.13 an attaching process registers the segment with the
    :mod:`multiprocessing.resource_tracker`, which then unlinks the
    segment when *this* process exits — exactly the double-unlink the
    worker-side lifecycle must avoid (only the owner unlinks).  Newer
    interpreters expose ``track=False``; older ones get registration
    suppressed during the attach call.  (Register-then-unregister is not
    an option: the tracker's name cache is shared across all workers, so
    concurrent attachments race their unregister calls into KeyErrors.)
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    try:
        from multiprocessing import resource_tracker
    except ImportError as exc:  # pragma: no cover - stdlib drift
        # Tracked attachment would unlink the segment when this process
        # exits; refuse rather than sabotage the owner's lifecycle.
        raise NetworkError(f"cannot untrack shared-memory attachment: {exc}") from exc

    original_register = resource_tracker.register

    def _register_except_segments(target: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original_register(target, rtype)

    resource_tracker.register = _register_except_segments
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _view_from(buf: memoryview, spec: ArraySpec, *, writeable: bool) -> np.ndarray:
    arr: np.ndarray = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=buf, offset=spec.offset)
    if not writeable:
        arr.flags.writeable = False
    return arr


def _header_view(buf: memoryview) -> np.ndarray:
    return np.ndarray((_HEADER_SLOTS,), dtype=np.int64, buffer=buf)


class SegmentView:
    """A worker-side attachment: zero-copy read-only views, never unlinks.

    ``close()`` drops this process's mapping; the segment itself lives until
    the owner unlinks it.  Safe to close more than once.
    """

    def __init__(self, spec: SegmentSpec, handle: shared_memory.SharedMemory) -> None:
        self.spec = spec
        self._shm = handle
        self._header = _header_view(handle.buf)
        self._views = {
            array_spec.name: _view_from(handle.buf, array_spec, writeable=False)
            for array_spec in spec.arrays
        }
        _verify_header(self._header, spec)

    @property
    def cost_version(self) -> int:
        """The network cost version the shared cost arrays reflect."""
        return int(self._header[_SLOT_COST_VERSION])

    @property
    def vertex_count(self) -> int:
        return int(self._header[_SLOT_VERTICES])

    @property
    def edge_count(self) -> int:
        return int(self._header[_SLOT_EDGES])

    @property
    def topology_stamp(self) -> tuple[int, int, int]:
        """The :attr:`Topology.stamp` of the snapshot the owner exported."""
        return (self.vertex_count, self.edge_count, int(self._header[_SLOT_TOPOLOGY_CRC]))

    def array(self, name: str) -> np.ndarray:
        """The zero-copy read-only view of one packed array."""
        return self._views[name]

    def cost_array(self, attribute: str) -> np.ndarray:
        return self._views[_cost_name(attribute)]

    def close(self) -> None:
        """Drop this process's mapping (idempotent); never unlinks."""
        if self._shm is None:
            return
        self._views = {}
        self._header = None  # type: ignore[assignment]
        self._shm.close()
        self._shm = None  # type: ignore[assignment]

    def __enter__(self) -> "SegmentView":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SharedGraphSegment:
    """The owner handle: created by :func:`export_graph`, patched by the
    traffic path, and — on the owner alone — unlinked at shutdown."""

    def __init__(self, spec: SegmentSpec, handle: shared_memory.SharedMemory) -> None:
        self.spec = spec
        self._shm = handle
        self._header = _header_view(handle.buf)
        self._views = {
            array_spec.name: _view_from(handle.buf, array_spec, writeable=True)
            for array_spec in spec.arrays
        }
        self._unlinked = False

    def patch(
        self, graph: "CompiledGraph", slots: Iterable[int], cost_version: int
    ) -> int:
        """Refresh the shared cost arrays for ``slots`` from ``graph``.

        Called by the owner *after* the master network applied a traffic
        batch; copies the post-update values for the touched CSR slots into
        the segment and advances the header's cost-version counter so late
        attachers (and restarted workers) resync against current state.
        Returns the number of slots written.
        """
        if self._shm is None:
            raise NetworkError("shared segment is closed")
        index = np.asarray(list(slots), dtype=np.int64)
        if index.size:
            for attr in self.spec.cost_attributes:
                source = graph.array(attr)
                self._views[_cost_name(attr)][index] = source[index]
        self._header[_SLOT_COST_VERSION] = int(cost_version)
        return int(index.size)

    def close(self) -> None:
        """Drop the owner's mapping (idempotent)."""
        if self._shm is None:
            return
        self._views = {}
        self._header = None  # type: ignore[assignment]
        self._shm.close()
        self._shm = None  # type: ignore[assignment]

    def unlink(self) -> None:
        """Remove the segment from the system namespace (idempotent).

        Owner-only: attached workers keep their mappings alive until they
        close, but no new attach can succeed afterwards.
        """
        if self._unlinked:
            return
        self._unlinked = True
        if self._shm is not None:
            self._shm.unlink()
            return
        # Already closed: reattach (untracked) just long enough to unlink.
        try:
            handle = _attach_untracked(self.spec.segment_name)
        except FileNotFoundError:
            return
        try:
            handle.unlink()
        finally:
            handle.close()

    def __enter__(self) -> "SharedGraphSegment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
        self.unlink()


def _verify_header(header: np.ndarray, spec: SegmentSpec) -> None:
    if int(header[_SLOT_MAGIC]) != MAGIC:
        raise NetworkError(
            f"segment {spec.segment_name!r} does not carry a compiled-graph "
            f"export (bad magic {int(header[_SLOT_MAGIC]):#x})"
        )
    if int(header[_SLOT_LAYOUT]) != LAYOUT_VERSION:
        raise NetworkError(
            f"segment {spec.segment_name!r} uses layout "
            f"{int(header[_SLOT_LAYOUT])}, expected {LAYOUT_VERSION}"
        )


def _collect_arrays(graph: "CompiledGraph") -> list[tuple[str, np.ndarray]]:
    return [
        (_cost_name(attr), _exportable(_cost_name(attr), graph.array(attr)))
        for attr in EDGE_COST_ATTRIBUTES
    ]


def export_graph(
    graph: "CompiledGraph", *, cost_version: int = 0, name: str | None = None
) -> SharedGraphSegment:
    """Export one compiled snapshot into a fresh shared-memory segment.

    ``cost_version`` seeds the header's mutable counter (the owner's network
    cost version at export time).  The returned owner handle must be
    ``close()``-d and ``unlink()``-ed when serving ends; use it as a context
    manager for scoped lifetimes.
    """
    pairs = _collect_arrays(graph)
    offset = HEADER_BYTES
    specs: list[ArraySpec] = []
    for array_name, arr in pairs:
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        specs.append(
            ArraySpec(
                name=array_name,
                dtype=arr.dtype.name,
                shape=tuple(int(dim) for dim in arr.shape),
                offset=offset,
            )
        )
        offset += arr.nbytes
    total = max(offset, HEADER_BYTES + 8)

    shm = (
        shared_memory.SharedMemory(create=True, size=total)
        if name is None
        else shared_memory.SharedMemory(create=True, size=total, name=name)
    )
    try:
        header = _header_view(shm.buf)
        header[:] = 0
        header[_SLOT_MAGIC] = MAGIC
        header[_SLOT_LAYOUT] = LAYOUT_VERSION
        vertices, edges, crc = graph.topology.stamp
        header[_SLOT_VERTICES] = vertices
        header[_SLOT_EDGES] = edges
        header[_SLOT_TOPOLOGY_CRC] = crc
        header[_SLOT_COST_VERSION] = int(cost_version)
        for spec, (_, arr) in zip(specs, pairs):
            _view_from(shm.buf, spec, writeable=True)[...] = arr
        segment_spec = SegmentSpec(
            segment_name=shm.name,
            size=total,
            arrays=tuple(specs),
            cost_attributes=EDGE_COST_ATTRIBUTES,
        )
        return SharedGraphSegment(segment_spec, shm)
    except BaseException:
        # Failed exports must not leak the segment: close our mapping and
        # unlink the half-written name before propagating.
        shm.close()
        shm.unlink()
        raise


def attach(spec: SegmentSpec) -> SegmentView:
    """Attach to an exported segment as a worker (close-only lifecycle).

    Validates the header magic/layout and every view's dtype and
    C-contiguity before handing the views out; a mismatched segment raises
    :class:`NetworkError` after closing the attachment.
    """
    handle = _attach_untracked(spec.segment_name)
    try:
        view = SegmentView(spec, handle)
        for array_spec in spec.arrays:
            arr = view.array(array_spec.name)
            if arr.dtype != expected_dtype(array_spec.name) or not arr.flags.c_contiguous:
                raise NetworkError(
                    f"attached array {array_spec.name!r} is not a contiguous "
                    f"{expected_dtype(array_spec.name).name} view"
                )
        return view
    except BaseException:
        handle.close()
        raise


def verify_topology(graph: "CompiledGraph", view: SegmentView) -> bool:
    """Whether a locally compiled snapshot has the topology the owner exported.

    Workers run this once at boot as an integrity gate: the pickled network
    they received must compile to the CSR layout (and the vertex ids) the
    segment's slot-indexed cost arrays belong to, or cost patches would land
    on the wrong edges.
    """
    return graph.topology.stamp == view.topology_stamp
