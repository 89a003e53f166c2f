"""The compiled (CSR) view of a :class:`~repro.network.road_network.RoadNetwork`.

A :class:`CompiledGraph` is where a road network keeps its edges: every edge
attribute lives in one flat array in CSR slot order, and the network's
``Edge`` objects are values built from these arrays when read.  A snapshot is
built from :class:`EdgeRows` (the edges as columns in insertion order) and is
composed of two parts with very different lifetimes:

* a :class:`Topology` — the immutable CSR structure: vertex ids mapped to
  dense integer indices (in sorted-id order, so heap tie-breaking stays
  order-isomorphic with the dict-based kernels), forward ``offsets`` /
  ``targets`` arrays whose slots preserve per-source insertion order, a
  reverse (predecessor) CSR whose slots index back into the forward slots,
  the ``(source, target) -> slot`` lookup (iterating in edge insertion
  order), and the two attributes traffic never changes, road type and speed.
  The topology never changes for the lifetime of the snapshot; a structural
  mutation of the network builds a new :class:`CompiledGraph`, carrying the
  current costs across by key.

* a :class:`CostStore` — the monotonically-versioned cost state: one flat
  numpy array per travel-cost feature, the linear-combination views derived
  from them, the reverse weight-list cache, and the generic ``memo()``
  artifact cache.  Live-traffic updates patch the store through
  :meth:`CostStore.apply_updates` *without* recompiling the topology:
  touched arrays are swapped for patched copies (readers holding the old
  array keep a consistent pre-update view), the cost version is bumped, and
  every memoized artifact that was stamped with the old version self-evicts
  on its next lookup.  Adopting a whole cost state (crash recovery, a shard
  worker's boot and resync — :meth:`RoadNetwork.restore_cost_state`) swaps
  in the adopted arrays through :meth:`CostStore.rewind`, which *sets* the
  version to the adopted state's and clears the caches outright.

Corridor-search scratch buffers live in per-thread
:class:`~repro.network.compiled.landmarks.BoundScratch` objects obtained
from :meth:`CompiledGraph.borrowed_scratch`, so concurrent queries
(``RoutingService.route`` is safe to call from many threads) never share
them.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from contextlib import AbstractContextManager, contextmanager
from typing import (
    TYPE_CHECKING,
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
)

import numpy as np

from ..road_types import ROAD_TYPE_BY_VALUE

if TYPE_CHECKING:  # pragma: no cover
    from ..road_network import VertexId
    from .landmarks import BoundScratch

#: Edge attributes compiled into flat cost arrays (the paper's wDI/wTT/wFC).
#: These are also exactly the attributes that
#: :meth:`~repro.network.road_network.RoadNetwork.update_edge_costs` may patch
#: on a live network.
EDGE_COST_ATTRIBUTES: tuple[str, ...] = ("distance_m", "travel_time_s", "fuel_ml")


#: Cap on memoized derived artifacts (cost arrays, masks, sparse matrices).
#: Bounds memory on long-lived services where e.g. per-driver cost profiles
#: would otherwise accrete one flat array each; evicted entries just rebuild.
MEMO_SIZE = 128

#: Landmark tables kept per graph, most recently served first out last: each
#: holds 2 x 8 distance rows (1.3 MB at 10^4 vertices), and per-request or
#: per-driver cost views would otherwise accrete one apiece.
LANDMARK_TABLE_LIMIT = 8

#: Version stamp for artifacts that only depend on the immutable topology.
TOPOLOGY_STAMP = -1


#: Column dtypes of :class:`EdgeRows`, in field order.
_ROW_DTYPES = (np.int64, np.int64, np.float64, np.float64, np.float64, np.int64, np.float64)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _offsets(indices: np.ndarray, n: int) -> list[int]:
    """CSR row offsets of ``indices`` (each entry's row) over ``n`` rows."""
    return [0] + np.cumsum(np.bincount(indices, minlength=n)).tolist()


class EdgeRows(NamedTuple):
    """A network's edges as columns, in insertion order.

    What a :class:`CompiledGraph` is built from and what a pickled network
    carries: vertex ids at both ends, the three cost columns of
    :data:`EDGE_COST_ATTRIBUTES`, the road type's integer value and the
    speed.  A key may repeat (an edge added again): its first row fixes its
    position, its last row its values.
    """

    sources: np.ndarray
    targets: np.ndarray
    distance_m: np.ndarray
    travel_time_s: np.ndarray
    fuel_ml: np.ndarray
    road_type: np.ndarray
    speed_kmh: np.ndarray

    @classmethod
    def of(cls, rows: Sequence[tuple]) -> "EdgeRows":
        """Columns of row tuples laid out like the fields."""
        columns = list(zip(*rows)) or [()] * len(_ROW_DTYPES)
        return cls(*(np.array(c, dtype=dtype) for c, dtype in zip(columns, _ROW_DTYPES)))

    def then(self, later: "EdgeRows") -> "EdgeRows":
        """These rows followed by ``later``'s."""
        return EdgeRows(*(np.concatenate(pair) for pair in zip(self, later)))

    def deduplicated(self, vertex_ids: np.ndarray) -> "EdgeRows":
        """One row per key: at its first row's position, with its last
        row's values (``vertex_ids``: the sorted ids of every end)."""
        n = len(vertex_ids)
        codes = np.searchsorted(vertex_ids, self.sources) * n + np.searchsorted(
            vertex_ids, self.targets
        )
        unique, first = np.unique(codes, return_index=True)
        if len(unique) == len(codes):
            return self
        _, from_end = np.unique(codes[::-1], return_index=True)
        order = np.argsort(first)
        first, last = first[order], (len(codes) - 1 - from_end)[order]
        return EdgeRows(self.sources[first], self.targets[first], *(c[last] for c in self[2:]))


class Topology:
    """The immutable CSR structure of one road-network snapshot.

    Holds everything that cost updates can never change: the dense index
    maps, the forward and reverse CSR layout, the slot lookup, and the tail
    vertex, road type and speed of every slot.  Shared by reference between the
    :class:`CompiledGraph` facade and the :class:`CostStore`.
    """

    __slots__ = (
        "vertex_ids",
        "index_of",
        "offsets",
        "targets",
        "slot_of",
        "r_offsets",
        "r_targets",
        "r_slots",
        "row_slots",
        "tails",
        "road_type_values",
        "speed_kmh",
        "_stamp",
    )

    def __init__(self, vertex_ids: Sequence["VertexId"], rows: EdgeRows) -> None:
        """``vertex_ids`` sorted; ``rows`` one per key (see
        :meth:`EdgeRows.deduplicated`).  A source's slots keep its edges'
        insertion order, and so do a target's reverse slots."""
        ids = np.asarray(vertex_ids, dtype=np.int64)
        n, m = len(ids), len(rows.sources)
        tails = np.searchsorted(ids, rows.sources)
        heads = np.searchsorted(ids, rows.targets)
        order = np.argsort(tails, kind="stable")  # insertion rows in slot order
        row_slots = np.empty(m, dtype=np.int64)
        row_slots[order] = np.arange(m, dtype=np.int64)
        r_order = np.argsort(heads, kind="stable")

        self.vertex_ids = list(vertex_ids)
        self.index_of = {vid: i for i, vid in enumerate(self.vertex_ids)}
        self.offsets = _offsets(tails, n)
        self.targets = heads[order].tolist()
        # Keys in insertion order: RoadNetwork.edges() iterates this dict.
        self.slot_of: dict[tuple["VertexId", "VertexId"], int] = dict(
            zip(zip(rows.sources.tolist(), rows.targets.tolist()), row_slots.tolist())
        )
        self.r_offsets = _offsets(heads, n)
        self.r_targets = tails[r_order].tolist()
        self.r_slots = row_slots[r_order]
        self.row_slots = _frozen(row_slots)
        self.tails = _frozen(tails[order])
        self.road_type_values = _frozen(rows.road_type[order])
        self.speed_kmh = _frozen(rows.speed_kmh[order])
        self._stamp: tuple[int, int, int] | None = None

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_ids)

    @property
    def edge_count(self) -> int:
        return len(self.targets)

    def ends(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The source and target vertex ids of the edges at ``slots``."""
        ids = np.asarray(self.vertex_ids, dtype=np.int64)
        return ids[self.tails[slots]], ids[np.asarray(self.targets, dtype=np.int64)[slots]]

    @property
    def stamp(self) -> tuple[int, int, int]:
        """``(vertex count, edge count, CRC-32)`` identifying this layout.

        The CRC runs over ``offsets``, ``targets`` and ``vertex_ids`` (the
        reverse CSR and ``slot_of`` are derived from them).  Slot-indexed
        cost arrays from elsewhere — a durability snapshot, the sharded
        deployment's shared segment — may be adopted only when their stamp
        equals this one; computed once, the topology never changes.
        """
        stamp = self._stamp
        if stamp is None:
            crc = 0
            for values in (self.offsets, self.targets, self.vertex_ids):
                crc = zlib.crc32(np.asarray(values, dtype=np.int64).tobytes(), crc)
            stamp = self._stamp = (self.vertex_count, self.edge_count, crc)
        return stamp


class CostStore:
    """Versioned per-feature cost arrays plus every cost-derived cache.

    The store is the single mutable part of a compiled snapshot.  All reads
    go through version-stamped caches: an artifact built under cost version
    ``k`` is served only while the store is still at version ``k`` — a
    live-traffic patch bumps the version, and stale entries are dropped on
    their next lookup (and by LRU pressure otherwise).  Artifacts that only
    depend on the topology (CSR index arrays, road-type masks) are stamped
    with :data:`TOPOLOGY_STAMP` and survive cost updates.
    """

    def __init__(self, topology: Topology, arrays: Mapping[str, np.ndarray]) -> None:
        """``arrays``: one cost array per compiled attribute, in slot order."""
        self.topology = topology
        self._arrays = {attr: _frozen(arrays[attr]) for attr in EDGE_COST_ATTRIBUTES}
        self._values: tuple[int, tuple[list, ...]] | None = None
        self._version = 0
        self._r_weight_lists: OrderedDict[Hashable, tuple[int, list[float]]] = OrderedDict()
        self._memo: OrderedDict[Hashable, tuple[int, object]] = OrderedDict()
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Versioned state
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Cost version: bumped by every :meth:`apply_updates`, set by
        :meth:`rewind`."""
        return self._version

    def array(self, attribute: str) -> np.ndarray:
        """The read-only cost array for one compiled edge attribute."""
        return self._arrays[attribute]

    def apply_updates(self, changes: Mapping[int, Mapping[str, float]]) -> None:
        """Patch cost values in place of a full recompilation.

        ``changes`` maps CSR slots to ``{attribute: new value}``.  Touched
        arrays are swapped for patched copies, never mutated: a search (or an
        ``Edge`` view) that already resolved an array keeps one consistent
        pre-update view; the version bump evicts every stamped derived
        artifact lazily.
        """
        if not changes:
            return
        with self._memo_lock:
            patched: dict[str, np.ndarray] = {}
            for slot, values in changes.items():
                for attr, value in values.items():
                    arr = patched.get(attr)
                    if arr is None:
                        arr = patched[attr] = self._arrays[attr].copy()
                    arr[slot] = value
            # One assignment swaps the whole set, so a lock-free reader of
            # the arrays sees a batch entirely or not at all.
            self._arrays = {**self._arrays, **{a: _frozen(arr) for a, arr in patched.items()}}
            self._version += 1

    def export_arrays(self) -> dict[str, np.ndarray]:
        """A consistent ``{attribute: array}`` snapshot of every cost array.

        The returned arrays are the store's own immutable (read-only) arrays.
        Writers swap the whole ``{attribute: array}`` mapping in one
        assignment, so a concurrent :meth:`apply_updates` can never hand back
        a half-patched batch, and readers take no lock — the durability
        layer's :class:`~repro.service.durability.snapshot.SnapshotStore`
        persists exactly this view together with :attr:`version`, and every
        ``Edge`` view is read from one.
        """
        return dict(self._arrays)

    def edge_values(self) -> tuple[list, ...]:
        """Every edge attribute in slot order as a list of Python values —
        the costs in :data:`EDGE_COST_ATTRIBUTES` order, the road type
        (:class:`~repro.network.road_types.RoadType`) and the speed: what
        the per-vertex ``Edge`` views are read from, an item per attribute
        rather than a call into numpy.

        Built on first use per cost version, under the memo lock so no patch
        or rewind interleaves with the build.
        """
        entry = self._values
        if entry is not None and entry[0] == self._version:
            return entry[1]
        with self._memo_lock:
            arrays, topology = self._arrays, self.topology
            values = (
                *(arrays[attr].tolist() for attr in EDGE_COST_ATTRIBUTES),
                [ROAD_TYPE_BY_VALUE[value] for value in topology.road_type_values.tolist()],
                topology.speed_kmh.tolist(),
            )
            self._values = (self._version, values)
        return values

    def rewind(self, version: int, arrays: Mapping[str, np.ndarray] | None = None) -> None:
        """Set the cost version, swap in ``arrays`` if given, and drop every
        derived cache.

        How a cost state is adopted wholesale
        (:meth:`RoadNetwork.restore_cost_state`): ``arrays`` maps every
        compiled attribute to a validated full-length array, which the store
        takes over (read-only) as its own.  Unlike :meth:`apply_updates` the
        version is *set*, not bumped — adoption must land on exactly the
        version the state was captured at — and every derived cache is
        cleared outright: entries stamped under the pre-adoption counter
        could otherwise alias the adopted version when recovery rewinds it.
        """
        with self._memo_lock:
            if arrays is not None:
                self._arrays = {attr: _frozen(arrays[attr]) for attr in EDGE_COST_ATTRIBUTES}
            self._version = int(version)
            self._values = None
            self._r_weight_lists.clear()
            self._memo.clear()

    # ------------------------------------------------------------------ #
    # Version-stamped caches
    # ------------------------------------------------------------------ #
    def _stamp(self, cost_dependent: bool, version: int | None) -> int:
        if not cost_dependent:
            return TOPOLOGY_STAMP
        return self._version if version is None else version

    def _cached(
        self,
        cache: OrderedDict,
        key: Hashable,
        build: Callable[[], object],
        stamp: int,
    ) -> object:
        """Stamped LRU get-or-build shared by every per-snapshot cache.

        Entries are stored as ``(stamp, value)``.  ``stamp`` is the cost
        version the *caller's inputs* were resolved under (callers that read
        the store's own arrays at build time pass the current version) —
        never newer, or a patch racing the build could cache pre-update data
        as current.  Topology-only entries carry :data:`TOPOLOGY_STAMP` and
        never expire.  An entry older than the store's current version is
        stale for everyone and self-evicts; a caller whose inputs predate the
        current version is served uncached rather than poisoning the cache.
        """
        with self._memo_lock:
            entry = cache.get(key)
            if entry is not None:
                if entry[0] == stamp:
                    cache.move_to_end(key)
                    return entry[1]
                if entry[0] != TOPOLOGY_STAMP and entry[0] < self._version:
                    del cache[key]  # stale for every future caller
        built = build()
        with self._memo_lock:
            entry = cache.get(key)
            if entry is not None and entry[0] == stamp:
                cache.move_to_end(key)
                return entry[1]
            if stamp == TOPOLOGY_STAMP or stamp == self._version:
                cache[key] = (stamp, built)
                cache.move_to_end(key)
                while len(cache) > MEMO_SIZE:
                    cache.popitem(last=False)
        return built

    def linear_array(self, terms: tuple[tuple[str, float], ...]) -> np.ndarray:
        """A (memoized) linear combination of cost arrays.

        ``terms`` is an ordered tuple of ``(attribute, weight)`` pairs;
        accumulation follows that order so the floats match the dict-based
        ``weighted_cost`` closure bit for bit.
        """

        def build():
            acc = np.zeros(self.topology.edge_count, dtype=np.float64)
            for attribute, weight in terms:
                acc += self._arrays[attribute] * weight
            acc.flags.writeable = False
            return acc

        # Builds from the store's current arrays, so the current version is
        # the right stamp (a racing patch only makes the data newer).
        return self._cached(self._memo, ("linear", terms), build, self._version)  # type: ignore[return-value]

    def reverse_weights(
        self, key: Hashable | None, array: np.ndarray, version: int | None = None
    ) -> Sequence[float]:
        """The cost array permuted into reverse (predecessor) slot order.

        A keyed array comes back as its memoized list.  A per-query array
        (``key`` None) has nothing to memoize and comes back as a memoryview
        of the permuted array, whose items are Python floats like a list's:
        its readers, the backward path walks, touch a few hundred items, and
        listing every weight first would cost more.

        ``version`` is the cost version ``array`` was resolved under (see
        :meth:`CompiledGraph.resolve_cost`); omitting it assumes the array is
        current, which is only safe when no patch can be racing the caller.
        """

        def build():
            return array[self.topology.r_slots].tolist() if len(array) else []

        if key is None:
            return memoryview(array[self.topology.r_slots]) if len(array) else []
        stamp = self._stamp(True, version)
        return self._cached(self._r_weight_lists, key, build, stamp)  # type: ignore[return-value]

    def memo(
        self,
        key: Hashable,
        build: Callable[[], object],
        cost_dependent: bool = True,
        version: int | None = None,
    ) -> object:
        """Cache an arbitrary derived artifact on this snapshot's cost state.

        ``version`` stamps the entry with the cost version the caller's
        inputs were resolved under; leave it ``None`` when ``build`` reads
        the store's own arrays (the current version is then correct).
        """
        return self._cached(self._memo, key, build, self._stamp(cost_dependent, version))


class CompiledGraph:
    """A CSR snapshot of a road network: immutable topology + versioned costs.

    The facade exposes the flat arrays the kernels consume (``offsets`` /
    ``targets`` / per-feature cost arrays) and delegates all cost-derived
    caching to its :class:`CostStore`.  The topology of a snapshot never
    changes; its costs are patched by
    :meth:`~repro.network.road_network.RoadNetwork.update_edge_costs` and
    :meth:`~repro.network.road_network.RoadNetwork.restore_cost_state`, which
    move :attr:`CostStore.version` instead of forcing a rebuild.
    """

    def __init__(self, vertex_ids: Sequence["VertexId"], rows: EdgeRows) -> None:
        """``vertex_ids`` sorted; ``rows`` every edge, in insertion order."""
        rows = rows.deduplicated(np.asarray(vertex_ids, dtype=np.int64))
        topology = Topology(vertex_ids, rows)
        slot_of_row = topology.row_slots
        arrays = {}
        for attr in EDGE_COST_ATTRIBUTES:
            arrays[attr] = np.empty(topology.edge_count, dtype=np.float64)
            arrays[attr][slot_of_row] = getattr(rows, attr)
        costs = CostStore(topology, arrays)

        self.topology = topology
        self.costs = costs
        # Kernel-facing aliases: plain attributes, not properties, so the
        # per-query lookups in the dispatch layer stay cheap.
        self.vertex_ids = topology.vertex_ids
        self.index_of = topology.index_of
        self.offsets = topology.offsets
        self.targets = topology.targets
        self.r_offsets = topology.r_offsets
        self.r_targets = topology.r_targets
        self._tls = threading.local()
        # ALT landmark tables, keyed by cost cache key.  Deliberately *not*
        # in the version-stamped memo: a cost-version bump must revalidate
        # (rescale) a table rather than evict it — rebuilding costs 2k SSSPs.
        # The most recently served LANDMARK_TABLE_LIMIT are kept.
        self._landmark_tables: OrderedDict[Hashable, object] = OrderedDict()
        self._landmark_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def vertex_count(self) -> int:
        return len(self.vertex_ids)

    @property
    def edge_count(self) -> int:
        return self.topology.edge_count

    @property
    def road_type_values(self) -> np.ndarray:
        return self.topology.road_type_values

    def edge_columns(self) -> tuple[np.ndarray, ...]:
        """Every edge attribute in slot order, read consistently: the three
        cost arrays in :data:`EDGE_COST_ATTRIBUTES` order, the road type
        values and the speeds."""
        costs, topology = self.costs.export_arrays(), self.topology
        return (
            *(costs[attr] for attr in EDGE_COST_ATTRIBUTES),
            topology.road_type_values,
            topology.speed_kmh,
        )

    def rows(self) -> EdgeRows:
        """The edges as insertion-ordered columns, at the current costs."""
        slots = self.topology.row_slots
        return EdgeRows(*self.topology.ends(slots), *(c[slots] for c in self.edge_columns()))

    # ------------------------------------------------------------------ #
    # Cost arrays (delegated to the versioned store)
    # ------------------------------------------------------------------ #
    def array(self, attribute: str) -> np.ndarray:
        """The read-only cost array for one compiled edge attribute."""
        return self.costs.array(attribute)

    def resolve_cost(
        self, edge_cost: Callable
    ) -> tuple[Hashable | None, np.ndarray, int] | None:
        """Map an edge-cost callable to a flat cost array, if possible.

        Recognized callables carry one of three attributes (see
        :mod:`repro.routing.costs`): ``cost_attr`` (a single compiled
        attribute), ``cost_terms`` (an ordered linear combination), or
        ``build_cost_array`` (a factory receiving this graph).  Returns
        ``(cache_key, array, version)`` — the key is ``None`` for uncacheable
        per-query arrays, and ``version`` is the cost version the array was
        resolved under (captured *before* reading, so a concurrent patch can
        only make the array newer than the stamp, never older — callers pass
        it back to :meth:`reverse_weights` / :meth:`memo` so
        derived caches are never poisoned with pre-update data stamped as
        current).  Returns ``None`` when the callable is opaque and the
        caller must fall back to the dict-based implementation.
        """
        version = self.costs.version
        attr = getattr(edge_cost, "cost_attr", None)
        if attr is not None:
            return ("attr", attr), self.costs.array(attr), version
        terms = getattr(edge_cost, "cost_terms", None)
        if terms is not None:
            terms = tuple(terms)
            return ("linear", terms), self.costs.linear_array(terms), version
        builder = getattr(edge_cost, "build_cost_array", None)
        if builder is not None:
            built = builder(self)
            if built is None:
                return None
            # Builders whose array is constant per cost version may expose
            # a ``cost_cache_key`` so weight lists / sparse matrices derived
            # from the array are memoized too; per-query arrays leave it off.
            key = getattr(edge_cost, "cost_cache_key", None)
            if key is not None:
                key = ("built", key)
            return key, np.asarray(built, dtype=np.float64), version
        return None

    def reverse_weights(
        self, key: Hashable | None, array: np.ndarray, version: int | None = None
    ) -> Sequence[float]:
        """The cost array permuted into reverse (predecessor) slot order."""
        return self.costs.reverse_weights(key, array, version)

    # ------------------------------------------------------------------ #
    # Derived-artifact cache and scratch state
    # ------------------------------------------------------------------ #
    def memo(
        self,
        key: Hashable,
        build: Callable[[], object],
        cost_dependent: bool = True,
        version: int | None = None,
    ) -> object:
        """Cache an arbitrary derived artifact on this graph snapshot.

        Used for slave-preference edge masks, baseline cost arrays, and
        similar per-graph precomputations.  The cache is LRU-bounded
        (:data:`MEMO_SIZE` entries — evicted artifacts simply rebuild).  Entries
        are stamped with the cost version by default, so live-traffic patches
        invalidate them; pass ``cost_dependent=False`` for artifacts that
        only depend on the immutable topology (index arrays, road-type
        masks), which then survive cost updates, and ``version`` when the
        build's inputs were resolved under an earlier cost version (see
        :meth:`resolve_cost`).
        """
        return self.costs.memo(key, build, cost_dependent=cost_dependent, version=version)

    # ------------------------------------------------------------------ #
    # ALT landmark tables
    # ------------------------------------------------------------------ #
    def landmark_table(
        self,
        key: Hashable | None,
        array: np.ndarray,
        version: int | None,
        count: int | None = None,
        build: bool = True,
    ):
        """The (lazily built) ALT landmark table for one cacheable cost view.

        ``key`` / ``array`` / ``version`` are a :meth:`resolve_cost` result;
        per-query arrays (``key is None``) get no table.  The table is
        revalidated against ``array`` whenever the cost version moved since
        it was last served: bounds are rescaled while that keeps them
        admissible and worth serving, rebuilt otherwise (see
        :mod:`~repro.network.compiled.landmarks`).  ``count`` forces a
        rebuild when it differs from the cached table's (used by
        ``RoadNetwork.prepare_landmarks``); left at ``None`` it accepts
        whatever is cached.  With ``build=False`` a view without a servable
        table gets ``None`` instead of a build.
        """
        if key is None:
            return None
        from .landmarks import build_landmark_table

        current_version = version if version is not None else self.costs.version
        with self._landmark_lock:
            table = self._landmark_tables.get(key)
            if table is not None:
                # Compare against what was *requested*, not what selection
                # yielded: a fragmented graph may cap the landmark count, and
                # re-requesting the same number must not rebuild forever.
                if count is not None and table.requested_count != min(count, self.vertex_count):
                    table = None
                else:
                    # A degraded table rebuilds with *its own* count: an
                    # operator-tuned one survives self-eviction.
                    count = table.requested_count
                    revalidated = table.revalidated(array, current_version)
                    if revalidated is not None and revalidated is not table:
                        self._landmark_tables[key] = revalidated
                    table = revalidated
            if table is not None:
                self._landmark_tables.move_to_end(key)
                return table
        if not build:
            return None
        # Build outside the lock: ~2k SSSPs must not stall concurrent ALT
        # queries on other (already built) cost views.  Racing builders at
        # worst duplicate the work; the insert below is last-writer-wins and
        # either result is admissible for its caller's resolved arrays.
        table = build_landmark_table(self, key, array, version, count=count)
        if table is None:
            return None
        with self._landmark_lock:
            self._landmark_tables[key] = table
            self._landmark_tables.move_to_end(key)
            while len(self._landmark_tables) > LANDMARK_TABLE_LIMIT:
                self._landmark_tables.popitem(last=False)
        return table

    @contextmanager
    def _borrowed(self, pool_name: str, make: Callable[..., object], *sizes: int) -> Iterator:
        pool = getattr(self._tls, pool_name, None)
        if pool is None:
            pool = []
            setattr(self._tls, pool_name, pool)
        item = pool.pop() if pool else make(*sizes)
        try:
            yield item
        finally:
            pool.append(item)

    def borrowed_scratch(self) -> AbstractContextManager["BoundScratch"]:
        """Check corridor-search buffers out of the calling thread's pool.

        Nested borrows each get their own instance, so an inner search can
        never overwrite the costs an outer one is searching; the pool grows
        to the maximum nesting depth ever seen per thread.  The buffers must
        not be read after the ``with`` block."""
        from .landmarks import BoundScratch

        return self._borrowed("scratch", BoundScratch, self.edge_count)

    def path_ids(self, indices: Iterable[int]) -> list["VertexId"]:
        """Translate an index path back into original vertex ids."""
        ids = self.vertex_ids
        return [ids[i] for i in indices]
