"""The compiled (CSR) view of a :class:`~repro.network.road_network.RoadNetwork`.

A :class:`CompiledGraph` flattens the dict-of-dicts adjacency into the classic
array layout used by every serious routing engine.  It is composed of two
parts with very different lifetimes:

* a :class:`Topology` — the immutable CSR structure: vertex ids mapped to
  dense integer indices (in sorted-id order, so heap tie-breaking stays
  order-isomorphic with the dict-based kernels), forward ``offsets`` /
  ``targets`` arrays whose slots preserve adjacency insertion order, a reverse
  (predecessor) CSR whose slots index back into the forward slots, and the
  ``(source, target) -> slot`` lookup.  The topology never changes for the
  lifetime of the snapshot; any structural mutation of the network drops the
  whole :class:`CompiledGraph`.

* a :class:`CostStore` — the monotonically-versioned cost state: one flat
  numpy array per travel-cost feature, the linear-combination views derived
  from them, the reverse weight-list cache, and the generic ``memo()``
  artifact cache.  Live-traffic updates patch the store through
  :meth:`CompiledGraph.apply_cost_updates` *without* recompiling the
  topology: touched arrays are swapped for patched copies (readers holding
  the old array keep a consistent pre-update view), the cost version is
  bumped, and every memoized artifact that was stamped with the old version
  self-evicts on its next lookup.  Adopting a whole cost state (crash
  recovery, a shard worker's boot and resync —
  :meth:`RoadNetwork.restore_cost_state`) is the same patch over the slots
  that differ, followed by :meth:`CostStore.rewind`, which *sets* the version
  to the adopted state's and clears the caches outright.

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
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..road_network import Edge, RoadNetwork, VertexId
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


class Topology:
    """The immutable CSR structure of one road-network snapshot.

    Holds everything that cost updates can never change: the dense index
    maps, the forward and reverse CSR layout, and the slot lookup.  Shared
    by reference between the :class:`CompiledGraph` facade and the
    :class:`CostStore`.
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
        "_stamp",
    )

    def __init__(self, network: "RoadNetwork") -> None:
        ids: list["VertexId"] = sorted(network.vertex_ids())
        index_of: dict["VertexId", int] = {vid: i for i, vid in enumerate(ids)}
        n = len(ids)

        offsets: list[int] = [0] * (n + 1)
        targets: list[int] = []
        slot_of: dict[tuple["VertexId", "VertexId"], int] = {}
        for i, vid in enumerate(ids):
            for tid in network.successors(vid):
                slot_of[(vid, tid)] = len(targets)
                targets.append(index_of[tid])
            offsets[i + 1] = len(targets)

        r_offsets: list[int] = [0] * (n + 1)
        r_targets: list[int] = []
        r_slots: list[int] = []
        for i, vid in enumerate(ids):
            for sid in network.predecessors(vid):
                r_targets.append(index_of[sid])
                r_slots.append(slot_of[(sid, vid)])
            r_offsets[i + 1] = len(r_targets)

        self.vertex_ids = ids
        self.index_of = index_of
        self.offsets = offsets
        self.targets = targets
        self.slot_of = slot_of
        self.r_offsets = r_offsets
        self.r_targets = r_targets
        self.r_slots = np.asarray(r_slots, dtype=np.int64)
        self._stamp: tuple[int, int, int] | None = None

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_ids)

    @property
    def edge_count(self) -> int:
        return len(self.targets)

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

    def __init__(self, topology: Topology, edges: list["Edge"]) -> None:
        self.topology = topology
        self.edges = edges
        m = len(edges)
        arrays: dict[str, np.ndarray] = {}
        for attr in EDGE_COST_ATTRIBUTES:
            arr = np.fromiter(
                (getattr(edge, attr) for edge in edges), dtype=np.float64, count=m
            )
            arr.flags.writeable = False
            arrays[attr] = arr
        road_type_values = np.fromiter(
            (int(edge.road_type) for edge in edges), dtype=np.int64, count=m
        )
        road_type_values.flags.writeable = False

        self.road_type_values = road_type_values
        self._arrays = arrays
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

    def apply_updates(
        self,
        changes: Mapping[int, Mapping[str, float]],
        new_edges: Mapping[int, "Edge"],
    ) -> None:
        """Patch cost values in place of a full recompilation.

        ``changes`` maps CSR slots to ``{attribute: new value}``; ``new_edges``
        carries the replacement :class:`Edge` objects for the same slots
        (readers of ``graph.edges`` must observe the updated costs).  Touched
        arrays *and* the edge list are swapped for patched copies, never
        mutated: a search that already resolved an array (or captured the
        edge list) keeps one consistent pre-update view; the version bump
        evicts every stamped derived artifact lazily.
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
            for attr, arr in patched.items():
                arr.flags.writeable = False
                self._arrays[attr] = arr
            if new_edges:
                edges = self.edges.copy()
                for slot, edge in new_edges.items():
                    edges[slot] = edge
                self.edges = edges
            self._version += 1

    def export_arrays(self) -> dict[str, np.ndarray]:
        """A consistent ``{attribute: array}`` snapshot of every cost array.

        The returned arrays are the store's own immutable (read-only) arrays
        captured under the memo lock, so a concurrent :meth:`apply_updates`
        can never hand back a half-patched batch — the durability layer's
        :class:`~repro.service.durability.snapshot.SnapshotStore` persists
        exactly this view together with :attr:`version`.
        """
        with self._memo_lock:
            return dict(self._arrays)

    def rewind(self, version: int) -> None:
        """Set the cost version and drop every derived cache.

        The last step of adopting a cost state wholesale
        (:meth:`RoadNetwork.restore_cost_state`), after the differing slots
        went through :meth:`apply_updates`.  Unlike there the version is
        *set*, not bumped — adoption must land on exactly the version the
        state was captured at — and every derived cache is cleared outright:
        entries stamped under the pre-adoption counter could otherwise alias
        the adopted version when recovery rewinds it.
        """
        with self._memo_lock:
            self._version = int(version)
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
            acc = np.zeros(len(self.edges), dtype=np.float64)
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
    ``targets`` / ``edges`` / per-feature cost arrays) and delegates all
    cost-derived caching to its :class:`CostStore`.  The topology of a
    snapshot never changes; its costs may be patched through
    :meth:`apply_cost_updates` (driven by
    :meth:`~repro.network.road_network.RoadNetwork.update_edge_costs` and
    :meth:`~repro.network.road_network.RoadNetwork.restore_cost_state`), which
    bumps :attr:`cost_version` instead of forcing a rebuild.
    """

    def __init__(self, network: "RoadNetwork") -> None:
        topology = Topology(network)
        edges: list["Edge"] = [None] * topology.edge_count  # type: ignore[list-item]
        for (source, target), slot in topology.slot_of.items():
            edges[slot] = network.edge(source, target)
        costs = CostStore(topology, edges)

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
        return len(self.edges)

    @property
    def edges(self) -> list["Edge"]:
        """The edge objects in CSR slot order.

        Cost patches swap the whole list, so capturing ``graph.edges`` once
        gives a consistent snapshot — e.g. a ``zip(graph.edges, weights)``
        never observes a half-applied batch.
        """
        return self.costs.edges

    @property
    def road_type_values(self) -> np.ndarray:
        return self.costs.road_type_values

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
    # Live-traffic patching
    # ------------------------------------------------------------------ #
    def apply_cost_updates(
        self,
        changes: Mapping[int, Mapping[str, float]],
        new_edges: Mapping[int, "Edge"],
    ) -> int:
        """Patch cost values by CSR slot; returns the new cost version.

        Called by the network's one cost writer — the patch body behind
        :meth:`RoadNetwork.update_edge_costs` and
        :meth:`RoadNetwork.restore_cost_state` — under the network's
        compiled-view lock; see :meth:`CostStore.apply_updates` for the
        cache-eviction semantics.
        """
        self.costs.apply_updates(changes, new_edges)
        return self.costs.version

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
