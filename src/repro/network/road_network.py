"""The road-network graph ``G = (V, E, W)``.

A :class:`RoadNetwork` is a directed graph whose vertices are road
intersections with ``(lon, lat)`` coordinates and whose edges are road
segments carrying the four weight functions of the paper:

* ``wDI``  — distance in meters,
* ``wTT``  — free-flow travel time in seconds,
* ``wFC``  — fuel consumption in milliliters,
* ``wRT``  — road type (:class:`~repro.network.road_types.RoadType`).

The class is a thin, explicit wrapper around adjacency dictionaries rather
than a :mod:`networkx` graph so that the hot routing loops touch plain dicts.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ..exceptions import (
    ConfigurationError,
    EdgeNotFoundError,
    NetworkError,
    VertexNotFoundError,
)
from .road_types import RoadType
from .spatial import BoundingBox, LonLat, equirectangular_m

if TYPE_CHECKING:  # pragma: no cover
    from .compiled.graph import CompiledGraph

VertexId = int
"""Vertices are identified by integers."""


def _slotted_setstate(self, state) -> None:
    """Unpickle compat: accept both slots-era and pre-slots (dict) states.

    ``Vertex``/``Edge`` gained ``slots=True``; models persisted by earlier
    versions pickled instance ``__dict__`` states, which the generated
    dataclass ``__setstate__`` would silently misinterpret (it zips field
    values positionally).  Restoring by field name keeps old model files
    loading correctly.
    """
    if isinstance(state, dict):  # pre-slots pickle
        values = [state[name] for name in self.__slots__]
    elif isinstance(state, tuple) and len(state) == 2:  # (dict, slots) form
        merged = {**(state[0] or {}), **(state[1] or {})}
        values = [merged[name] for name in self.__slots__]
    else:  # list of field values (generated slots __getstate__)
        values = state
    for name, value in zip(self.__slots__, values):
        object.__setattr__(self, name, value)


@dataclass(frozen=True, slots=True)
class Vertex:
    """A road intersection."""

    vertex_id: VertexId
    lon: float
    lat: float

    __setstate__ = _slotted_setstate

    @property
    def lonlat(self) -> LonLat:
        return (self.lon, self.lat)


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed road segment with the paper's four weight functions."""

    source: VertexId
    target: VertexId
    distance_m: float
    travel_time_s: float
    fuel_ml: float
    road_type: RoadType
    speed_kmh: float

    __setstate__ = _slotted_setstate

    @property
    def key(self) -> tuple[VertexId, VertexId]:
        return (self.source, self.target)


class RoadNetwork:
    """A directed road-network graph with spatial vertices and weighted edges."""

    def __init__(self, name: str = "road-network") -> None:
        self.name = name
        self._vertices: dict[VertexId, Vertex] = {}
        self._edges: dict[tuple[VertexId, VertexId], Edge] = {}
        self._adjacency: dict[VertexId, dict[VertexId, Edge]] = {}
        self._reverse: dict[VertexId, dict[VertexId, Edge]] = {}
        self._compiled: "CompiledGraph | None" = None
        self._compiled_lock = threading.Lock()
        self._bounding_box: BoundingBox | None = None
        self._version = 0
        self._cost_version = 0
        self._cost_fell_version = 0
        self._topology_version = 0
        self._hierarchies: dict = {}
        self._hierarchy_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # The compiled view holds thread-local scratch buffers and is cheap to
        # rebuild, so it (and the build lock) is dropped from pickles
        # (model persistence).  Prepared contraction hierarchies likewise
        # carry large arrays and locks; prepare_hierarchy() builds them anew.
        state = self.__dict__.copy()
        state["_compiled"] = None
        state["_hierarchies"] = {}
        state.pop("_compiled_lock", None)
        state.pop("_hierarchy_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Defaults for pickles written before these fields existed.
        self.__dict__.setdefault("_compiled", None)
        self.__dict__.setdefault("_bounding_box", None)
        self.__dict__.setdefault("_version", 0)
        self.__dict__.setdefault("_cost_version", 0)
        self.__dict__.setdefault("_cost_fell_version", 0)
        self.__dict__.setdefault("_topology_version", 0)
        self.__dict__.setdefault("_hierarchies", {})
        self._compiled_lock = threading.Lock()
        self._hierarchy_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex_id: VertexId, lon: float, lat: float) -> Vertex:
        """Add (or replace) a vertex and return it."""
        vertex = Vertex(vertex_id=vertex_id, lon=float(lon), lat=float(lat))
        self._vertices[vertex_id] = vertex
        self._adjacency.setdefault(vertex_id, {})
        self._reverse.setdefault(vertex_id, {})
        self._invalidate(bounding_box=True)
        return vertex

    def add_edge(
        self,
        source: VertexId,
        target: VertexId,
        road_type: RoadType = RoadType.RESIDENTIAL,
        distance_m: float | None = None,
        speed_kmh: float | None = None,
        travel_time_s: float | None = None,
        fuel_ml: float | None = None,
        bidirectional: bool = False,
    ) -> Edge:
        """Add a directed road segment.

        Missing weights are derived: distance from vertex coordinates, speed
        from the road-type default, travel time from distance and speed, and
        fuel from the environmental model in :mod:`repro.routing.fuel`.  A
        speed, travel time or fuel that is not a finite positive number
        raises :class:`NetworkError`.
        """
        if source not in self._vertices:
            raise VertexNotFoundError(source)
        if target not in self._vertices:
            raise VertexNotFoundError(target)
        if source == target:
            raise NetworkError(f"self-loop edges are not allowed (vertex {source})")
        for name, value in (
            ("speed_kmh", speed_kmh),
            ("travel_time_s", travel_time_s),
            ("fuel_ml", fuel_ml),
        ):
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise NetworkError(
                    f"edge ({source}, {target}) {name} must be a finite positive "
                    f"number, got {value!r}"
                )

        if distance_m is None:
            distance_m = equirectangular_m(
                self._vertices[source].lonlat, self._vertices[target].lonlat
            )
        if distance_m <= 0.0:
            distance_m = 1.0
        if speed_kmh is None:
            speed_kmh = road_type.default_speed_kmh
        if travel_time_s is None:
            travel_time_s = distance_m / (speed_kmh / 3.6)
        if fuel_ml is None:
            from ..routing.fuel import fuel_consumption_ml

            fuel_ml = fuel_consumption_ml(distance_m, speed_kmh)

        edge = Edge(
            source=source,
            target=target,
            distance_m=float(distance_m),
            travel_time_s=float(travel_time_s),
            fuel_ml=float(fuel_ml),
            road_type=road_type,
            speed_kmh=float(speed_kmh),
        )
        self._edges[(source, target)] = edge
        self._adjacency[source][target] = edge
        self._reverse[target][source] = edge
        self._invalidate()

        if bidirectional:
            self.add_edge(
                target,
                source,
                road_type=road_type,
                distance_m=distance_m,
                speed_kmh=speed_kmh,
                travel_time_s=travel_time_s,
                fuel_ml=fuel_ml,
                bidirectional=False,
            )
        return edge

    def _invalidate(self, bounding_box: bool = False) -> None:
        """Drop derived views after a *topology* mutation.

        Cost-only mutations go through :meth:`update_edge_costs`, which
        patches the live compiled view instead of dropping it.

        Deliberately lock-free: a structural mutation must never stall
        behind an in-flight CSR build (which holds ``_compiled_lock`` for
        O(graph) work).  Correctness comes from the version protocol
        instead — the GIL-atomic ``None`` write plus the version bump make
        ``compiled()``'s post-build check discard any snapshot the mutation
        raced (see ``test_mutation_during_compilation_serves_uncached_snapshot``).
        """
        self._compiled = None  # reprolint: disable=RL002
        self._version += 1
        self._topology_version += 1
        if bounding_box:
            self._bounding_box = None

    # ------------------------------------------------------------------ #
    # Live-traffic cost updates
    # ------------------------------------------------------------------ #
    def update_edge_costs(
        self,
        updates: Mapping[tuple[VertexId, VertexId], Mapping[str, float]],
    ) -> frozenset[tuple[VertexId, VertexId]]:
        """Bulk-update travel costs of existing edges without a recompile.

        ``updates`` maps directed edge keys to ``{attribute: new value}``
        dictionaries; the patchable attributes are exactly the compiled cost
        features (``distance_m`` / ``travel_time_s`` / ``fuel_ml``).  Values
        must be finite and strictly positive.  Caution: the geometric A*
        heuristics (:mod:`repro.routing.astar`) are lower bounds assuming
        ``distance_m`` >= straight-line distance and ``travel_time_s`` >=
        straight-line time at motorway speed — pushing an edge *below* those bounds (as
        :meth:`add_edge` also allows) makes them inadmissible and their
        routes possibly suboptimal; congestion-style updates (costs at or
        above free flow) are always safe, and the Dijkstra family and its
        landmark corridor (whose bounds rescale when costs fall) stay exact
        either way.

        The whole batch is validated before anything is touched, so a bad
        entry leaves the network unchanged (transactional semantics — the
        :class:`~repro.traffic.TrafficFeed` relies on this).  On success the
        edge objects are replaced, :attr:`version` and :attr:`cost_version`
        are bumped, and — unlike a topology mutation — a cached compiled view
        is patched in place through
        :meth:`~repro.network.compiled.graph.CompiledGraph.apply_cost_updates`
        rather than dropped, so live-traffic updates cost O(touched edges)
        instead of a full CSR rebuild.

        Returns the keys of the edges whose costs actually *changed* —
        values equal to the current ones are validated but skipped, so an
        idempotent batch (e.g. a de-congestion tick back to current levels)
        changes nothing, bumps nothing, and triggers no cache invalidation
        downstream.
        """
        from .compiled.graph import EDGE_COST_ATTRIBUTES

        allowed = frozenset(EDGE_COST_ATTRIBUTES)
        isfinite = math.isfinite
        known_edges = self._edges
        resolved: dict[tuple[VertexId, VertexId], dict[str, float]] = {}
        fell = False
        for key, changes in updates.items():
            old = known_edges.get(key)
            if old is None:
                raise EdgeNotFoundError(*key)
            clean: dict[str, float] = {}
            for attribute, value in changes.items():
                if attribute not in allowed:
                    raise NetworkError(
                        f"cannot update edge attribute {attribute!r}; patchable "
                        f"cost attributes are {EDGE_COST_ATTRIBUTES}"
                    )
                value = float(value)
                if not isfinite(value) or value <= 0.0:
                    raise NetworkError(
                        f"edge {key} attribute {attribute!r} must be "
                        f"a finite positive number, got {value!r}"
                    )
                current = getattr(old, attribute)
                if value != current:  # skip no-op writes
                    clean[attribute] = value
                    fell = fell or value < current
            if clean:
                resolved[key] = clean
        if not resolved:
            return frozenset()

        # The compiled-view lock serializes cost patches against snapshot
        # builds: a build in progress finishes (and caches) before the patch
        # lands, so the cached snapshot and the dicts never diverge.
        with self._compiled_lock:
            compiled = self._compiled
            if compiled is not None and not resolved.keys() <= compiled.topology.slot_of.keys():
                self._compiled = None  # pragma: no cover - snapshot out of sync
            self._patch_costs(resolved, fell)
        return frozenset(resolved)

    def _patch_costs(
        self,
        resolved: Mapping[tuple[VertexId, VertexId], Mapping[str, float]],
        fell: bool,
    ) -> None:
        """The one writer of edge costs; the caller holds ``_compiled_lock``.

        ``resolved`` is a validated batch in which every edge changes, over
        edges the compiled view (if any) knows.  Edge objects, the three
        dicts, the version counters and the compiled
        :class:`~repro.network.compiled.graph.CostStore` move together.
        """
        compiled = self._compiled
        slot_of = compiled.topology.slot_of if compiled is not None else None
        slot_changes: dict[int, Mapping[str, float]] = {}
        slot_edges: dict[int, Edge] = {}
        edges = self._edges
        adjacency = self._adjacency
        reverse = self._reverse
        for key, clean in resolved.items():
            old = edges[key]
            # Direct construction instead of dataclasses.replace(): this
            # loop is the live-traffic hot path, and replace() costs ~3x
            # as much per edge through the dataclass machinery.
            edge = Edge(
                old.source,
                old.target,
                clean.get("distance_m", old.distance_m),
                clean.get("travel_time_s", old.travel_time_s),
                clean.get("fuel_ml", old.fuel_ml),
                old.road_type,
                old.speed_kmh,
            )
            edges[key] = edge
            adjacency[key[0]][key[1]] = edge
            reverse[key[1]][key[0]] = edge
            if slot_of is not None:
                slot = slot_of[key]
                slot_changes[slot] = clean
                slot_edges[slot] = edge
        self._version += 1
        self._cost_version += 1
        if fell:
            self._cost_fell_version = self._version
        if compiled is not None:
            compiled.apply_cost_updates(slot_changes, slot_edges)

    def restore_cost_state(
        self,
        arrays: Mapping[str, "object"],
        cost_version: int,
    ) -> frozenset[tuple[VertexId, VertexId]]:
        """Adopt full per-slot cost arrays: the one way a network is brought
        to a given cost state (crash recovery, shard-worker boot and resync).

        ``arrays`` maps each compiled cost attribute to a full-length array
        in CSR slot order — what
        :meth:`~repro.network.compiled.graph.CostStore.export_arrays`
        captured and the durability layer's snapshot store persisted, or a
        copy of the shared segment's cost arrays.  Every value must be finite
        and strictly positive (same contract as :meth:`update_edge_costs`),
        and nothing is touched unless all of them are.  The slots that differ
        are found by comparing against the compiled store's arrays — they
        mirror the edge objects, every cost write patching both under the
        compiled-view lock — and go through the same writer as a live-traffic
        batch; then :attr:`cost_version` is *set* to ``cost_version`` (not
        bumped), so replaying the write-ahead log from the restored state
        reproduces the original version sequence bit for bit.  Returns the
        keys of the edges whose costs actually changed.
        """
        import numpy as np

        from .compiled.graph import EDGE_COST_ATTRIBUTES

        if cost_version < 0:
            raise NetworkError(f"cost_version must be >= 0, got {cost_version}")
        compiled = self.compiled()
        edge_count = compiled.topology.edge_count
        clean: dict[str, "np.ndarray"] = {}
        for attr in EDGE_COST_ATTRIBUTES:
            if attr not in arrays:
                raise NetworkError(f"restored cost state is missing {attr!r}")
            values = np.asarray(arrays[attr], dtype=np.float64)
            if values.shape != (edge_count,):
                raise NetworkError(
                    f"restored array for {attr!r} has shape {values.shape}; "
                    f"this network compiles {edge_count} edges"
                )
            if not bool(np.all(np.isfinite(values)) and np.all(values > 0.0)):
                raise NetworkError(
                    f"restored array for {attr!r} carries non-finite or "
                    "non-positive costs; refusing to adopt it"
                )
            clean[attr] = values

        with self._compiled_lock:
            if self._compiled is not compiled:
                raise NetworkError(
                    "network was mutated while restoring its cost state"
                )
            differs = np.zeros(edge_count, dtype=bool)
            for attr, values in clean.items():
                differs |= values != compiled.array(attr)
            slots = np.flatnonzero(differs)
            # One tolist() per column and one dict display per slot: indexing
            # the arrays element by element doubles the cost of a full restore.
            distance, travel, fuel = (
                clean[attr][slots].tolist()
                for attr in ("distance_m", "travel_time_s", "fuel_ml")
            )
            slot_edges = compiled.edges
            resolved: dict[tuple[VertexId, VertexId], dict[str, float]] = {}
            for slot, d, t, f in zip(slots.tolist(), distance, travel, fuel):
                old = slot_edges[slot]
                resolved[old.source, old.target] = {
                    "distance_m": d, "travel_time_s": t, "fuel_ml": f
                }
            if resolved:
                self._patch_costs(resolved, fell=True)  # a restore may lower costs
            self._cost_version = int(cost_version)
            compiled.costs.rewind(self._cost_version)
        return frozenset(resolved)

    # ------------------------------------------------------------------ #
    # Compiled view
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Mutation counter; bumped by every mutation (topology or cost)."""
        return self._version

    @property
    def cost_version(self) -> int:
        """Monotonic cost-update counter; bumped by :meth:`update_edge_costs`.

        Topology mutations do *not* bump it — they drop the compiled view
        entirely, which invalidates every cost-derived artifact anyway.
        Restored by pickling (old pickles default to 0).
        """
        return self._cost_version

    @property
    def cost_fell_version(self) -> int:
        """:attr:`version` as of the last update that lowered an edge cost
        (0: none has).

        Raising costs leaves every path that avoids the touched edges as good
        as it was; lowering one can make a path through it beat a route that
        never touched it.  Caches of optimal routes compare this stamp to
        tell the batches they can answer by dropping crossing routes from the
        ones that retire everything.  Stamped with :attr:`version`, not
        :attr:`cost_version`, which :meth:`restore_cost_state` sets back.
        """
        return self._cost_fell_version

    @property
    def topology_version(self) -> int:
        """Structural-mutation counter (``add_vertex`` / ``add_edge`` only).

        Cost updates never bump it, so artifacts keyed on the topology —
        compiled contraction hierarchies in particular — can distinguish
        cheap cost-only drift (re-weight in place) from structural drift
        (full rebuild required).
        """
        return self._topology_version

    def compiled(self) -> "CompiledGraph":
        """The lazily-built CSR view used by the array-based search kernels.

        The snapshot is cached until the next mutation; see
        :mod:`repro.network.compiled`.  Double-checked locking keeps
        concurrent ``route()`` callers from compiling one snapshot each.
        """
        view = self._compiled
        if view is None:
            with self._compiled_lock:
                view = self._compiled
                if view is None:
                    from .compiled.graph import CompiledGraph

                    version = self._version
                    view = CompiledGraph(self)
                    if version == self._version:
                        self._compiled = view
                    # else: a concurrent mutation invalidated the snapshot
                    # mid-build — serve it uncached; the next call rebuilds.
        return view

    def prepare_landmarks(
        self,
        edge_cost: object | None = None,
        *,
        count: int | None = None,
    ):
        """Eagerly build (or re-configure) the ALT landmark table for a cost.

        The bounded Dijkstra builds the tables of the attribute cost views
        lazily, on their first query on a large graph; call this to pay that
        cost up front (e.g. before opening a service to traffic) or to pick a
        non-default landmark ``count`` (at least 1, else
        :class:`~repro.exceptions.ConfigurationError`).  ``edge_cost``
        defaults to the travel-time feature; any callable recognized by the
        compiled dispatch (``cost_attr`` / ``cost_terms`` / cacheable
        ``build_cost_array``) works.  Returns the
        :class:`~repro.network.compiled.landmarks.LandmarkTable`, or ``None``
        when the cost cannot be compiled to a cacheable array.  The table
        lives on the current compiled snapshot: it dies with any topology
        mutation and rescales/rebuilds itself across live-traffic cost
        updates.
        """
        if count is not None and count < 1:
            raise ConfigurationError(f"landmark count must be at least 1, got {count!r}")
        if edge_cost is None:
            from ..routing.costs import CostFeature, cost_function

            edge_cost = cost_function(CostFeature.TRAVEL_TIME)
        graph = self.compiled()
        resolved = graph.resolve_cost(edge_cost)
        if resolved is None:
            return None
        key, array, version = resolved
        return graph.landmark_table(key, array, version, count=count)

    def prepare_hierarchy(self, feature=None, *, edge_cost=None):
        """Build (or refresh) the cached contraction hierarchy for one cost.

        :func:`~repro.routing.contraction.ch_shortest_path` answers from a
        prebuilt :class:`~repro.routing.contraction.ContractionHierarchy`;
        call this to pay the whole preprocessing up front (mirroring
        :meth:`prepare_landmarks` — the first query afterwards builds
        nothing) and to share one hierarchy per ``(feature, edge_cost)``
        across callers.  ``feature`` defaults to travel time.  A cached
        hierarchy that went stale is refreshed in place before being
        returned — a shortcut re-weight when only costs drifted, a rebuild
        after structural mutations — so the result always answers with
        current costs.
        """
        from ..routing.contraction import build_contraction_hierarchy
        from ..routing.costs import CostFeature

        if feature is None:
            feature = CostFeature.TRAVEL_TIME
        key = (feature, edge_cost)
        hierarchy = self._hierarchies.get(key)
        if hierarchy is None:
            # Built under the lock: racing callers wait for the one build
            # and share (and later refresh) its hierarchy object.
            with self._hierarchy_lock:
                hierarchy = self._hierarchies.get(key)
                if hierarchy is None:
                    hierarchy = self._hierarchies[key] = build_contraction_hierarchy(
                        self, feature=feature, edge_cost=edge_cost
                    )
        if hierarchy.is_stale(self):
            hierarchy.refresh(self)
        return hierarchy

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def __contains__(self, vertex_id: VertexId) -> bool:
        return vertex_id in self._vertices

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._vertices.values())

    def vertex_ids(self) -> Iterator[VertexId]:
        return iter(self._vertices.keys())

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges."""
        return iter(self._edges.values())

    def vertex(self, vertex_id: VertexId) -> Vertex:
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise VertexNotFoundError(vertex_id) from None

    def edge(self, source: VertexId, target: VertexId) -> Edge:
        try:
            return self._edges[(source, target)]
        except KeyError:
            raise EdgeNotFoundError(source, target) from None

    def successors(self, vertex_id: VertexId) -> Mapping[VertexId, Edge]:
        """Outgoing neighbours with the connecting edge."""
        if vertex_id not in self._vertices:
            raise VertexNotFoundError(vertex_id)
        return self._adjacency[vertex_id]

    def predecessors(self, vertex_id: VertexId) -> Mapping[VertexId, Edge]:
        """Incoming neighbours with the connecting edge."""
        if vertex_id not in self._vertices:
            raise VertexNotFoundError(vertex_id)
        return self._reverse[vertex_id]

    def iter_neighbors(self, vertex_id: VertexId) -> Iterator[VertexId]:
        """Lazily iterate the undirected neighbourhood without building a set.

        Search loops (region BFS, clustering) should prefer this over
        :meth:`neighbors`, which materializes a fresh set per call.
        """
        if vertex_id not in self._vertices:
            raise VertexNotFoundError(vertex_id)
        successors = self._adjacency[vertex_id]
        yield from successors
        for predecessor in self._reverse[vertex_id]:
            if predecessor not in successors:
                yield predecessor

    def iter_incident_edges(self, vertex_id: VertexId) -> Iterator[Edge]:
        """Lazily iterate incident edges (outgoing first, then incoming)."""
        if vertex_id not in self._vertices:
            raise VertexNotFoundError(vertex_id)
        yield from self._adjacency[vertex_id].values()
        yield from self._reverse[vertex_id].values()

    def coordinates(self, vertex_id: VertexId) -> LonLat:
        return self.vertex(vertex_id).lonlat

    def bounding_box(self) -> BoundingBox:
        """Bounding box of all vertices (cached until the next add_vertex)."""
        if self._bounding_box is None:
            self._bounding_box = BoundingBox.of(v.lonlat for v in self._vertices.values())
        return self._bounding_box

    # ------------------------------------------------------------------ #
    # Weight functions (paper notation)
    # ------------------------------------------------------------------ #
    def w_di(self, source: VertexId, target: VertexId) -> float:
        """Distance weight ``wDI`` in meters."""
        return self.edge(source, target).distance_m

    def w_rt(self, source: VertexId, target: VertexId) -> RoadType:
        """Road-type weight ``wRT``."""
        return self.edge(source, target).road_type

    # ------------------------------------------------------------------ #
    # Path helpers
    # ------------------------------------------------------------------ #
    def path_edges(self, vertices: Iterable[VertexId]) -> list[Edge]:
        """Edges along a vertex path; raises if any hop is missing."""
        seq = list(vertices)
        return [self.edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]

    def path_distance_m(self, vertices: Iterable[VertexId]) -> float:
        return sum(e.distance_m for e in self.path_edges(vertices))

    def path_travel_time_s(self, vertices: Iterable[VertexId]) -> float:
        return sum(e.travel_time_s for e in self.path_edges(vertices))

    def path_fuel_ml(self, vertices: Iterable[VertexId]) -> float:
        return sum(e.fuel_ml for e in self.path_edges(vertices))

