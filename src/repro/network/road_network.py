"""The road-network graph ``G = (V, E, W)``.

A :class:`RoadNetwork` is a directed graph whose vertices are road
intersections with ``(lon, lat)`` coordinates and whose edges are road
segments carrying the four weight functions of the paper:

* ``wDI``  — distance in meters,
* ``wTT``  — free-flow travel time in seconds,
* ``wFC``  — fuel consumption in milliliters,
* ``wRT``  — road type (:class:`~repro.network.road_types.RoadType`).

The edges are stored once, as the flat per-attribute arrays of the network's
compiled CSR view (:mod:`repro.network.compiled`).  :meth:`RoadNetwork.add_edge`
stages a row that the next read merges into new arrays, and every
:class:`Edge` a reader gets is a value built from the arrays when read.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from ..exceptions import (
    ConfigurationError,
    EdgeNotFoundError,
    NetworkError,
    VertexNotFoundError,
)
from .road_types import ROAD_TYPE_BY_VALUE, RoadType
from .spatial import BoundingBox, LonLat, equirectangular_m

if TYPE_CHECKING:  # pragma: no cover
    from .compiled.graph import CompiledGraph

VertexId = int
"""Vertices are identified by integers."""


@dataclass(frozen=True, slots=True)
class Vertex:
    """A road intersection."""

    vertex_id: VertexId
    lon: float
    lat: float

    @property
    def lonlat(self) -> LonLat:
        return (self.lon, self.lat)


class Edge(NamedTuple):
    """A directed road segment with the paper's four weight functions.

    A value: the network stores none, and builds one from its arrays on
    every read (a named tuple, the cheapest immutable value to build).
    """

    source: VertexId
    target: VertexId
    distance_m: float
    travel_time_s: float
    fuel_ml: float
    road_type: RoadType
    speed_kmh: float

    @property
    def key(self) -> tuple[VertexId, VertexId]:
        return (self.source, self.target)


def _edge_at(graph: "CompiledGraph", source: VertexId, target: VertexId, slot: int) -> Edge:
    """The edge at one CSR slot, read off the arrays."""
    distance, travel, fuel, road_type, speed = graph.edge_columns()
    return Edge(
        source,
        target,
        distance.item(slot),
        travel.item(slot),
        fuel.item(slot),
        ROAD_TYPE_BY_VALUE[road_type.item(slot)],
        speed.item(slot),
    )


#: The mutation counters a pickle carries.
_VERSIONS = ("_version", "_cost_version", "_cost_fell_version", "_topology_version")


class RoadNetwork:
    """A directed road-network graph with spatial vertices and weighted edges."""

    def __init__(self, name: str = "road-network") -> None:
        self.name = name
        self._vertices: dict[VertexId, Vertex] = {}
        # Edge rows added since the last published snapshot, as
        # (source, target, distance, travel time, fuel, road type, speed).
        self._staged: list[tuple] = []
        # What the next build starts from: the last published snapshot, at
        # its current costs (a pickle's arrays, built but not yet published).
        self._base: "CompiledGraph | None" = None
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
        # Vertices and edges travel as arrays (model files, the shard worker
        # payload); the snapshot is built again, unpublished, on unpickling,
        # and prepared contraction hierarchies and the locks are dropped.
        vertices = self._vertices.values()
        return {
            "name": self.name,
            "versions": [getattr(self, name) for name in _VERSIONS],
            "vertex_ids": np.array([v.vertex_id for v in vertices], dtype=np.int64),
            "lonlat": np.array([(v.lon, v.lat) for v in vertices], dtype=np.float64),
            "edges": self.compiled().rows()._asdict(),
        }

    def __setstate__(self, state: dict) -> None:
        from .compiled.graph import CompiledGraph, EdgeRows

        self.__init__(state["name"])  # type: ignore[misc]
        for name, value in zip(_VERSIONS, state["versions"]):
            setattr(self, name, value)
        lonlat = state["lonlat"].reshape(-1, 2).tolist()
        ids = state["vertex_ids"].tolist()
        self._vertices = {vid: Vertex(vid, x, y) for vid, (x, y) in zip(ids, lonlat)}
        self._base = CompiledGraph(sorted(self._vertices), EdgeRows(**state["edges"]))

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex_id: VertexId, lon: float, lat: float) -> Vertex:
        """Add (or replace) a vertex and return it."""
        vertex = Vertex(vertex_id=vertex_id, lon=float(lon), lat=float(lat))
        self._vertices[vertex_id] = vertex
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
        """Add (or replace) a directed road segment; returns it.

        The row is staged, and the next read merges it into the network's
        arrays: an edge added again keeps its place and takes the new
        values, while every other edge keeps its current (possibly
        traffic-patched) costs.  Missing weights are derived: distance from
        vertex coordinates, speed from the road-type default, travel time from
        distance and speed, and fuel from the environmental model in
        :mod:`repro.routing.fuel`.  A speed, travel time or fuel that is not a
        finite positive number raises :class:`NetworkError`.
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

        row = (source, target, float(distance_m), float(travel_time_s), float(fuel_ml))
        self._staged.append((*row, road_type, float(speed_kmh)))
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
        return Edge(*row, road_type, float(speed_kmh))

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
        compiled view's cost arrays — the one store of edge costs — are
        patched through
        :meth:`~repro.network.compiled.graph.CostStore.apply_updates` (so
        live-traffic updates cost O(touched edges), not a CSR rebuild), and
        :attr:`version` and :attr:`cost_version` are bumped.

        Returns the keys of the edges whose costs actually *changed* —
        values equal to the current ones are validated but skipped, so an
        idempotent batch (e.g. a de-congestion tick back to current levels)
        changes nothing, bumps nothing, and triggers no cache invalidation
        downstream.
        """
        from .compiled.graph import EDGE_COST_ATTRIBUTES

        allowed = frozenset(EDGE_COST_ATTRIBUTES)
        isfinite = math.isfinite
        graph, staged = self._sources()
        slot_of = {} if graph is None else graph.topology.slot_of
        columns = [] if graph is None else [graph.array(attr) for attr in EDGE_COST_ATTRIBUTES]
        resolved: dict[tuple[VertexId, VertexId], dict[str, float]] = {}
        fell = False
        for key, changes in updates.items():
            if key in staged:
                costs = staged[key][1][2:5]
            elif key in slot_of:
                costs = [column.item(slot_of[key]) for column in columns]
            else:
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
                old = costs[EDGE_COST_ATTRIBUTES.index(attribute)]
                if value != old:  # skip no-op writes
                    clean[attribute] = value
                    fell = fell or value < old
            if clean:
                resolved[key] = clean
        if not resolved:
            return frozenset()

        # A write never builds: it lands where the edge's values live — the
        # cached snapshot's arrays, or else the staged row or the base's
        # arrays the next build merges — located again under the lock that
        # builds hold, so no build carries half a batch across.
        with self._compiled_lock:
            graph, staged = self._sources()
            changes: dict[int, dict[str, float]] = {}
            for key, clean in resolved.items():
                if key in staged:
                    index, (source, target, *costs, road_type, speed) = staged[key]
                    costs = [clean.get(attr, old) for attr, old in zip(EDGE_COST_ATTRIBUTES, costs)]
                    self._staged[index] = (source, target, *costs, road_type, speed)
                else:
                    changes[graph.topology.slot_of[key]] = clean
            self._version += 1
            self._cost_version += 1
            if fell:
                self._cost_fell_version = self._version
            if changes:
                graph.costs.apply_updates(changes)
        return frozenset(resolved)

    def _sources(
        self,
    ) -> tuple["CompiledGraph | None", dict[tuple[VertexId, VertexId], tuple[int, tuple]]]:
        """Where the current edge values live: the snapshot holding every
        edge not staged since (the cached one, else the base), and each
        staged edge's latest row with its index (stable while the caller
        holds ``_compiled_lock``)."""
        graph = self._compiled
        if graph is not None:
            return graph, {}
        # Staged rows before the base: a build publishing in between leaves
        # them duplicated in the new base, never missing.
        staged = {(row[0], row[1]): (index, row) for index, row in enumerate(self._staged[:])}
        return self._base, staged

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
        and nothing is touched unless all of them are.  Validate, diff
        against the compiled store's arrays, swap copies of the adopted
        arrays in when any slot differs, and rewind:
        :attr:`cost_version` is *set* to ``cost_version`` (not bumped), so
        replaying the write-ahead log from the restored state reproduces the
        original version sequence bit for bit.  Returns the keys of the
        edges whose costs actually changed.
        """
        from .compiled.graph import EDGE_COST_ATTRIBUTES

        if cost_version < 0:
            raise NetworkError(f"cost_version must be >= 0, got {cost_version}")
        graph = self.compiled()
        edge_count = graph.edge_count
        clean: dict[str, np.ndarray] = {}
        for attr in EDGE_COST_ATTRIBUTES:
            if attr not in arrays:
                raise NetworkError(f"restored cost state is missing {attr!r}")
            values = np.array(arrays[attr], dtype=np.float64)
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
            if self._compiled is not graph:
                raise NetworkError(
                    "network was mutated while restoring its cost state"
                )
            current = graph.costs.export_arrays()
            differs = np.zeros(edge_count, dtype=bool)
            for attr, values in clean.items():
                differs |= values != current[attr]
            slots = np.flatnonzero(differs)
            if slots.size:
                self._version += 1
                self._cost_fell_version = self._version  # a restore may lower costs
            self._cost_version = int(cost_version)
            graph.costs.rewind(self._cost_version, clean if slots.size else None)
        sources, targets = graph.topology.ends(slots)
        return frozenset(zip(sources.tolist(), targets.tolist()))

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
        """The lazily-built CSR view: the network's one store of edges, read
        by the array-based search kernels and by every edge accessor.

        The snapshot is cached until the next topology mutation; see
        :mod:`repro.network.compiled`.  A build merges the base's rows, at
        their current costs, with the rows staged since.  Double-checked
        locking keeps concurrent ``route()`` callers from compiling one
        snapshot each.
        """
        view = self._compiled
        if view is None:
            with self._compiled_lock:
                view = self._compiled
                if view is None:
                    view, version, count = self._build()
                    if version == self._version:
                        self._compiled = self._base = view
                        del self._staged[:count]
                    # else: a concurrent mutation invalidated the snapshot
                    # mid-build — serve it uncached; the next call rebuilds
                    # from the same base and staged rows.
        return view

    def _build(self) -> tuple["CompiledGraph", int, int]:
        """A snapshot of the current vertices and edges, with the version
        and the number of staged rows it was built from: the base itself
        when no edge or vertex was added since (an unpickled network, or
        vertices moved in place)."""
        from .compiled.graph import CompiledGraph, EdgeRows

        version = self._version
        count = len(self._staged)
        base = self._base
        if base is not None and not count and base.vertex_count == len(self._vertices):
            return base, version, count
        rows = EdgeRows.of(self._staged[:count])
        if base is not None:
            rows = base.rows().then(rows)
        return CompiledGraph(sorted(self._vertices), rows), version, count

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
        return self.compiled().edge_count

    def __contains__(self, vertex_id: VertexId) -> bool:
        return vertex_id in self._vertices

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._vertices.values())

    def vertex_ids(self) -> Iterator[VertexId]:
        return iter(self._vertices.keys())

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges, in insertion order."""
        graph = self.compiled()
        distance, travel, fuel, road_type, speed = (c.tolist() for c in graph.edge_columns())
        road_types = [ROAD_TYPE_BY_VALUE[value] for value in road_type]
        new = tuple.__new__
        return iter(
            [
                new(Edge, (s, t, distance[k], travel[k], fuel[k], road_types[k], speed[k]))
                for (s, t), k in graph.topology.slot_of.items()
            ]
        )

    def vertex(self, vertex_id: VertexId) -> Vertex:
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise VertexNotFoundError(vertex_id) from None

    def _slot(self, source: VertexId, target: VertexId) -> tuple["CompiledGraph", int]:
        """The current snapshot and the CSR slot of one edge."""
        graph = self.compiled()
        slot = graph.topology.slot_of.get((source, target))
        if slot is None:
            raise EdgeNotFoundError(source, target)
        return graph, slot

    def edge(self, source: VertexId, target: VertexId) -> Edge:
        graph, slot = self._slot(source, target)
        return _edge_at(graph, source, target, slot)

    def _index(self, vertex_id: VertexId) -> tuple["CompiledGraph", int]:
        """The current snapshot and a vertex's dense index in it."""
        graph = self.compiled()
        index = graph.index_of.get(vertex_id)
        if index is None:
            raise VertexNotFoundError(vertex_id)
        return graph, index

    def out_edges(self, vertex_id: VertexId) -> list[Edge]:
        """A vertex's outgoing edges, in insertion order (what the dict
        searches expand: :meth:`successors` without the mapping)."""
        graph, index = self._index(vertex_id)
        ids = graph.vertex_ids
        distance, travel, fuel, road_type, speed = graph.costs.edge_values()
        lo, hi = graph.offsets[index], graph.offsets[index + 1]
        new = tuple.__new__  # skips the named tuple's Python-level __new__
        return [
            new(Edge, (vertex_id, ids[t], distance[k], travel[k], fuel[k], road_type[k], speed[k]))
            for k, t in enumerate(graph.targets[lo:hi], lo)
        ]

    def in_edges(self, vertex_id: VertexId) -> list[Edge]:
        """A vertex's incoming edges, in insertion order."""
        graph, index = self._index(vertex_id)
        ids = graph.vertex_ids
        distance, travel, fuel, road_type, speed = graph.costs.edge_values()
        lo, hi = graph.r_offsets[index], graph.r_offsets[index + 1]
        slots = graph.topology.r_slots[lo:hi].tolist()
        new = tuple.__new__
        return [
            new(Edge, (ids[s], vertex_id, distance[k], travel[k], fuel[k], road_type[k], speed[k]))
            for s, k in zip(graph.r_targets[lo:hi], slots)
        ]

    def successors(self, vertex_id: VertexId) -> Mapping[VertexId, Edge]:
        """Outgoing neighbours with the connecting edge."""
        return {edge.target: edge for edge in self.out_edges(vertex_id)}

    def predecessors(self, vertex_id: VertexId) -> Mapping[VertexId, Edge]:
        """Incoming neighbours with the connecting edge."""
        return {edge.source: edge for edge in self.in_edges(vertex_id)}

    def iter_neighbors(self, vertex_id: VertexId) -> Iterator[VertexId]:
        """Lazily iterate the undirected neighbourhood without building a set.

        Search loops (region BFS, clustering) should prefer this over
        :meth:`neighbors`, which materializes a fresh set per call.
        """
        graph, index = self._index(vertex_id)
        ids = graph.vertex_ids
        successors = [ids[t] for t in graph.targets[graph.offsets[index] : graph.offsets[index + 1]]]
        yield from successors
        for s in graph.r_targets[graph.r_offsets[index] : graph.r_offsets[index + 1]]:
            if ids[s] not in successors:
                yield ids[s]

    def iter_incident_edges(self, vertex_id: VertexId) -> Iterator[Edge]:
        """Lazily iterate incident edges (outgoing first, then incoming)."""
        yield from self.out_edges(vertex_id)
        yield from self.in_edges(vertex_id)

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
        graph, slot = self._slot(source, target)
        return graph.array("distance_m").item(slot)

    def w_rt(self, source: VertexId, target: VertexId) -> RoadType:
        """Road-type weight ``wRT``."""
        graph, slot = self._slot(source, target)
        return ROAD_TYPE_BY_VALUE[graph.road_type_values.item(slot)]

    # ------------------------------------------------------------------ #
    # Path helpers
    # ------------------------------------------------------------------ #
    def path_edges(self, vertices: Iterable[VertexId]) -> list[Edge]:
        """Edges along a vertex path; raises if any hop is missing."""
        seq = list(vertices)
        return [self.edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]

    def _path_total(self, attribute: str, vertices: Iterable[VertexId]) -> float:
        """One cost attribute summed along a vertex path, read off its column."""
        seq = list(vertices)
        slots = [self._slot(seq[i], seq[i + 1])[1] for i in range(len(seq) - 1)]
        column = self.compiled().array(attribute)
        return sum(column.item(slot) for slot in slots)

    def path_distance_m(self, vertices: Iterable[VertexId]) -> float:
        return self._path_total("distance_m", vertices)

    def path_travel_time_s(self, vertices: Iterable[VertexId]) -> float:
        return self._path_total("travel_time_s", vertices)

    def path_fuel_ml(self, vertices: Iterable[VertexId]) -> float:
        return self._path_total("fuel_ml", vertices)
