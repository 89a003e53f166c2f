"""Boundary tables, the dense boundary overlay and exact cross-shard stitching.

Any optimal s→t walk decomposes at its cut-edge traversals into maximal
intra-shard segments whose endpoints are boundary vertices (plus s and t
themselves).  Everything here is built on one mechanism that materializes
that decomposition: per (shard, feature, direction) a **boundary table** —
the shard-local costs from (``reverse``: to) each of the shard's boundary
vertices to (from) every vertex of the shard, with the predecessor matrix of
the searches that priced them, one batched SSSP call through the compiled
dispatch layer (:class:`~repro.network.compiled.dispatch.CostRows`), held
with the sub-network cost array it was priced over.  Tables are built
lazily, so a feature nobody serves never costs a search and an untouched
shard's tables survive a diff elsewhere.

* The **overlay** is, per feature, a dense |B| x |B| weight array over all
  boundary vertices B: column selections of the forward tables (the shard's
  boundary-to-boundary *shortcuts*) plus the cut edges' own costs.  One
  all-pairs pass over it gives the boundary matrix ``D``, whose entries equal
  the true full-network distances.
* A cross-shard query is then pure lookups:

      min over (b, b')  d_A(s, b) + D[b, b'] + d_T(b', t)

  with ``d_A(s, ·)`` a column of the source shard's reverse table and
  ``d_T(·, t)`` a column of the destination shard's forward table.  The same
  bound is the *escape check* for an in-shard pair (a path may leave its
  shard and re-enter).
* The in-shard answer comes from one more level: the shard's sub-network
  bisected once more into two **cells**, with an overlay of its own over
  them (the multi-level overlay of Customizable Route Planning, Delling et
  al., SEA 2011).  A pair whose ends share a cell searches that cell, one
  forward row per distinct source; a cross-cell pair is lookups again, in
  the cell tables.  A cell overlay has no further level.
* Paths come from the same tables without a search, each leg by following
  its row's predecessors, one int per hop: the head from the exit vertex's
  reverse row, the overlay walk from ``D`` (one successor column per goal),
  each shortcut hop and the tail from a boundary vertex's forward row, a
  same-cell answer from its source's row.  A leg is therefore *a* shortest
  path, the one the search tree holds — cost-identical to the reference,
  not hop-identical.
* The middle of a stitched path — the walk from exit to entry vertex with
  its shortcut hops expanded — depends on those two vertices alone, so it is
  **read once per cost version**: memoized on the feature's closure, it is
  retired with it by the first diff to that feature's costs.  Head and tail
  are read per pair, and every spliced path of a call is audited against
  the full network's edges and costs in one vectorized pass.

A table costs |boundary| x |shard| floats and as many int32 — everything
here scales with the boundary the shard plan leaves (60 x 1,800 per shard
table and 30 x 900 per cell table on the 60x60 grid at two shards), small on
planar networks, not guaranteed small on hub-heavy ones.  Cost updates never
change reachability (all edge costs stay positive), so everything but the
costs is fixed at build time; :meth:`BoundaryOverlay.apply` patches costs and
:meth:`BoundaryOverlay.refresh` brings what the patch made stale to the new
costs, both down into the cells: a table whose costs only rose is repaired
(:func:`~repro.network.compiled.batch.repair_many` re-settles the entries
under a raised edge of its search trees, a few percent of the table on the
60x60 grid), any other one is searched again.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ...exceptions import EdgeNotFoundError, NoPathError
from ...network.compiled import dispatch as _compiled
from ...network.road_network import RoadNetwork
from ...routing.costs import FEATURE_EDGE_ATTRIBUTES, CostFeature, cost_function
from ...routing.dijkstra import dijkstra
from .plan import build_shard_plan

if TYPE_CHECKING:  # pragma: no cover
    from ...network.compiled.graph import Topology
    from ...network.road_network import VertexId
    from .plan import ShardPlan

#: Relative tolerance for "strictly better" comparisons between a shard-local
#: answer and the overlay stitch bound (floating-point stitch sums).
ESCAPE_REL_TOL = 1e-9

#: Relative tolerance for the post-reconstruction cost audit.
AUDIT_REL_TOL = 1e-6


def path_cost(
    network: RoadNetwork, vertices: Sequence["VertexId"], feature: CostFeature
) -> float:
    """The summed feature cost of a vertex walk on ``network``."""
    attribute = FEATURE_EDGE_ATTRIBUTES[feature]
    total = 0.0
    for source, target in zip(vertices, vertices[1:]):
        total += getattr(network.edge(source, target), attribute)
    return total


def _edge_keys(topology: "Topology") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A topology's vertex ids (sorted, as its indices are) and its edges'
    ``tail * n + head`` index keys, sorted, with each key's CSR slot."""
    size = topology.vertex_count
    keys = topology.tails * size + np.asarray(topology.targets, dtype=np.int64)
    slots = np.argsort(keys, kind="stable")
    return np.asarray(topology.vertex_ids, dtype=np.int64), keys[slots], slots


def _improves(candidate: float, incumbent: float, rel_tol: float = ESCAPE_REL_TOL) -> bool:
    """Whether ``candidate`` beats ``incumbent`` beyond float noise."""
    if not math.isfinite(candidate):
        return False
    if not math.isfinite(incumbent):
        return True
    return candidate < incumbent - rel_tol * max(1.0, abs(incumbent))


def _all_pairs(weights: np.ndarray) -> np.ndarray:
    """Floyd–Warshall over a dense weight array (``inf`` = no edge).

    One vectorised min-plus relaxation per intermediate vertex, all of them
    through one scratch array.
    """
    distances = weights.copy()
    np.fill_diagonal(distances, 0.0)
    scratch = np.empty_like(distances)
    for via in range(len(distances)):
        np.add.outer(distances[:, via], distances[via], out=scratch)
        np.minimum(distances, scratch, out=distances)
    return distances


class Closure:
    """One feature's dense overlay at one cost state, and what is read off
    it at that state: successor columns, built lazily, and the router's
    expanded boundary segments.  Both die with the closure when a diff
    retires its cost state."""

    __slots__ = ("weights", "distances", "segments", "_successors")

    def __init__(self, weights: np.ndarray, distances: np.ndarray) -> None:
        self.weights = weights
        """Single overlay hops: shortcuts and cut edges, ``inf`` elsewhere."""
        self.distances = distances
        """All-pairs boundary distances — the boundary matrix."""
        self.segments: dict[tuple["VertexId", "VertexId"], tuple["VertexId", ...] | None] = {}
        """Per (exit, entry) vertex pair, the overlay walk between them with
        every shortcut hop expanded into its shard-local leg (``None``: the
        tables do not realize it); filled by :class:`CrossShardRouter`."""
        self._successors: dict[int, list[int]] = {}

    def successors(self, goal: int) -> list[int]:
        """Per boundary position, the next hop of a shortest overlay walk to
        position ``goal``: the first position minimizing hop weight plus
        remaining distance, one ``argmin`` row per position."""
        column = self._successors.get(goal)
        if column is None:
            column = (self.weights + self.distances[:, goal]).argmin(axis=1).tolist()
            self._successors[goal] = column
        return column


class BoundaryOverlay:
    """The boundary tables and dense overlay of one shard plan.

    Owns the per-shard induced sub-networks (the same objects the serving
    worker routes on, so cost updates applied through :meth:`apply` are seen
    by both) and the cut edges' costs.
    """

    def __init__(self, network: RoadNetwork, plan: "ShardPlan") -> None:
        self.plan = plan
        self.subnets: tuple[RoadNetwork, ...] = tuple(
            plan.subnetwork(network, shard_id) for shard_id in range(plan.shard_count)
        )
        self.order: tuple["VertexId", ...] = tuple(sorted(plan.boundary_vertices))
        self._index = {vertex: position for position, vertex in enumerate(self.order)}
        #: Per shard: its boundary vertices' positions in :attr:`order`.
        self.positions = tuple(
            np.asarray([self._index[vertex] for vertex in boundary], dtype=np.intp)
            for boundary in plan.boundary
        )
        self._cut_slot = {edge: slot for slot, edge in enumerate(plan.cut_edges)}
        self._cut_tails = np.asarray(
            [self._index[source] for source, _ in plan.cut_edges], dtype=np.intp
        )
        self._cut_heads = np.asarray(
            [self._index[target] for _, target in plan.cut_edges], dtype=np.intp
        )
        self._cut_costs = {
            attribute: np.asarray(
                [getattr(network.edge(*edge), attribute) for edge in plan.cut_edges],
                dtype=np.float64,
            )
            for attribute in FEATURE_EDGE_ATTRIBUTES.values()
        }
        #: Per cost attribute, how many times a cut edge's value changed.
        self._cut_versions = dict.fromkeys(self._cut_costs, 0)
        #: Every table that has been served, and so what :meth:`refresh`
        #: keeps current: per (shard, feature, reverse), the sub-network
        #: cost array it was priced over and the table.
        self._live_tables: dict[
            tuple[int, CostFeature, bool], tuple[np.ndarray, "_compiled.CostRows"]
        ] = {}
        #: Per feature: the cut-edge version and sub-network cost arrays it
        #: was assembled under, and the closure.
        self._closures: dict[CostFeature, tuple[int, tuple[np.ndarray, ...], Closure]] = {}
        #: Per shard that has served an in-shard pair, the router over its cells.
        self.cell_routers: dict[int, CrossShardRouter] = {}

    # ------------------------------------------------------------------ #
    # Live traffic
    # ------------------------------------------------------------------ #
    def apply(
        self,
        changes: Mapping[tuple["VertexId", "VertexId"], Mapping[str, float]],
    ) -> frozenset[tuple["VertexId", "VertexId"]]:
        """Propagate master-network cost changes into subnets and cut edges.

        Intra-shard changes patch the owning sub-network (the worker's
        serving graph), which swaps its patched cost arrays and so makes its
        tables stale; cut-edge changes patch the overlay's own cost arrays.
        Nothing is rebuilt here — see :meth:`refresh`.  Returns the changed
        intra-shard edge keys (the set a serving cache over the sub-networks
        must invalidate against).
        """
        per_shard: dict[int, dict[tuple["VertexId", "VertexId"], Mapping[str, float]]] = {}
        assignment = self.plan.assignment
        for edge, attrs in changes.items():
            shard_s = assignment.get(edge[0])
            shard_t = assignment.get(edge[1])
            if shard_s is None or shard_t is None:
                continue
            if shard_s == shard_t:
                per_shard.setdefault(shard_s, {})[edge] = attrs
                continue
            slot = self._cut_slot.get(edge)
            if slot is None:
                raise EdgeNotFoundError(*edge)
            for attribute, value in attrs.items():
                costs = self._cut_costs[attribute]
                if costs[slot] != value:
                    costs[slot] = value
                    self._cut_versions[attribute] += 1
        local: set[tuple["VertexId", "VertexId"]] = set()
        for shard_id, shard_changes in per_shard.items():
            local.update(self.subnets[shard_id].update_edge_costs(shard_changes))
            if shard_id in self.cell_routers:
                self.cell_routers[shard_id].overlay.apply(shard_changes)
        return frozenset(local)

    def refresh(self) -> None:
        """Bring every table and boundary matrix that has been served to the
        current cost state — so the request after a diff finds them ready.
        Current ones are kept as they are; what was never asked for stays
        unbuilt."""
        for key in tuple(self._live_tables):
            self.table(*key)
        for feature in tuple(self._closures):
            self.closure(feature)
        for cells in self.cell_routers.values():
            cells.overlay.refresh()

    def cells(self, shard_id: int) -> "CrossShardRouter | None":
        """The router over the shard's cells: its sub-network bisected once
        more (one cell when the shard is a single vertex), built on the
        shard's first in-shard pair.  ``None`` in a cell overlay."""
        router = self.cell_routers.get(shard_id)
        if router is None:
            subnet = self.subnets[shard_id]
            plan = build_shard_plan(subnet, min(2, subnet.vertex_count))
            router = CrossShardRouter(subnet, _CellOverlay(subnet, plan))
            self.cell_routers[shard_id] = router
        return router

    # ------------------------------------------------------------------ #
    # Boundary tables and the dense overlay
    # ------------------------------------------------------------------ #
    def table(
        self, shard_id: int, feature: CostFeature, reverse: bool = False
    ) -> "_compiled.CostRows | None":
        """The shard's boundary table (the shard must have a boundary): one
        row per vertex of ``plan.boundary[shard_id]``, in that order.

        Held with the sub-network's cost array it was priced over, and
        current while that array is the same object: a cost patch swaps the
        arrays it touches for patched copies.  A stale table is repaired
        when none of its costs fell
        (:func:`~repro.network.compiled.dispatch.repair_cost_rows`) and
        searched again otherwise.  ``None`` when the compiled path is
        unavailable; callers fall back to reference routing.
        """
        if not _compiled.is_enabled():
            return None
        subnet = self.subnets[shard_id]
        array = subnet.compiled().array(FEATURE_EDGE_ATTRIBUTES[feature])
        key = (shard_id, feature, reverse)
        held = self._live_tables.get(key)
        if held is not None and held[0] is array:
            return held[1]
        table = None
        if held is not None:
            table = _compiled.repair_cost_rows(subnet, held[1], held[0], array)
        if table is None:
            table = _compiled.try_cost_rows(
                subnet, self.plan.boundary[shard_id], cost_function(feature), reverse=reverse
            )
            if table is None:
                return None
        self._live_tables[key] = (array, table)
        return table

    def closure(self, feature: CostFeature) -> Closure | None:
        """The dense overlay and its all-pairs pass for one feature.

        Kept per feature under the state of that feature's costs it was
        assembled from, so a diff that changes them retires it and a diff to
        another feature's costs does not.  That state is the cut edges'
        version for the attribute and every sub-network's compiled array of
        it: a cost patch swaps the arrays it touches for patched copies and
        leaves the others the same objects.  ``None`` when a table is
        unavailable.
        """
        attribute = FEATURE_EDGE_ATTRIBUTES[feature]
        version = self._cut_versions[attribute]
        arrays = tuple(subnet.compiled().array(attribute) for subnet in self.subnets)
        held = self._closures.get(feature)
        if held is not None and held[0] == version and all(map(operator.is_, held[1], arrays)):
            return held[2]
        size = len(self.order)
        weights = np.full((size, size), np.inf, dtype=np.float64)
        for shard_id, positions in enumerate(self.positions):
            if not len(positions):
                continue
            table = self.table(shard_id, feature)
            if table is None:
                return None
            columns = [table.column_of[vertex] for vertex in self.plan.boundary[shard_id]]
            weights[np.ix_(positions, positions)] = table.costs[:, columns]
        np.fill_diagonal(weights, np.inf)
        weights[self._cut_tails, self._cut_heads] = self._cut_costs[attribute]
        closure = Closure(weights, _all_pairs(weights))
        self._closures[feature] = (version, arrays, closure)
        return closure

    def walk(
        self, closure: Closure, exit_vertex: "VertexId", entry_vertex: "VertexId"
    ) -> list["VertexId"] | None:
        """A shortest overlay walk, read back from the boundary matrix.

        Each hop goes to the vertex minimizing hop weight plus remaining
        distance, read from the closure's successor column for the goal;
        with positive costs the remaining distance falls every hop.  ``None``
        when the matrix does not lead to ``entry_vertex``.
        """
        current, goal = self._index[exit_vertex], self._index[entry_vertex]
        successors = closure.successors(goal)
        order = self.order
        hops = [exit_vertex]
        for _ in order:
            if current == goal:
                return hops
            current = successors[current]
            hops.append(order[current])
        return None


class _CellOverlay(BoundaryOverlay):
    """The overlay over one shard's cells; it has no further level."""

    def cells(self, shard_id: int) -> None:
        return None


#: A stitch the tables found: total cost, exit vertex, entry vertex.
_Stitch = tuple[float, "VertexId", "VertexId"]

#: A routed pair: its path (``None``: unreachable) and that path's cost.
_Priced = tuple[tuple["VertexId", ...] | None, float]


class CrossShardRouter:
    """Exact stitched routing over a :class:`BoundaryOverlay`.

    Stateless between calls apart from the overlay's tables and the count
    behind :attr:`fallbacks`.
    """

    def __init__(self, network: RoadNetwork, overlay: BoundaryOverlay) -> None:
        self.network = network
        self.overlay = overlay
        self.plan = overlay.plan
        self._fallbacks = 0

    @property
    def fallbacks(self) -> int:
        """How many pairs the last resort answered — pairs whose path the
        tables could not produce, or whose spliced path failed the cost
        audit — the cell routers' included (theirs search the shard)."""
        return self._fallbacks + sum(
            cells.fallbacks for cells in self.overlay.cell_routers.values()
        )

    def route_pairs(
        self,
        pairs: Sequence[tuple["VertexId", "VertexId"]],
        feature: CostFeature,
    ) -> list[tuple[tuple["VertexId", ...] | None, bool]] | None:
        """Route pairs through the overlay; ``(vertices, used_overlay)`` each.

        In-shard pairs are answered through the shard's cells unless the
        stitch bound shows an escape path is strictly cheaper.  A ``None``
        *return* means the batched machinery is unavailable and the caller
        must fall back to full-network routing.
        """
        answers = self.answer_pairs(pairs, feature)
        if answers is None:
            return None
        return [(vertices, used_overlay) for vertices, used_overlay, _ in answers]

    def answer_pairs(
        self,
        pairs: Sequence[tuple["VertexId", "VertexId"]],
        feature: CostFeature,
    ) -> list[tuple[tuple["VertexId", ...] | None, bool, float]] | None:
        """:meth:`route_pairs` with each answer's cost:
        ``(vertices, used_overlay, cost)``, ``inf`` when unreachable."""
        closure = self.overlay.closure(feature)
        if closure is None:
            return None
        groups: dict[tuple[int, int], list[int]] = {}
        for index, (source, destination) in enumerate(pairs):
            shard_s = self.plan.shard_of(source)
            shard_t = self.plan.shard_of(destination)
            if shard_s is None or shard_t is None:
                return None
            groups.setdefault((shard_s, shard_t), []).append(index)

        answers: list[tuple[tuple["VertexId", ...] | None, bool, float]] = [
            (None, True, math.inf)
        ] * len(pairs)
        rebuilds: list[tuple[int, _Stitch]] = []
        for (shard_s, shard_t), members in groups.items():
            group = [pairs[index] for index in members]
            stitches = self._stitch(shard_s, shard_t, group, feature, closure)
            if stitches is None:
                return None
            if shard_s != shard_t:
                rebuilds.extend(
                    (index, stitch)
                    for index, stitch in zip(members, stitches)
                    if stitch is not None
                )
                continue
            local = self._local(shard_s, group, feature)
            if local is None:
                return None
            for index, (vertices, cost), stitch in zip(members, local, stitches):
                if stitch is not None and _improves(stitch[0], cost):
                    rebuilds.append((index, stitch))
                else:
                    answers[index] = (vertices, False, cost)
        for index, (vertices, cost) in self._reconstruct(pairs, rebuilds, feature, closure):
            answers[index] = (vertices, True, cost)
        return answers

    def _local(
        self,
        shard_id: int,
        group: Sequence[tuple["VertexId", "VertexId"]],
        feature: CostFeature,
    ) -> list[_Priced] | None:
        """The shard-local answer of every pair of one in-shard group.

        Through the shard's cell router; in a cell overlay, which has no
        cells, one forward row per distinct source over the cell prices each
        answer and its predecessors give the path.
        """
        cells = self.overlay.cells(shard_id)
        if cells is not None:
            answers = cells.answer_pairs(group, feature)
            if answers is None:
                return None
            return [(vertices, cost) for vertices, _, cost in answers]
        sources = list(dict.fromkeys(source for source, _ in group))
        searched = _compiled.try_cost_rows(
            self.overlay.subnets[shard_id], sources, cost_function(feature)
        )
        if searched is None:
            return None
        local: list[_Priced] = []
        for source, destination in group:
            cost = float(searched.costs[searched.row_of[source], searched.column_of[destination]])
            if not math.isfinite(cost):
                local.append((None, cost))
                continue
            vertices = searched.path(source, destination)
            local.append(
                (tuple(vertices), cost) if vertices else self._search(source, destination, feature)
            )
        return local

    def _stitch(
        self,
        shard_s: int,
        shard_t: int,
        group: Sequence[tuple["VertexId", "VertexId"]],
        feature: CostFeature,
        closure: Closure,
    ) -> list[_Stitch | None] | None:
        """The best overlay decomposition of every pair of one shard pair.

        Entry ``None``: no boundary path exists for that pair.  All of it is
        lookups: the two ends' table columns gathered for the whole group,
        the block of the boundary matrix between the two boundaries, and per
        pair two in-place sums and an ``argmin`` over one block-sized scratch.
        """
        exits, entries = self.plan.boundary[shard_s], self.plan.boundary[shard_t]
        if not exits or not entries:
            return [None] * len(group)
        leaving = self.overlay.table(shard_s, feature, reverse=True)
        entering = self.overlay.table(shard_t, feature)
        if leaving is None or entering is None:
            return None
        out = leaving.costs[:, [leaving.column_of[source] for source, _ in group]].T
        into = entering.costs[:, [entering.column_of[destination] for _, destination in group]].T
        block = closure.distances[
            np.ix_(self.overlay.positions[shard_s], self.overlay.positions[shard_t])
        ]
        scratch = np.empty_like(block)
        stitches: list[_Stitch | None] = []
        for leave, enter in zip(out, into):
            np.add(block, enter, out=scratch)
            scratch += leave[:, None]
            choice = int(scratch.argmin())
            total = scratch.item(choice)
            if math.isfinite(total):
                i, j = divmod(choice, len(entries))
                stitches.append((total, exits[i], entries[j]))
            else:
                stitches.append(None)
        return stitches

    def _reconstruct(
        self,
        pairs: Sequence[tuple["VertexId", "VertexId"]],
        rebuilds: Sequence[tuple[int, _Stitch]],
        feature: CostFeature,
        closure: Closure,
    ) -> list[tuple[int, _Priced]]:
        """The full-network path realizing each stitch, audited for cost,
        with the stitch cost as its cost.

        Every leg inside a shard — head, shortcut hops of the overlay walk,
        tail — is read off a boundary table row's predecessors, no search;
        cut-edge hops are real edges.  The walk between exit and entry with
        its shortcut hops expanded depends on nothing but the two boundary
        vertices, so it is read once per closure and memoized on it.  The
        spliced paths must walk real edges and price at the stitch cost
        (within :data:`AUDIT_REL_TOL`), checked for the whole call in one
        pass; a pair that does not, or whose legs the tables could not
        produce, gets a direct full-network search, so a stitching bug can
        degrade throughput but never correctness.
        """
        overlay = self.overlay
        assignment = self.plan.assignment
        segments = closure.segments
        tables: dict[tuple[int, bool], "_compiled.CostRows | None"] = {}

        def leg(anchor: "VertexId", vertex: "VertexId", reverse: bool):
            """The shard-local leg between boundary vertex ``anchor`` and
            ``vertex``, out of the table row of ``anchor``."""
            shard_id = assignment[anchor]
            if (shard_id, reverse) not in tables:
                tables[(shard_id, reverse)] = overlay.table(shard_id, feature, reverse)
            table = tables[(shard_id, reverse)]
            return None if table is None else table.path(anchor, vertex)

        def segment(
            exit_vertex: "VertexId", entry_vertex: "VertexId"
        ) -> tuple["VertexId", ...] | None:
            """The overlay walk between the two boundary vertices with each
            shortcut hop expanded, out of the closure's memo."""
            key = (exit_vertex, entry_vertex)
            if key in segments:
                return segments[key]
            walk = overlay.walk(closure, exit_vertex, entry_vertex)
            expanded: tuple["VertexId", ...] | None = None
            if walk is not None:
                legs = [
                    leg(tail, head, False) if assignment[tail] == assignment[head] else [tail, head]
                    for tail, head in zip(walk, walk[1:])  # shortcut hops and cut edges
                ]
                if all(legs):
                    vertices = [exit_vertex]
                    for part in legs:
                        vertices.extend(part[1:])
                    expanded = tuple(vertices)
            segments[key] = expanded
            return expanded

        results: list[tuple[int, _Priced]] = []
        spliced: list[tuple[int, float, list["VertexId"]]] = []
        for index, (expected, exit_vertex, entry_vertex) in rebuilds:
            source, destination = pairs[index]
            head = leg(exit_vertex, source, True)
            middle = segment(exit_vertex, entry_vertex)
            tail = leg(entry_vertex, destination, False)
            if head and middle and tail:
                head.extend(middle[1:])
                head.extend(tail[1:])
                spliced.append((index, expected, head))
            else:
                results.append((index, self._search(source, destination, feature)))
        passed = self._audit(
            [vertices for _, _, vertices in spliced],
            np.fromiter((expected for _, expected, _ in spliced), np.float64, len(spliced)),
            feature,
        )
        for (index, expected, vertices), sound in zip(spliced, passed):
            if sound:
                results.append((index, (tuple(vertices), expected)))
            else:
                results.append((index, self._search(*pairs[index], feature)))
        return results

    def _audit(
        self,
        paths: Sequence[Sequence["VertexId"]],
        expected: np.ndarray,
        feature: CostFeature,
    ) -> np.ndarray:
        """Per path, whether every hop is an edge of the full network and
        the hops' costs sum to ``expected`` within :data:`AUDIT_REL_TOL`.

        One pass over all hops: each is looked up among the network's
        ``(tail, head)`` keys, sorted once per topology, by one
        ``searchsorted``; a hop between vertices the network does not have,
        or with no key, prices at ``inf``.
        """
        graph = self.network.compiled()
        vertex_ids, keys, slots = graph.memo(
            ("sharding-audit-keys",), lambda: _edge_keys(graph.topology), cost_dependent=False
        )
        lengths = np.fromiter(map(len, paths), np.intp, len(paths))
        flat = np.fromiter(itertools.chain.from_iterable(paths), np.int64, int(lengths.sum()))
        indices = np.searchsorted(vertex_ids, flat)
        known = indices < len(vertex_ids)
        known[known] = vertex_ids[indices[known]] == flat[known]
        hops = np.ones(len(flat), dtype=bool)
        hops[np.cumsum(lengths) - 1] = False  # a path's last vertex starts no hop
        starts = np.flatnonzero(hops)
        wanted = indices[starts] * len(vertex_ids) + indices[starts + 1]
        position = np.searchsorted(keys, wanted)
        real = known[starts] & known[starts + 1] & (position < len(keys))
        real[real] = keys[position[real]] == wanted[real]
        prices = np.full(len(starts), np.inf)
        prices[real] = graph.array(FEATURE_EDGE_ATTRIBUTES[feature])[slots[position[real]]]
        realized = np.bincount(
            np.repeat(np.arange(len(paths)), lengths - 1), weights=prices, minlength=len(paths)
        )
        return np.abs(realized - expected) <= AUDIT_REL_TOL * np.maximum(1.0, np.abs(expected))

    def _search(
        self, source: "VertexId", destination: "VertexId", feature: CostFeature
    ) -> _Priced:
        """The last resort: one search over the full network."""
        self._fallbacks += 1
        try:
            vertices = tuple(dijkstra(self.network, source, destination, cost_function(feature)))
        except NoPathError:
            return None, math.inf
        return vertices, path_cost(self.network, vertices, feature)
