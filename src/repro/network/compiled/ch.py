"""The customizable contraction hierarchy, with live re-weighting.

A :class:`CompiledHierarchy` is the structure behind
:class:`~repro.routing.contraction.ContractionHierarchy`: upward and
downward arc sets flattened into per-vertex arrays over a topology snapshot's
dense vertex indices, queried through the hierarchy's *elimination tree* and
unpacked by expanding shortcut via-chains iteratively.  Everything is
scipy-free.

The structure is deliberately *metric-independent*, following the
customizable-weight separation of Customizable Route Planning / Customizable
Contraction Hierarchies: the arc set is built by contracting the **topology
only** (every pair of a contracted vertex's neighbours becomes an arc —
nothing is pruned against the metric), under a fill-reducing order computed
from the graph structure alone (geometric nested dissection over the vertex
coordinates).  Arc weights are then
*customized* from the current per-slot cost array: each arc's weight becomes
``min(base edge cost, min over lower triangles w(u,v) + w(v,w))``, processed
bottom-up so every triangle reads final halves.  Because the arc set is
closed under the order (a chordal supergraph), queries on the customized
weights are exact for **any** cost metric — which is what makes live-traffic
re-weighting sound: a hierarchy that prunes shortcuts against the build
metric bakes that metric into its *structure* (change the costs and a pruned
shortcut may become necessary, so only a rebuild is exact), whereas a cost
change here only requires recomputing weights.
:meth:`CompiledHierarchy.reweight` diffs the new cost array against the
current base, seeds the touched arcs, and re-relaxes bottom-up along the
recorded triangle dependencies — O(touched arcs x their lower triangles),
not O(graph).  Each re-weight bumps :attr:`weights_version`; queries snapshot
the versioned state atomically, so readers never observe a half-applied
batch.

The price of pruning nothing is fill: :attr:`CompiledHierarchy.arc_count`
over the topology's edge count depends on how well the order separates the
graph (about 10 on the grid cities), not on its degree statistics, so it is
worth reading per topology.

Queries run on **elimination-tree hub labels**: every monotone-upward path
from a vertex stays inside its elimination-tree ancestor path, so the exact
upward distance (and first-hop parent) from a vertex to each of its
ancestors is one short numpy DP over its upward arcs — computed lazily per
vertex and memoized per weights version (ancestors are shared, so a warm
cache answers a query with two array reads, one suffix alignment, and one
vectorized argmin).  Path reconstruction walks the stored first-hop parents
and expands via-chains through the arc index.
"""

from __future__ import annotations

import math
import threading
from array import array
from heapq import heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Topology

_INF = math.inf

# ---------------------------------------------------------------------- #
# Contraction orders (metric-free)
# ---------------------------------------------------------------------- #
def _nested_dissection_order(
    topology: "Topology", lon: list[float], lat: list[float]
) -> list[int]:
    """A geometric nested-dissection order (rank per dense vertex index).

    Recursively bisects the vertex set along the wider coordinate extent;
    the separator — the low-side vertices with a neighbour on the high side —
    is ranked above both halves, so contraction fills within cells and
    separators only, never across them.  On road-like graphs this keeps the
    chordal supergraph small and the elimination tree shallow, which is what
    both the query and the re-weight costs scale with.
    """
    n = topology.vertex_count
    offsets, targets = topology.offsets, topology.targets
    r_offsets, r_targets = topology.r_offsets, topology.r_targets

    def neighbours(v: int):
        for i in range(offsets[v], offsets[v + 1]):
            yield targets[i]
        for i in range(r_offsets[v], r_offsets[v + 1]):
            yield int(r_targets[i])

    rank = [0] * n
    stack: list[tuple[list[int], int]] = [(list(range(n)), 0)]
    while stack:
        cell, base = stack.pop()
        if len(cell) <= 3:
            # Cells this small cannot generate meaningful fill whatever
            # their internal order; larger cells keep dissecting (an
            # arbitrarily-ordered leaf would fill quadratically).
            for position, v in enumerate(cell):
                rank[v] = base + position
            continue
        xs = [lon[v] for v in cell]
        ys = [lat[v] for v in cell]
        key = lon if (max(xs) - min(xs)) >= (max(ys) - min(ys)) else lat
        cell.sort(key=key.__getitem__)
        half = len(cell) // 2
        high = cell[half:]
        high_set = set(high)
        separator: list[int] = []
        low: list[int] = []
        for v in cell[:half]:
            if any(nb in high_set for nb in neighbours(v)):
                separator.append(v)
            else:
                low.append(v)
        stack.append((low, base))
        stack.append((high, base + len(low)))
        top = base + len(low) + len(high)
        for position, v in enumerate(separator):
            rank[v] = top + position
    return rank


class CompiledHierarchy:
    """Compiled CH arc sets with customizable (re-weightable) weights.

    Built once per :class:`~repro.network.compiled.graph.Topology` snapshot
    (the topology object itself is the stamp — any structural mutation of
    the network produces a new one, orphaning this hierarchy).  The mutable
    part is the versioned weight state ``(weights_version, arc_weight,
    arc_via, up_rows, down_rows)`` swapped atomically under the re-weight
    lock, copy-on-write so in-flight queries keep a consistent pre-update
    view; hub labels are derived from it lazily per version.
    """

    def __init__(
        self,
        topology: "Topology",
        base_weights: np.ndarray,
        coordinates: tuple[list[float], list[float]],
    ) -> None:
        self.topology = topology
        n = topology.vertex_count
        rank = _nested_dissection_order(topology, coordinates[0], coordinates[1])
        self.rank = rank

        # ---- metric-independent contraction: keep every shortcut -------- #
        # Arcs come in *symmetric pairs*: the contraction chordalizes the
        # undirected skeleton (every ordered pair of a contracted vertex's
        # undirected neighbourhood becomes an arc), and a direction without
        # a base edge or real triangle simply customizes to ``inf``.  This
        # is what makes the elimination tree sound on one-way streets: the
        # ancestor-containment of the query relies on the *undirected* fill
        # graph being chordal, which in/out-pair fill alone does not give.
        offsets, targets = topology.offsets, topology.targets
        arc_index: dict[tuple[int, int], int] = {}
        arc_source = array("i")
        arc_target = array("i")
        arc_base_slot = array("i")
        tri_arc = array("i")
        tri_h1 = array("i")
        tri_h2 = array("i")
        tri_via = array("i")

        def _ensure_arc(u: int, w: int, slot: int = -1) -> int:
            arc = arc_index.get((u, w))
            if arc is None:
                arc = len(arc_source)
                arc_index[(u, w)] = arc
                arc_source.append(u)
                arc_target.append(w)
                arc_base_slot.append(slot)
            elif slot >= 0 and arc_base_slot[arc] < 0:
                arc_base_slot[arc] = slot
            return arc

        neighbourhood: list[set[int]] = [set() for _ in range(n)]
        for u in range(n):
            for slot in range(offsets[u], offsets[u + 1]):
                w = targets[slot]
                if u == w:
                    continue  # parallel slots: first one wins, customization
                _ensure_arc(u, w, slot)  # keeps the weight minimal anyway
                _ensure_arc(w, u)
                neighbourhood[u].add(w)
                neighbourhood[w].add(u)
        order = sorted(range(n), key=rank.__getitem__)
        for v in order:
            around = list(neighbourhood[v])
            for a in around:
                arc_av = arc_index[(a, v)]
                nb_a = neighbourhood[a]
                for b in around:
                    if a == b:
                        continue
                    arc = _ensure_arc(a, b)
                    nb_a.add(b)
                    tri_arc.append(arc)
                    tri_h1.append(arc_av)
                    tri_h2.append(arc_index[(v, b)])
                    tri_via.append(v)
                nb_a.discard(v)
            neighbourhood[v] = set()

        m = len(arc_source)
        self.arc_index = arc_index
        self.arc_source = arc_source.tolist()
        self.arc_target = arc_target.tolist()
        self.arc_base_slot = arc_base_slot.tolist()
        self.arc_count = m
        self.contraction_order = order

        # ---- lower triangles, grouped per arc (flat, compact) ----------- #
        tri_of = np.frombuffer(tri_arc, dtype=np.int32) if len(tri_arc) else np.zeros(0, np.int32)
        grouping = np.argsort(tri_of, kind="stable")
        self.tri_h1 = (
            np.frombuffer(tri_h1, dtype=np.int32)[grouping] if len(tri_h1) else np.zeros(0, np.int32)
        )
        self.tri_h2 = (
            np.frombuffer(tri_h2, dtype=np.int32)[grouping] if len(tri_h2) else np.zeros(0, np.int32)
        )
        self.tri_via = (
            np.frombuffer(tri_via, dtype=np.int32)[grouping] if len(tri_via) else np.zeros(0, np.int32)
        )
        counts = np.bincount(tri_of, minlength=m) if m else np.zeros(0, np.int64)
        tri_indptr = np.zeros(m + 1, dtype=np.int64)
        if m:
            np.cumsum(counts, out=tri_indptr[1:])
        self.tri_indptr = tri_indptr.tolist()
        # Reverse dependencies: which arcs use arc X as a triangle half.
        if len(tri_of):
            half_keys = np.concatenate([self.tri_h1, self.tri_h2])
            half_deps = np.concatenate([tri_of[grouping], tri_of[grouping]])
            dep_order = np.argsort(half_keys, kind="stable")
            self.dep_arcs = half_deps[dep_order]
            dep_counts = np.bincount(half_keys, minlength=m)
            dep_indptr = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(dep_counts, out=dep_indptr[1:])
            self.dep_indptr = dep_indptr.tolist()
        else:
            self.dep_arcs = np.zeros(0, np.int32)
            self.dep_indptr = [0] * (m + 1)

        # ---- grouped adjacency by lower endpoint ------------------------ #
        # up: arcs v->w climbing out of v; down: arcs u->w descending into w.
        arc_source_list = self.arc_source
        arc_target_list = self.arc_target
        up_indptr = [0] * (n + 1)
        down_indptr = [0] * (n + 1)
        for arc in range(m):
            u, w = arc_source_list[arc], arc_target_list[arc]
            if rank[u] < rank[w]:
                up_indptr[u + 1] += 1
            else:
                down_indptr[w + 1] += 1
        for v in range(n):
            up_indptr[v + 1] += up_indptr[v]
            down_indptr[v + 1] += down_indptr[v]
        up_targets = [0] * up_indptr[n]
        up_arcs = [0] * up_indptr[n]
        down_sources = [0] * down_indptr[n]
        down_arcs = [0] * down_indptr[n]
        up_cursor = list(up_indptr[:n])
        down_cursor = list(down_indptr[:n])
        up_row_of = [-1] * m
        for arc in range(m):
            u, w = arc_source_list[arc], arc_target_list[arc]
            if rank[u] < rank[w]:
                position = up_cursor[u]
                up_cursor[u] = position + 1
                up_targets[position] = w
                up_arcs[position] = arc
                up_row_of[arc] = u
            else:
                position = down_cursor[w]
                down_cursor[w] = position + 1
                down_sources[position] = u
                down_arcs[position] = arc
        self.up_indptr = up_indptr
        self.up_targets = up_targets
        self.up_arcs = up_arcs
        self.down_indptr = down_indptr
        self.down_sources = down_sources
        self.down_arcs = down_arcs
        self._up_row_of = up_row_of
        self._level = [
            min(rank[arc_source_list[a]], rank[arc_target_list[a]]) for a in range(m)
        ]

        # ---- elimination tree ------------------------------------------- #
        # parent(v) = the lowest-ranked upper neighbour of v in the chordal
        # graph; the monotone-upward search space of any vertex is contained
        # in its ancestor (root) path.
        tree_parent = [-1] * n
        for v in range(n):
            best_rank = n
            best_parent = -1
            for i in range(up_indptr[v], up_indptr[v + 1]):
                w = up_targets[i]
                if rank[w] < best_rank:
                    best_rank = rank[w]
                    best_parent = w
            for i in range(down_indptr[v], down_indptr[v + 1]):
                u = down_sources[i]
                if rank[u] < best_rank:
                    best_rank = rank[u]
                    best_parent = u
            tree_parent[v] = best_parent
        self.tree_parent = tree_parent
        paths: list[tuple[int, ...]] = [()] * n
        depth = [0] * n
        for v in reversed(order):  # parents (higher rank) before children
            parent = tree_parent[v]
            paths[v] = (v,) + paths[parent] if parent >= 0 else (v,)
            depth[v] = len(paths[v])
        self.paths = paths
        self.depth = depth

        self._waves = self._build_waves()
        self._lock = threading.Lock()
        self.reweight_count = 0
        self._base = np.asarray(base_weights, dtype=np.float64)
        self._state = self._customize(self._base)
        self._labels: tuple | None = None

    def _build_waves(self) -> list:
        """Static dependency waves for the vectorized customization.

        ``wave(arc) = 1 + max(wave of its triangle halves)`` (0 for arcs
        without triangles), so all arcs of one wave are independent and a
        full customization is one batched gather / segmented-min per wave —
        roughly the elimination-tree height of them — instead of a python
        loop over every arc.
        """
        m = self.arc_count
        tri_indptr = self.tri_indptr
        h1_all, h2_all, via_all = self.tri_h1, self.tri_h2, self.tri_via
        wave = [0] * m
        for arc in sorted(range(m), key=self._level.__getitem__):
            start, end = tri_indptr[arc], tri_indptr[arc + 1]
            if end > start:
                best = 0
                for half in h1_all[start:end].tolist():
                    if wave[half] > best:
                        best = wave[half]
                for half in h2_all[start:end].tolist():
                    if wave[half] > best:
                        best = wave[half]
                wave[arc] = best + 1
        groups: dict[int, list[int]] = {}
        for arc in range(m):
            groups.setdefault(wave[arc], []).append(arc)
        slots = np.asarray(self.arc_base_slot, dtype=np.int64)
        waves = []
        for index in sorted(groups):
            members = groups[index]
            arcs = np.asarray(members, dtype=np.int64)
            arc_slots = slots[arcs]
            if index == 0:  # no triangles: weight is the base edge cost
                waves.append((arcs, arc_slots, None))
                continue
            counts = np.asarray(
                [tri_indptr[a + 1] - tri_indptr[a] for a in members], dtype=np.int64
            )
            tri_idx = np.concatenate(
                [np.arange(tri_indptr[a], tri_indptr[a + 1]) for a in members]
            )
            starts = np.zeros(len(members), dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            waves.append(
                (
                    arcs,
                    arc_slots,
                    (h1_all[tri_idx], h2_all[tri_idx], via_all[tri_idx], starts, counts),
                )
            )
        return waves

    @staticmethod
    def _base_values(base: np.ndarray, arc_slots: np.ndarray) -> np.ndarray:
        """Base edge costs per arc (``inf`` for pure-shortcut arcs)."""
        values = base[np.where(arc_slots >= 0, arc_slots, 0)]
        return np.where(arc_slots >= 0, values, np.inf)

    def _customize_full(self, base: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Vectorized full customization: all arc weights and argmin vias.

        Processes the dependency waves in order; within a wave the triangle
        minima are one gather-add plus ``minimum.reduceat``, and the via of
        each arc is the *first* triangle attaining the minimum (base edge
        wins ties) — bit-identical to the per-arc scan of :meth:`_recompute`.
        """
        arc_weight = np.empty(self.arc_count, dtype=np.float64)
        arc_via = np.full(self.arc_count, -1, dtype=np.int64)
        for arcs, arc_slots, triangles in self._waves:
            base_values = self._base_values(base, arc_slots)
            if triangles is None:
                arc_weight[arcs] = base_values
                continue
            h1, h2, vias, starts, counts = triangles
            candidates = arc_weight[h1] + arc_weight[h2]
            minima = np.minimum.reduceat(candidates, starts)
            arc_weight[arcs] = np.minimum(base_values, minima)
            use_triangle = minima < base_values
            if use_triangle.any():
                hits = np.flatnonzero(candidates == np.repeat(minima, counts))
                first = hits[np.searchsorted(hits, starts)]
                arc_via[arcs] = np.where(use_triangle, vias[first], -1)
        return arc_weight, arc_via.tolist()

    # ------------------------------------------------------------------ #
    # Weight customization
    # ------------------------------------------------------------------ #
    def _recompute(self, arc: int, base: np.ndarray, arc_weight: np.ndarray) -> tuple[float, int]:
        """One arc's weight from its base slot and all lower triangles.

        ``arc_weight`` stays a numpy array so the triangle minimum is two
        fancy-index gathers plus one ``argmin`` whatever the triangle count;
        ties against the base edge keep the base (``via = -1``), and ties
        among triangles keep the first (argmin) — both matching the strict
        scan order of a full bottom-up pass.
        """
        slot = self.arc_base_slot[arc]
        best = float(base[slot]) if slot >= 0 else _INF
        best_via = -1
        start, end = self.tri_indptr[arc], self.tri_indptr[arc + 1]
        if end > start:
            candidates = arc_weight[self.tri_h1[start:end]] + arc_weight[self.tri_h2[start:end]]
            k = int(np.argmin(candidates))
            candidate = float(candidates[k])
            if candidate < best:
                best = candidate
                best_via = int(self.tri_via[start + k])
        return best, best_via

    def _rows(self, weight_list: list[float]) -> tuple[list, list]:
        """The query adjacency: per-vertex ``(neighbour, weight)`` tuple rows."""
        up_indptr, up_targets, up_arcs = self.up_indptr, self.up_targets, self.up_arcs
        down_indptr = self.down_indptr
        down_sources, down_arcs = self.down_sources, self.down_arcs
        n = self.topology.vertex_count
        up_rows = [
            [
                (up_targets[i], weight_list[up_arcs[i]])
                for i in range(up_indptr[v], up_indptr[v + 1])
            ]
            for v in range(n)
        ]
        down_rows = [
            [
                (down_sources[i], weight_list[down_arcs[i]])
                for i in range(down_indptr[v], down_indptr[v + 1])
            ]
            for v in range(n)
        ]
        return up_rows, down_rows

    def _customize(self, base: np.ndarray) -> tuple:
        """Full bottom-up customization into a fresh state tuple."""
        arc_weight, arc_via = self._customize_full(base)
        up_rows, down_rows = self._rows(arc_weight.tolist())
        return (0, arc_weight, arc_via, up_rows, down_rows)

    # ------------------------------------------------------------------ #
    # Versioned weight state
    # ------------------------------------------------------------------ #
    @property
    def weights_version(self) -> int:
        """Monotonic version of the arc weights; bumped per re-weight."""
        return self._state[0]

    @property
    def base_weights(self) -> np.ndarray:
        """The per-slot cost array the current weights were customized from."""
        return self._base

    def reweight(self, new_base: np.ndarray) -> int:
        """Re-customize only the arcs affected by a base cost change.

        ``new_base`` is the current per-slot cost array (same layout as the
        build-time array).  Small diffs seed a dirty set from the touched
        slots and re-relax bottom-up along the recorded triangle
        dependencies — O(touched arcs x their triangle counts), and an arc
        whose recomputed weight comes out unchanged stops the propagation.
        Diffs wide enough that the dirty cone would cover much of the
        hierarchy run the vectorized full customization instead (one
        segmented-min per dependency wave); both produce identical weights
        and vias.  Returns the number of arcs whose weight or via changed
        (0 for a no-op diff — the version is then left untouched).
        """
        new_base = np.asarray(new_base, dtype=np.float64)
        with self._lock:
            old_base = self._base
            if new_base is old_base:
                return 0
            changed_slots = np.nonzero(new_base != old_base)[0]
            if changed_slots.size == 0:
                self._base = new_base
                return 0
            if changed_slots.size > 16:
                return self._reweight_full(new_base)
            version, arc_weight, arc_via, up_rows, down_rows = self._state
            arc_weight = arc_weight.copy()
            arc_via = arc_via.copy()
            level = self._level
            arc_index = self.arc_index
            topo_targets = self.topology.targets
            slot_owner = np.searchsorted(
                np.asarray(self.topology.offsets, dtype=np.int64),
                changed_slots,
                side="right",
            )
            heap: list[tuple[int, int]] = []
            queued: set[int] = set()
            for slot, u in zip(changed_slots.tolist(), (slot_owner - 1).tolist()):
                arc = arc_index.get((u, topo_targets[slot]))
                if arc is not None and arc not in queued:
                    queued.add(arc)
                    heappush(heap, (level[arc], arc))
            touched = 0
            dep_indptr, dep_arcs = self.dep_indptr, self.dep_arcs
            up_row_of = self._up_row_of
            source, target = self.arc_source, self.arc_target
            dirty_up_rows: set[int] = set()
            dirty_down_rows: set[int] = set()
            weight_list: list[float] | None = None
            while heap:
                _, arc = heappop(heap)
                weight, via = self._recompute(arc, new_base, arc_weight)
                old_weight = float(arc_weight[arc])
                if weight == old_weight and via == arc_via[arc]:
                    continue
                if weight != old_weight:
                    for dependent in dep_arcs[dep_indptr[arc] : dep_indptr[arc + 1]].tolist():
                        if dependent not in queued:
                            queued.add(dependent)
                            heappush(heap, (level[dependent], dependent))
                    if up_row_of[arc] >= 0:
                        dirty_up_rows.add(source[arc])
                    else:
                        dirty_down_rows.add(target[arc])
                arc_weight[arc] = weight
                arc_via[arc] = via
                touched += 1
            self._base = new_base
            if touched:
                weight_list = arc_weight.tolist()
                up_indptr, up_targets = self.up_indptr, self.up_targets
                up_arcs = self.up_arcs
                down_indptr = self.down_indptr
                down_sources, down_arcs = self.down_sources, self.down_arcs
                if dirty_up_rows:
                    up_rows = up_rows.copy()
                    for row in dirty_up_rows:
                        up_rows[row] = [
                            (up_targets[i], weight_list[up_arcs[i]])
                            for i in range(up_indptr[row], up_indptr[row + 1])
                        ]
                if dirty_down_rows:
                    down_rows = down_rows.copy()
                    for row in dirty_down_rows:
                        down_rows[row] = [
                            (down_sources[i], weight_list[down_arcs[i]])
                            for i in range(down_indptr[row], down_indptr[row + 1])
                        ]
                self._state = (version + 1, arc_weight, arc_via, up_rows, down_rows)
                self.reweight_count += 1
            return touched

    def _reweight_full(self, new_base: np.ndarray) -> int:
        """Wide-diff re-weight: vectorized full customization (lock held)."""
        version, old_weight, old_via, _, _ = self._state
        arc_weight, arc_via = self._customize_full(new_base)
        # Lock discipline: the only caller is reweight(), which already
        # holds self._lock around this whole call.
        self._base = new_base  # reprolint: disable=RL002
        touched = int(np.count_nonzero(arc_weight != old_weight))
        if touched == 0 and arc_via == old_via:
            return 0
        up_rows, down_rows = self._rows(arc_weight.tolist())
        # reprolint: disable-next-line=RL002 — reweight() holds self._lock here.
        self._state = (version + 1, arc_weight, arc_via, up_rows, down_rows)
        self.reweight_count += 1
        return max(touched, 1)

    # ------------------------------------------------------------------ #
    # Elimination-tree hub labels (lazy, memoized per weights version)
    # ------------------------------------------------------------------ #
    def _label_caches(self, state: tuple) -> tuple[dict, dict]:
        """The per-version label caches (forward, backward) for ``state``."""
        labels = self._labels
        if labels is None or labels[0] != state[0]:
            # GIL-atomic swap of an immutable tuple; a racing query on the
            # same fresh version may duplicate a little work, and either
            # cache is correct — taking the re-weight lock here would stall
            # every warm-cache query behind it.
            labels = (state[0], {}, {})
            self._labels = labels  # reprolint: disable=RL002
        return labels[1], labels[2]

    def _ensure_labels(self, vertex: int, rows: list, cache: dict) -> tuple:
        """Build (memoized) labels for ``vertex`` and its ancestors.

        The label of a vertex is the exact distance (and first-hop parent)
        to every ancestor on its root path: a DP over its upward arcs, whose
        lower endpoints' labels cover aligned suffixes of the same path.
        ``rows`` picks the direction (up rows: distances *to* ancestors;
        down rows: distances *from* ancestors).
        """
        depth = self.depth
        for u in reversed(self.paths[vertex]):
            if u in cache:
                continue
            d = depth[u]
            dist = np.full(d, np.inf, dtype=np.float64)
            dist[0] = 0.0
            parent = np.full(d, -1, dtype=np.int32)
            for w, weight in rows[u]:
                position = d - depth[w]
                candidate = cache[w][0] + weight
                segment = dist[position:]
                mask = candidate < segment
                if mask.any():
                    segment[mask] = candidate[mask]
                    parent_segment = parent[position:]
                    parent_segment[mask] = w
            cache[u] = (dist, parent)
        return cache[vertex]

    def _label_search(
        self, source: int, destination: int, state: tuple
    ) -> tuple[float, int, dict, dict]:
        """Best meeting cost and apex path-position for one query."""
        cache_f, cache_b = self._label_caches(state)
        dist_f, _ = self._ensure_labels(source, state[3], cache_f)
        dist_b, _ = self._ensure_labels(destination, state[4], cache_b)
        path_f = self.paths[source]
        path_b = self.paths[destination]
        a, b = len(path_f), len(path_b)
        limit = a if a < b else b
        overlap = 0
        while overlap < limit and path_f[a - 1 - overlap] == path_b[b - 1 - overlap]:
            overlap += 1
        if overlap == 0:  # different components
            return _INF, -1, cache_f, cache_b
        sums = dist_f[a - overlap :] + dist_b[b - overlap :]
        apex = int(np.argmin(sums))
        return float(sums[apex]), a - overlap + apex, cache_f, cache_b

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query_cost(self, source: int, destination: int) -> float:
        """Shortest-path cost between dense indices (``inf`` if unreachable)."""
        if source == destination:
            return 0.0
        best, _, _, _ = self._label_search(source, destination, self._state)
        return best

    def query_indices(self, source: int, destination: int) -> list[int] | None:
        """Fully unpacked vertex-index path, or ``None`` when unreachable."""
        if source == destination:
            return [source]
        state = self._state
        best, apex_position, cache_f, cache_b = self._label_search(
            source, destination, state
        )
        if best == _INF:
            return None
        path_f = self.paths[source]
        apex = path_f[apex_position]
        depth = self.depth
        # Forward contracted path source -> apex via stored first hops.
        forward = [source]
        v = source
        position = apex_position
        while position > 0:
            w = int(cache_f[v][1][position])
            if w < 0:  # pragma: no cover - guarded by the finite best above
                return None
            position -= depth[v] - depth[w]
            v = w
            forward.append(v)
        # Backward contracted path apex -> destination, reconstructed from
        # the destination's label (last hops), then reversed into place.
        backward = [destination]
        v = destination
        position = len(self.paths[destination]) - (depth[apex])
        # apex sits at position len(path_b) - depth(apex) in path(destination)
        while position > 0:
            u = int(cache_b[v][1][position])
            if u < 0:  # pragma: no cover - guarded by the finite best above
                return None
            position -= depth[v] - depth[u]
            v = u
            backward.append(v)
        backward.reverse()
        return self._unpack(forward + backward[1:], state[2])

    def _unpack(self, contracted: list[int], arc_via: list[int]) -> list[int]:
        """Expand shortcut via-chains back into original vertices."""
        arc_index = self.arc_index
        out = [contracted[0]]
        stack: list[tuple[int, int]] = []
        for i in range(len(contracted) - 1, 0, -1):
            stack.append((contracted[i - 1], contracted[i]))
        while stack:
            u, w = stack.pop()
            via = arc_via[arc_index[(u, w)]]
            if via < 0:
                out.append(w)
            else:
                stack.append((via, w))
                stack.append((u, via))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledHierarchy(vertices={self.topology.vertex_count}, "
            f"arcs={self.arc_count}, weights_version={self.weights_version}, "
            f"reweights={self.reweight_count})"
        )

