"""The landmark corridor's per-cell bound (``LandmarkTable.cell_bounds``).

The bounded first attempt prunes every vertex of a cell whose bound on
``d(s, v) + d(v, t)`` clears the search limit, so the bound must hold for
every member of the cell at once.  Checked against the dict-based reference
costs on directed grids with one-way streets, an unreachable pocket, and
unit weights (ties everywhere), through rise-only traffic batches and a
fall that rescales the table's twin; cells are made large on these small
grids so that most cells have several members.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network import RoadNetwork, RoadType, grid_city_network
from repro.network.compiled import landmarks
from repro.network.compiled.sparse import _CORRIDOR_SLACK
from repro.routing import CostFeature, cost_function, dict_dijkstra_costs

FEATURES = (CostFeature.TRAVEL_TIME, CostFeature.DISTANCE)


def _grid(rows, cols, seed, one_way_share, pocket, unit):
    """A directed grid: each street is one-way with ``one_way_share``
    probability; ``pocket`` adds three vertices that reach the grid but are
    reached from nowhere; ``unit`` gives every edge the same weights."""
    rng = random.Random(seed)
    network = RoadNetwork(name=f"cells-{seed}")
    for r in range(rows):
        for c in range(cols):
            jitter = 0.0 if unit else rng.random() * 0.0004
            network.add_vertex(r * cols + c, lon=10.0 + c * 0.001 + jitter, lat=56.0 + r * 0.001)
    weights = {"distance_m": 100.0, "travel_time_s": 10.0} if unit else {}
    road_types = [RoadType.RESIDENTIAL, RoadType.PRIMARY, RoadType.MOTORWAY]
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            for v in ([u + 1] if c + 1 < cols else []) + ([u + cols] if r + 1 < rows else []):
                if rng.random() < one_way_share:
                    u_, v_ = (u, v) if rng.random() < 0.5 else (v, u)
                    network.add_edge(u_, v_, rng.choice(road_types), **weights)
                else:
                    network.add_edge(u, v, rng.choice(road_types), bidirectional=True, **weights)
    if pocket:
        first = rows * cols
        for i in range(3):
            network.add_vertex(first + i, lon=9.99, lat=56.0 + i * 0.001)
        network.add_edge(first, first + 1, bidirectional=True, **weights)
        network.add_edge(first + 1, first + 2, bidirectional=True, **weights)
        network.add_edge(first + 2, 0, **weights)  # out of the pocket only
    return network


@st.composite
def grids(draw):
    kind = draw(st.sampled_from(["one-way", "pocket", "unit"]))
    rows = draw(st.integers(min_value=4, max_value=8))
    cols = draw(st.integers(min_value=4, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if kind == "one-way":
        return _grid(rows, cols, seed, one_way_share=0.3, pocket=False, unit=False)
    if kind == "pocket":
        return _grid(rows, cols, seed, one_way_share=0.1, pocket=True, unit=False)
    return _grid(rows, cols, seed, one_way_share=0.0, pocket=False, unit=True)


def _members(graph, table):
    """Every (cell, vertex) pair the prune mask reads: the head of each slot."""
    return np.asarray(table.slot_cell), np.asarray(graph.targets, dtype=np.int64)


def _assert_cell_bounds_hold(network, cost, pairs):
    graph = network.compiled()
    key, array, version = graph.resolve_cost(cost)
    table = graph.landmark_table(key, array, version)
    assert table is not None
    ids = graph.vertex_ids
    cells, heads = _members(graph, table)
    dist = {v: dict_dijkstra_costs(network, v, cost) for v in ids}
    for s, t in pairs:
        bounds = table.cell_bounds(s, t)
        through = np.array(
            [
                dist[ids[s]].get(ids[v], math.inf) + dist[ids[v]].get(ids[t], math.inf)
                for v in heads
            ]
        )
        admissible = bounds[cells] <= through * _CORRIDOR_SLACK
        assert admissible.all(), (s, t, heads[~admissible].tolist())
        # No looser than any member's own bound over the same landmarks:
        # what a vertex-level corridor keeps, the cell corridor keeps too.
        rows = table.rows
        with np.errstate(invalid="ignore"):
            own = np.fmax.reduce(rows[heads] - rows[s], axis=1, initial=0.0)
            own += np.fmax.reduce(rows[t] - rows[heads], axis=1, initial=0.0)
        assert (bounds[cells] <= own * table.scale).all()
        lower = table.pair_bounds(s, t)[0]
        assert lower <= dist[ids[s]].get(ids[t], math.inf) * _CORRIDOR_SLACK
    return table


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    grids(),
    st.sampled_from(FEATURES),
    st.integers(min_value=2, max_value=8),
    st.lists(st.floats(min_value=1.0, max_value=3.0), min_size=1, max_size=3),
    st.floats(min_value=0.55, max_value=0.95),
    st.randoms(use_true_random=False),
)
def test_cell_bound_never_exceeds_the_reference_through_cost(
    network, feature, min_cells, rises, fall, rng
):
    cost = cost_function(feature)
    attribute = "travel_time_s" if feature is CostFeature.TRAVEL_TIME else "distance_m"
    n = network.vertex_count
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(6)]
    edges = sorted(edge.key for edge in network.edges())
    built = {key: getattr(network.edge(*key), attribute) for key in edges}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(landmarks, "MIN_CELLS", min_cells)  # several members per cell
        table = _assert_cell_bounds_hold(network, cost, pairs)
        assert len(np.unique(table.slot_cell)) < n
        for factor in rises:  # rise-only batches: the same table, bounds unscaled
            touched = rng.sample(edges, max(1, len(edges) // 4))
            network.update_edge_costs(
                {
                    key: {attribute: getattr(network.edge(*key), attribute) * factor}
                    for key in touched
                }
            )
            assert _assert_cell_bounds_hold(network, cost, pairs) is table
        key = rng.choice(edges)  # one fall below the build cost: a rescaled twin
        network.update_edge_costs({key: {attribute: built[key] * fall}})
        twin = _assert_cell_bounds_hold(network, cost, pairs)
        assert twin is not table and twin.rows is table.rows
        assert twin.scale == pytest.approx(fall)


def test_cells_partition_the_vertices_and_range_their_rows():
    network = grid_city_network(rows=40, cols=40, seed=5)
    graph = network.compiled()
    key, array, version = graph.resolve_cost(cost_function(CostFeature.TRAVEL_TIME))
    table = graph.landmark_table(key, array, version)
    n = graph.vertex_count
    size = min(landmarks.CELL_SIZE, n // landmarks.MIN_CELLS)
    cells, heads = _members(graph, table)
    assert table.slot_cell.dtype == np.int32
    cell_of = np.full(n, -1)
    cell_of[heads] = cells
    assert (cell_of >= 0).all()  # every grid vertex has an in-edge
    assert (cell_of[heads] == cells).all()  # one cell per vertex
    counts = np.bincount(cell_of)
    assert counts.max() <= size and counts.min() >= size // 2
    assert table.low.shape == table.high.shape == (2 * table.count, len(counts))
    members = table.rows.T
    assert (table.low[:, cell_of] <= members).all() and (members <= table.high[:, cell_of]).all()
    grouped = members[:, np.argsort(cell_of, kind="stable")]
    assert (table.low == np.minimum.reduceat(grouped, np.cumsum(counts) - counts, axis=1)).all()


# -------------------------------------------------------------------- #
# The in-place build against the stacked construction it replaced
# -------------------------------------------------------------------- #
def _stacked_select(graph, key, array, version, count):
    """The former selection: forward rows kept in a list, then stacked."""
    seed = landmarks._seed_index(graph)
    seed_row = landmarks.batch.dijkstra_many(graph, key, array, version, [seed])[0]
    first = int(np.argmax(np.where(np.isfinite(seed_row), seed_row, -1.0)))
    chosen = [first]
    rows = [landmarks.batch.dijkstra_many(graph, key, array, version, [first])[0]]
    min_dist = rows[0].copy()
    while len(chosen) < count:
        candidates = np.where(np.isfinite(min_dist), min_dist, -1.0)
        candidates[chosen] = -1.0
        nxt = int(np.argmax(candidates))
        if candidates[nxt] <= 0.0:
            nxt = landmarks._uncovered_seed(graph, min_dist, chosen)
            if nxt < 0:
                break
        chosen.append(nxt)
        row = landmarks.batch.dijkstra_many(graph, key, array, version, [nxt])[0]
        rows.append(row)
        np.minimum(min_dist, row, out=min_dist)
    return chosen, np.vstack(rows)


def _stacked_cells(graph, potentials):
    """The former ``_cells``, over the ``(2k, n)`` stacked potentials."""
    n = potentials.shape[1]
    size = max(1, min(landmarks.CELL_SIZE, n // landmarks.MIN_CELLS))
    far = 2.0 * float(np.abs(potentials).max(initial=0.0, where=np.isfinite(potentials))) + 1
    points = np.clip(potentials, -far, far).astype(np.float32)
    order = np.arange(n)
    everyone = np.arange(n)
    starts = np.zeros(1, dtype=np.int64)
    while (sizes := np.diff(starts, append=n)).max() > size:
        split = sizes > size
        spread = np.maximum.reduceat(points, starts, axis=1)
        spread -= np.minimum.reduceat(points, starts, axis=1)
        group = np.repeat(np.arange(len(starts)), sizes)
        value = points[spread.argmax(axis=0)[group], everyone]
        perm = np.argsort(group * (4.0 * far) + value)
        order = order[perm]
        points = points.take(perm, axis=1)
        starts = np.sort(np.concatenate((starts, (starts + (sizes + 1) // 2)[split])))
    cell_of = np.empty(n, dtype=np.int32)
    cell_of[order] = np.repeat(np.arange(len(starts), dtype=np.int32), np.diff(starts, append=n))
    grouped = potentials.take(order, axis=1)
    low = np.minimum.reduceat(grouped, starts, axis=1)
    high = np.maximum.reduceat(grouped, starts, axis=1)
    return low, high, cell_of.take(landmarks.slot_targets(graph))


def _stacked_build(graph, key, array, version, count):
    count = min(count or landmarks.DEFAULT_LANDMARK_COUNT, graph.vertex_count)
    chosen, dist_from = _stacked_select(graph, key, array, version, count)
    dist_to = landmarks.batch.dijkstra_many(graph, key, array, version, chosen, reverse=True)
    potentials = np.vstack((dist_from, np.negative(dist_to, out=dist_to)))
    return chosen, np.ascontiguousarray(potentials.T), _stacked_cells(graph, potentials)


def _with_isolated(network, count):
    """``network`` plus ``count`` vertices without edges, which selection
    cannot reach or start from: it stops short of the requested count."""
    first = max(network.vertex_ids()) + 1
    for i in range(count):
        network.add_vertex(first + i, lon=9.9, lat=56.0 + i * 0.001)
    return network


def _bitwise_equal(left, right):
    return left.dtype == right.dtype and left.shape == right.shape and left.tobytes() == right.tobytes()


@pytest.mark.parametrize(
    "network, count, built",
    [
        (grid_city_network(rows=40, cols=40, seed=5), None, 8),
        (grid_city_network(rows=25, cols=25, seed=9), 5, 5),
        (_grid(7, 6, 11, one_way_share=0.3, pocket=True, unit=False), None, 8),
        (_grid(5, 5, 4, one_way_share=0.0, pocket=False, unit=True), 3, 3),
        # Fewer landmarks than asked for: the table is cut down to 2k columns.
        (_with_isolated(_grid(3, 3, 1, one_way_share=0.0, pocket=False, unit=False), 4), 12, 9),
    ],
    ids=["grid-40", "grid-25-k5", "pocket", "unit", "capped"],
)
@pytest.mark.parametrize("feature", FEATURES)
def test_in_place_build_is_bit_identical_to_the_stacked_one(network, count, built, feature):
    graph = network.compiled()
    key, array, version = graph.resolve_cost(cost_function(feature))
    table = landmarks.build_landmark_table(graph, key, array, version, count=count)
    chosen, rows, (low, high, slot_cell) = _stacked_build(graph, key, array, version, count)
    assert table.indices == chosen and table.count == built
    assert table.rows.flags.c_contiguous and table.low.flags.c_contiguous
    assert _bitwise_equal(table.rows, rows)
    assert _bitwise_equal(table.low, low)
    assert _bitwise_equal(table.high, high)
    assert _bitwise_equal(table.slot_cell, slot_cell)
