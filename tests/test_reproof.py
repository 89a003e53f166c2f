"""Traffic invalidation keeps a cached route only while it provably stays the
reference path.

After a batch that only raised costs, ``RouteCache.invalidate_edges`` keeps
an entry whose path crosses a raised edge when the re-proof its search left
(per path vertex, the cheapest arrival over every other in-edge) still beats
the path's running sum at the live costs.  The contract checked here is the
strongest one: every answer the service gives — a hit on a kept entry
included — *is* the path the dict-based reference Dijkstra returns at the
live costs, vertex for vertex, on a jittered grid and on an unjittered one
where equal costs make ties common, with the landmark corridor forced on,
forced on with most attempts falling back to the full search, and off.
"""

from __future__ import annotations

import copy
import math
import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FastestBaseline, ShortestBaseline
from repro.network import grid_city_network
from repro.network.compiled import compiled_disabled, dispatch, sparse
from repro.network.compiled.graph import EDGE_COST_ATTRIBUTES
from repro.routing import CostFeature, cost_function, dict_dijkstra_costs, fastest_path, shortest_path
from repro.service import RouteRequest, RoutingService
from repro.traffic import TrafficFeed, TrafficUpdate

ENGINES = {"Fastest": fastest_path, "Shortest": shortest_path}
ATTRIBUTES = {"Fastest": "travel_time_s", "Shortest": "distance_m"}
ODS = 8  # the first half anywhere, the second half along a row or a column

#: A rise is a factor or an added whole number.  On the grid with whole
#: costs (``ties``: every distance is 250) added whole numbers keep every
#: path sum exact, so a raised path's sum lands exactly on another path's
#: arrival — a block's detour adds 500 — the ties the strict ``<`` of the
#: re-proof is for.
rises = st.one_of(
    st.tuples(st.just("scale"), st.one_of(st.sampled_from([1.5, 2.0, 3.0]), st.floats(1.001, 2.5))),
    st.tuples(
        st.just("shift"),
        st.one_of(st.sampled_from([10.0, 250.0, 500.0]), st.integers(1, 40).map(float)),
    ),
)
engines = st.sampled_from(sorted(ENGINES))
actions = st.lists(
    st.one_of(
        # Serve one of a few ODs, so that later requests hit the cache.
        st.tuples(st.just("route"), engines, st.integers(0, ODS - 1)),
        # Raise hops of the path last served for an OD: crossing rises, and
        # repeated rises of one edge when the same hop is drawn again.
        st.tuples(
            st.just("rise_on_path"),
            engines,
            st.integers(0, ODS - 1),
            st.lists(st.tuples(st.floats(0.0, 1.0), rises), min_size=1, max_size=3),
        ),
        # Raise arbitrary edges: mostly off every path.
        st.tuples(
            st.just("rise"),
            st.lists(st.tuples(st.integers(0, 10_000), engines, rises), min_size=1, max_size=6),
        ),
    ),
    min_size=4,
    max_size=40,
)


def _network(kind: str):
    """``jittered``: a 7x7 grid city; ``ties``: the same grid unjittered,
    with every cost rounded up to a whole number (a rise-only batch, applied
    before anything is cached), so that equal path sums are common."""
    if kind == "jittered":
        return grid_city_network(rows=7, cols=7, seed=3)
    network = grid_city_network(rows=7, cols=7, seed=3, jitter=0.0)
    network.update_edge_costs(
        {
            edge.key: {name: math.ceil(getattr(edge, name)) for name in EDGE_COST_ATTRIBUTES}
            for edge in network.edges()
        }
    )
    return network


def _update(edge, attribute: str, rise) -> TrafficUpdate:
    kind, amount = rise
    make = TrafficUpdate.scale_by if kind == "scale" else TrafficUpdate.shift
    return make(*edge, **{attribute: amount})


def _service(network) -> RoutingService:
    service = RoutingService(cache_size=64)
    service.register("Fastest", FastestBaseline(network).as_engine(), default=True)
    service.register("Shortest", ShortestBaseline(network).as_engine())
    return service


def _corridor(monkeypatch: pytest.MonkeyPatch, mode: str) -> None:
    """``on``: every graph takes the corridor attempt; ``tight``: its limit
    sits at the lower bound, so most attempts miss the destination and fall
    back to the full search."""
    if mode != "off":
        monkeypatch.setattr(dispatch, "BOUNDED_DIJKSTRA_MIN_VERTICES", 0)
    if mode == "tight":
        monkeypatch.setattr(sparse, "CORRIDOR_RATIO", 1.0)


def _reference(network, engine: str, request: RouteRequest):
    with compiled_disabled():
        return ENGINES[engine](network, request.source, request.destination)


def _run(kind: str, corridor: str, steps) -> tuple[int, int]:
    """Play ``steps``; every answer must be the live reference path.
    Returns (cache hits, entries kept by re-proof)."""
    network = _network(kind)
    service = _service(network)
    feed = TrafficFeed(network, services=[service])
    ids = sorted(network.vertex_ids())
    edges = [edge.key for edge in network.edges()]
    # Half of the ODs share a row or a column: on the unjittered grid every
    # detour from their straight path costs the same two extra blocks.
    requests = [
        RouteRequest(ids[(7 * i + 3) % len(ids)], ids[(11 * i + 29) % len(ids)])
        for i in range(ODS // 2)
    ] + [RouteRequest(ids[s], ids[d]) for s, d in ((14, 20), (41, 35), (3, 45), (43, 1))]
    served: dict[tuple[str, int], tuple] = {}
    hits = 0
    with pytest.MonkeyPatch.context() as monkeypatch:
        _corridor(monkeypatch, corridor)
        for step in steps:
            if step[0] == "route":
                _, engine, od = step
                response = service.route(requests[od], engine)
                expected = _reference(network, engine, requests[od])
                assert response.path.vertices == expected.vertices, (step, response.cache_hit)
                hits += response.cache_hit
                served[engine, od] = response.path.edge_keys
                continue
            if step[0] == "rise_on_path":
                _, engine, od, picks = step
                hops = served.get((engine, od))
                if not hops:
                    continue
                raised = {hops[int(at * (len(hops) - 1))]: rise for at, rise in picks}
                updates = [_update(edge, ATTRIBUTES[engine], rise) for edge, rise in raised.items()]
            else:
                # One update per edge: a second draw of an edge replaces the first.
                raised = {edges[index % len(edges)]: (engine, rise) for index, engine, rise in step[1]}
                updates = [
                    _update(edge, ATTRIBUTES[engine], rise) for edge, (engine, rise) in raised.items()
                ]
            feed.apply(updates)
    assert network.cost_fell_version == 0  # rises only: nothing dropped the cache
    return hits, service.stats().traffic_reproved_routes


@pytest.mark.parametrize("corridor", ["off", "on", "tight"])
@pytest.mark.parametrize("kind", ["jittered", "ties"])
@settings(max_examples=60, deadline=None)
@given(steps=actions)
def test_every_answer_is_the_live_reference_path(kind, corridor, steps):
    _run(kind, corridor, steps)


@pytest.mark.parametrize("corridor", ["off", "on", "tight"])
@pytest.mark.parametrize("kind", ["jittered", "ties"])
def test_a_fixed_schedule_keeps_entries_it_replays(kind, corridor):
    """The property is not vacuous: a fixed schedule of crossing rises keeps
    entries by re-proof and then serves them as hits."""
    # The two row- and column-aligned Shortest ODs (4 and 6) are first raised
    # by a two-block detour's cost: ties on the unjittered grid.
    rises = [("scale", 1.02), ("shift", 500.0), ("scale", 1.3), ("shift", 7.0), ("shift", 500.0)]
    steps = []
    for round_ in range(12):
        for od in range(ODS):
            steps.append(("route", "Fastest" if od % 2 else "Shortest", od))
        for od in range(ODS):
            engine = "Fastest" if od % 2 else "Shortest"
            rise = rises[(round_ + od) % len(rises)]
            steps.append(("rise_on_path", engine, od, [((round_ * 0.37 + od * 0.21) % 1.0, rise)]))
    hits, kept = _run(kind, corridor, steps)
    assert kept > 0
    assert hits > ODS


# --------------------------------------------------------------------------- #
# The kernel's two numpy passes against plain loops
# --------------------------------------------------------------------------- #
def _search(network, source, destination, corridor: bool):
    """``(path, hops, margins)`` of one compiled search under travel time."""
    graph = network.compiled()
    key, array, version = graph.resolve_cost(cost_function(CostFeature.TRAVEL_TIME))
    table = graph.landmark_table(key, array, version) if corridor else None
    s, t = graph.index_of[source], graph.index_of[destination]
    return sparse.shortest_path_indices(graph, key, array, s, t, version, table, True)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1_000), jittered=st.booleans())
def test_margins_are_the_other_in_edges_cheapest_arrivals(seed, jittered):
    """Full search: each margin is the least ``dist[u] + w`` over the head's
    in-edges but the hop, as a loop over the dict network computes it.  A
    corridor search may only lower a margin, never raise it."""
    network = grid_city_network(rows=6, cols=6, seed=seed, jitter=0.15 if jittered else 0.0)
    graph = network.compiled()
    ids = sorted(network.vertex_ids())
    rng = random.Random(seed)
    source, destination = rng.sample(ids, 2)
    path, hops, margins = _search(network, source, destination, corridor=False)
    cost = cost_function(CostFeature.TRAVEL_TIME)
    dist = dict_dijkstra_costs(network, graph.vertex_ids[path[0]], cost)
    vertices = graph.path_ids(path)
    expected = [
        min(
            (dist[u] + cost(edge) for u, edge in network.predecessors(v).items() if u != before),
            default=math.inf,
        )
        for before, v in zip(vertices, vertices[1:])
    ]
    assert margins.tolist() == expected
    assert hops.tolist() == [graph.topology.slot_of[hop] for hop in zip(vertices, vertices[1:])]
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(sparse, "CORRIDOR_MAX_SPAN", math.inf)
        bounded = _search(network, source, destination, corridor=True)
    assert bounded[0] == path and bounded[1].tolist() == hops.tolist()
    assert (bounded[2] <= margins).all()


@settings(max_examples=60, deadline=None)
@given(
    paths=st.lists(
        st.tuples(
            st.lists(st.integers(0, 29), min_size=1, max_size=12),
            st.lists(st.floats(0.5, 400.0), min_size=12, max_size=12),
        ),
        min_size=1,
        max_size=6,
    ),
    costs=st.lists(st.floats(0.1, 50.0), min_size=30, max_size=30),
)
def test_still_reference_is_the_left_to_right_fold(paths, costs):
    """Zero-padded row ``cumsum`` == Python's left fold, path by path, for
    paths of different lengths in one call."""
    array = np.array(costs, dtype=np.float64)
    hops = [np.array(slots, dtype=np.int32) for slots, _ in paths]
    margins = [np.array(bounds[: len(slots)]) for slots, bounds in paths]
    expected = [
        all(total < bound for total, bound in zip(accumulate(costs[i] for i in slots), bounds))
        for slots, bounds in paths
    ]
    assert sparse.still_reference(array, hops, margins).tolist() == expected


# --------------------------------------------------------------------------- #
# What is still evicted
# --------------------------------------------------------------------------- #
def _crossing_rise(feed, response, attribute="travel_time_s", factor=1.001):
    """A barely-there rise of the first hop of ``response``'s path."""
    feed.apply([TrafficUpdate.scale_by(*response.path.edge_keys[0], **{attribute: factor})])


class TestWhatStillGoes:
    def test_a_mild_crossing_rise_is_kept(self):
        """The control for the cases below: the same rise on the same route,
        with nothing else going on, keeps the entry."""
        network = grid_city_network(rows=7, cols=7, seed=3)
        service = _service(network)
        feed = TrafficFeed(network, services=[service])
        request = RouteRequest(0, 48)
        _crossing_rise(feed, service.route(request))
        assert service.stats().traffic_evicted_routes == 0
        assert service.stats().traffic_reproved_routes == 1
        assert service.route(request).cache_hit

    def test_a_cost_fall_still_empties_the_cache(self):
        network = grid_city_network(rows=7, cols=7, seed=3)
        service = _service(network)
        feed = TrafficFeed(network, services=[service])
        routes = [service.route(RouteRequest(0, 48)), service.route(RouteRequest(6, 42))]
        on_path = {hop for route in routes for hop in route.path.edge_keys}
        off_path = next(edge.key for edge in network.edges() if edge.key not in on_path)
        feed.apply([TrafficUpdate.scale_by(*off_path, travel_time_s=0.5)])
        assert service.stats().cache.size == 0
        assert service.stats().traffic_evicted_routes == 2
        assert service.stats().traffic_reproved_routes == 0

    def test_a_topology_change_refuses_re_proof(self):
        network = grid_city_network(rows=7, cols=7, seed=3)
        service = _service(network)
        feed = TrafficFeed(network, services=[service])
        request = RouteRequest(0, 48)
        response = service.route(request)
        network.add_edge(0, 48)  # the cached snapshot is no longer the network's
        _crossing_rise(feed, response)
        assert service.stats().traffic_evicted_routes == 1
        assert service.stats().traffic_reproved_routes == 0
        assert not service.route(request).cache_hit

    def test_l2r_entries_still_go(self, fitted_l2r):
        pipeline = copy.deepcopy(fitted_l2r)
        service = RoutingService()
        service.register("L2R", pipeline.as_engine(), default=True)
        feed = TrafficFeed(pipeline.network, services=[service])
        ids = sorted(pipeline.network.vertex_ids())
        request = RouteRequest(ids[0], ids[-1])
        response = service.route(request)
        assert len(response.path) > 1
        _crossing_rise(feed, response)
        assert service.stats().traffic_evicted_routes == 1
        assert service.stats().traffic_reproved_routes == 0
        assert not service.route(request).cache_hit

    def test_re_registered_engine_entries_still_go(self):
        network = grid_city_network(rows=7, cols=7, seed=3)
        service = _service(network)
        request = RouteRequest(0, 48)
        service.route(request)
        service.register("Fastest", FastestBaseline(network).as_engine(), default=True)
        assert service.stats().cache.size == 0 and not service._cache._proofs
        assert not service.route(request).cache_hit

    def test_a_rise_onto_an_exact_tie_evicts(self):
        """Along row 2 of the grid with whole costs every detour costs 500
        more.  Raising the third hop by 500 ties the path's sum with the
        detour through row 1 at every later vertex: the margins equal the
        sums there, so the strict ``<`` evicts — and rightly, since the
        reference now takes the detour (its vertices have the smaller ids)."""
        network = _network("ties")
        service = _service(network)
        feed = TrafficFeed(network, services=[service])
        request = RouteRequest(14, 20)
        cached = service.route(request, "Shortest")
        assert cached.path.vertices == tuple(range(14, 21))
        feed.apply([TrafficUpdate.shift(16, 17, distance_m=500.0)])
        assert service.stats().traffic_evicted_routes == 1
        again = service.route(request, "Shortest")
        assert not again.cache_hit
        assert again.path.vertices != cached.path.vertices
        assert again.path.vertices == _reference(network, "Shortest", request).vertices

    def test_a_travel_time_batch_keeps_crossing_shortest_entries(self):
        """Their cost view did not move, so the re-proof passes: a Shortest
        route crossing every raised edge is still the distance reference."""
        network = grid_city_network(rows=7, cols=7, seed=3)
        service = _service(network)
        feed = TrafficFeed(network, services=[service])
        request = RouteRequest(0, 48)
        response = service.route(request, "Shortest")
        feed.apply(
            [TrafficUpdate.scale_by(*hop, travel_time_s=2.0) for hop in response.path.edge_keys]
        )
        assert service.stats().traffic_evicted_routes == 0
        assert service.stats().traffic_reproved_routes == 1
        again = service.route(request, "Shortest")
        assert again.cache_hit
        assert again.path.vertices == _reference(network, "Shortest", request).vertices
