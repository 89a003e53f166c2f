"""The route cache's vertex index evicts what a scan of every path would.

``RouteCache.invalidate_edges`` finds the routes crossing a touched edge
through an inverted index *vertex -> entries whose path visits it* instead of
walking the cache.  These tests keep the deleted scan as the reference: after
every operation that can create or destroy an entry the live entries equal a
plain LRU model's, each edge invalidation drops exactly the scan's set, and
the index holds exactly the vertices of the live entries.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FastestBaseline
from repro.network import compiled_disabled, grid_city_network
from repro.routing import CostFeature, Path, cost_function, dict_dijkstra_costs, fastest_path
from repro.service import RouteCache, RouteRequest, RouteResponse, RoutingService
from repro.service.cache import _REVISITED
from repro.traffic import TrafficFeed, TrafficUpdate

MAX_SIZE = 3
ENGINES = ("A", "B", "C")
REQUESTS = [RouteRequest(source=s, destination=d) for s, d in ((0, 1), (1, 0), (2, 5), (4, 4))]


def scan_reference(entries, edges, threshold):
    """The keys the per-entry path scan this index replaced would drop."""
    touched = set(edges)
    if not touched:
        return set()
    if threshold is not None and len(touched) > threshold:
        return set(entries)
    return {
        key
        for key, response in entries.items()
        if any(hop in touched for hop in response.path.edge_keys)
    }


def assert_index_is_exact(cache: RouteCache) -> None:
    """Tokens and keys are one-to-one over the live entries, a vertex's map
    names exactly the entries whose path visits it with the vertex the path
    takes next (the revisit marker where it leaves by two hops), and every
    re-proof belongs to a live entry."""
    entries = cache._entries
    assert set(cache._tokens) == set(entries)
    assert {token: key for key, token in cache._tokens.items()} == cache._keys
    expected: dict[object, dict[object, object]] = {}
    for key, response in entries.items():
        vertices = response.path.vertices
        for vertex, successor in zip(vertices, vertices[1:] + (None,)):
            at_vertex = expected.setdefault(vertex, {})
            if at_vertex.setdefault(key, successor) != successor:
                at_vertex[key] = _REVISITED
    indexed = {
        vertex: {cache._keys[token]: successor for token, successor in tokens.items()}
        for vertex, tokens in cache._visits.items()
    }
    assert indexed == expected
    assert set(cache._proofs) <= set(cache._keys)  # re-proofs only of live entries


# --------------------------------------------------------------------------- #
# Sequences of every operation against an LRU model and the scan
# --------------------------------------------------------------------------- #
vertices = st.integers(min_value=0, max_value=6)
# Repeats are allowed: a path need not be simple, and on seven vertices the
# reverse of most hops is on some other path.
paths = st.lists(vertices, min_size=1, max_size=7).map(Path.of)
edge_sets = st.sets(st.tuples(vertices, vertices), max_size=5)
puts = st.tuples(
    st.just("put"),
    st.sampled_from(ENGINES),
    st.integers(0, len(REQUESTS) - 1),
    st.integers(0, 5),
    st.sampled_from(ENGINES),
)
# Mostly puts: LRU overflow needs a run of them between two whole-cache drops.
operations = st.one_of(
    *[puts] * 8,
    st.tuples(st.just("get"), st.sampled_from(ENGINES), st.integers(0, len(REQUESTS) - 1)),
    st.tuples(st.just("edges"), edge_sets, st.sampled_from([None, None, 0, 2, 64])),
    st.tuples(st.just("clear")),
)


class TestIndexedCacheEqualsScannedModel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(paths, min_size=6, max_size=6), st.lists(operations, min_size=15, max_size=50))
    def test_every_operation_sequence(self, pool, sequence):
        cache = RouteCache(max_size=MAX_SIZE)
        model: OrderedDict[object, RouteResponse] = OrderedDict()
        for operation in sequence:
            kind = operation[0]
            if kind == "put":
                _, engine, request, path, answered_by = operation
                # ``pool[path]`` is one Path object however many keys hold it.
                response = RouteResponse(
                    request=REQUESTS[request], path=pool[path], engine=answered_by
                )
                cache.put(engine, response)
                key = cache.key_for(engine, REQUESTS[request])
                model[key] = response
                model.move_to_end(key)
                while len(model) > MAX_SIZE:
                    model.popitem(last=False)
            elif kind == "get":
                _, engine, request = operation
                key = cache.key_for(engine, REQUESTS[request])
                hit = cache.get(engine, REQUESTS[request])
                assert (hit is None) == (key not in model)
                if hit is not None:
                    assert hit.path is model[key].path
                    model.move_to_end(key)
            elif kind == "edges":
                _, edges, threshold = operation
                stale = scan_reference(model, edges, threshold)
                assert cache.invalidate_edges(edges, threshold=threshold) == len(stale)
                for key in stale:
                    del model[key]
            else:
                cache.clear()
                model.clear()
            assert list(cache._entries.items()) == list(model.items())
            assert_index_is_exact(cache)
        cache.invalidate_edges({(0, 0)}, threshold=0)
        assert not cache._visits and not cache._tokens and not cache._keys

    def test_a_hop_is_found_at_any_visit_and_only_in_its_direction(self):
        cache = RouteCache()
        loop = RouteResponse(
            request=RouteRequest(source=1, destination=4), path=Path.of([1, 2, 3, 1, 4]), engine="A"
        )

        def refill():
            cache.put("A", loop)
            return cache

        assert refill().invalidate_edges({(1, 4)}) == 1  # the hop after the second visit of 1
        assert refill().invalidate_edges({(3, 1)}) == 1
        assert refill().invalidate_edges({(2, 1), (4, 1), (1, 3), (2, 4)}) == 0  # reversed / not hops
        assert refill().invalidate_edges({(9, 1), (1, 9)}) == 0  # a vertex no path visits
        assert cache.stats().size == 1
        assert cache.invalidate_edges({(2, 1), (1, 2)}) == 1
        assert_index_is_exact(cache)
        assert not cache._visits

    def test_one_path_under_many_engine_names_is_evicted_under_each(self):
        """``benchmarks/e2e/layers.py`` fills its cache with one response
        under several engine names; LRU overflow then frees some of them."""
        cache = RouteCache(max_size=6)
        shared = [
            RouteResponse(request=REQUESTS[i], path=Path.of([i, 5, 6]), engine="A") for i in range(3)
        ]
        for copy in range(4):
            for response in shared:
                cache.put(f"A-{copy}", response)
        assert cache.stats().size == 6  # copies 0 and 1 overflowed
        assert_index_is_exact(cache)
        assert cache.invalidate_edges({(0, 5)}) == 2
        assert cache.invalidate_edges({(5, 6)}) == 4
        assert_index_is_exact(cache)
        assert not cache._visits


# --------------------------------------------------------------------------- #
# Through the service: what survives a congestion batch is still optimal
# --------------------------------------------------------------------------- #
class TestSurvivorsStayOptimal:
    def test_five_congestion_batches_on_a_full_cache(self):
        network = grid_city_network(rows=12, cols=12, seed=4)
        service = RoutingService(cache_size=150)
        service.register("Fastest", FastestBaseline(network).as_engine(), default=True)
        feed = TrafficFeed(network, services=[service])
        cache = service._cache
        rng = random.Random(11)
        ids = sorted(network.vertex_ids())
        requests = [RouteRequest(*rng.sample(ids, 2)) for _ in range(220)]
        edge_keys = [edge.key for edge in network.edges()]
        cost = cost_function(CostFeature.TRAVEL_TIME)

        def price(path: Path) -> float:
            return sum(cost(network.edge(u, v)) for u, v in path.edge_keys)

        evicted_total = kept_total = 0
        for _ in range(5):
            for request in requests:
                assert service.route(request).ok
            assert cache.stats().size == 150
            before = dict(cache._entries)
            touched = set(rng.sample(edge_keys, 32))
            feed.apply([TrafficUpdate.scale_by(u, v, travel_time_s=1.8) for u, v in touched])
            after = dict(cache._entries)

            # Only crossing routes go, and a crossing route stays only when
            # its re-proof keeps it.
            evicted = set(before) - set(after)
            crossing = scan_reference(before, touched, None)
            assert evicted <= crossing
            assert set(after) <= set(before)
            evicted_total += len(evicted)
            kept_total += len(crossing - evicted)
            assert service.stats().traffic_evicted_routes == evicted_total
            assert service.stats().traffic_reproved_routes == kept_total
            for response in after.values():
                request = response.request
                best = dict_dijkstra_costs(
                    network, request.source, cost, targets=[request.destination]
                )[request.destination]
                assert price(response.path) == pytest.approx(best)
                with compiled_disabled():
                    reference = fastest_path(network, request.source, request.destination)
                assert response.path.vertices == reference.vertices
            assert_index_is_exact(cache)
        assert evicted_total > 0
        assert kept_total > 0


# --------------------------------------------------------------------------- #
# Writers and an invalidator on one cache
# --------------------------------------------------------------------------- #
class TestConcurrentInvalidation:
    def test_put_get_against_invalidate_edges(self):
        cache = RouteCache(max_size=64)
        rng = random.Random(5)
        responses = [
            RouteResponse(
                request=RouteRequest(source=i, destination=1000 + i),
                path=Path.of([rng.randrange(30) for _ in range(8)]),
                engine="A",
            )
            for i in range(200)
        ]
        rounds = 4000
        gets = [0, 0]
        evicted = [0]
        errors: list[Exception] = []

        def serve(slot: int) -> None:
            local = random.Random(slot)
            try:
                for _ in range(rounds):
                    response = local.choice(responses)
                    if cache.get("A", response.request) is None:
                        cache.put("A", response)
                    gets[slot] += 1
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        def invalidate() -> None:
            local = random.Random(99)
            try:
                for _ in range(rounds // 4):
                    edges = {(local.randrange(30), local.randrange(30)) for _ in range(6)}
                    evicted[0] += cache.invalidate_edges(edges)
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=serve, args=(0,)),
            threading.Thread(target=serve, args=(1,)),
            threading.Thread(target=invalidate),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = cache.stats()
        assert stats.hits + stats.misses == sum(gets) == 2 * rounds
        assert 0 < evicted[0] <= stats.misses
        assert stats.size <= 64
        assert_index_is_exact(cache)
