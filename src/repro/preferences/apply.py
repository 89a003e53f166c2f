"""Step 3: applying transferred preferences to materialize B-edge paths.

Each B-edge carries a transferred preference vector (or ``None``).  For every
pair of a transfer center of the first region and a transfer center of the
second region, a path is computed with the preference-aware Dijkstra of
Algorithm 2 (or a fastest path when the preference is null) and attached to
the B-edge, so that the routing module can treat T-edges and B-edges
uniformly.
"""

from __future__ import annotations

from ..exceptions import NoPathError
from ..network.road_network import RoadNetwork
from ..routing.dijkstra import fastest_path
from ..routing.preference_dijkstra import preference_dijkstra
from ..regions.region_graph import RegionEdge, RegionGraph


MAX_TRANSFER_CENTER_PAIRS = 4
"""Cap on the number of (center_a, center_b) pairs per B-edge; the most
central pairs (closest to the two regions' centroids) are preferred."""


def materialize_b_edge_paths(network: RoadNetwork, region_graph: RegionGraph) -> int:
    """Attach preference-based paths to every B-edge of the region graph.

    Returns the number of paths that were attached across all B-edges.
    """
    attached = 0
    for edge in region_graph.b_edges():
        attached += _materialize_edge(network, region_graph, edge)
    return attached


def _materialize_edge(network: RoadNetwork, region_graph: RegionGraph, edge: RegionEdge) -> int:
    from ..network.spatial import equirectangular_m

    centers_a = list(region_graph.transfer_centers(edge.region_a))
    centers_b = list(region_graph.transfer_centers(edge.region_b))
    if not centers_a or not centers_b:
        return 0

    centroid_a = region_graph.region_centroid(edge.region_a)
    centroid_b = region_graph.region_centroid(edge.region_b)

    # Prefer transfer centers close to the opposite region so that the
    # materialized paths are short and representative.
    centers_a.sort(key=lambda v: equirectangular_m(network.coordinates(v), centroid_b))
    centers_b.sort(key=lambda v: equirectangular_m(network.coordinates(v), centroid_a))

    pairs: list[tuple[int, int]] = []
    for a in centers_a:
        for b in centers_b:
            if a != b:
                pairs.append((a, b))
            if len(pairs) >= MAX_TRANSFER_CENTER_PAIRS:
                break
        if len(pairs) >= MAX_TRANSFER_CENTER_PAIRS:
            break

    attached = 0
    for source, destination in pairs:
        try:
            if edge.preference is not None:
                path = preference_dijkstra(network, source, destination, edge.preference)
            else:
                path = fastest_path(network, source, destination)
        except NoPathError:
            continue
        if len(path) >= 2:
            edge.add_path(path)
            edge.transfer_pairs.add((source, destination))
            attached += 1
    return attached
