"""Similarity functions: path similarity (Eq. 1 and Eq. 4) and region-edge
similarity ``reSim``.

Path similarity compares a constructed path against a ground-truth path by
shared edge length.  Region-edge similarity combines the distance between the
connected regions' centroids with the Jaccard similarity of the regions' road
type functionality sets, and drives the preference transfer of Step 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..network.road_network import RoadNetwork, VertexId
from ..routing.path import Path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..regions.region_graph import RegionEdge


def edge_lengths(
    network: RoadNetwork, path: Path | Sequence[VertexId]
) -> dict[tuple[VertexId, VertexId], float]:
    """``{directed edge: length in metres}`` over the edges of ``path``."""
    vertices = list(path)
    return {key: network.w_di(*key) for key in zip(vertices, vertices[1:])}


def shared_length_share(
    ground_truth_lengths: Mapping[tuple[VertexId, VertexId], float],
    constructed: Path | Sequence[VertexId],
) -> float:
    """Eq. 1 from the ground truth's :func:`edge_lengths`, for callers that
    score many constructed paths against one ground truth.  Only the ground
    truth's lengths enter Eq. 1; of ``constructed`` it takes the edge keys."""
    vertices = list(constructed)
    constructed_edges = set(zip(vertices, vertices[1:]))
    shared = sum(
        length for key, length in ground_truth_lengths.items() if key in constructed_edges
    )
    total = sum(ground_truth_lengths.values())
    return shared / total if total > 0 else 0.0


def path_similarity(
    network: RoadNetwork,
    ground_truth: Path | Sequence[VertexId],
    constructed: Path | Sequence[VertexId],
) -> float:
    """Eq. 1: shared edge length divided by the ground-truth length.

    ``pSim = sum_{e in Pk ∩ Pv} len(e) / sum_{e in Pk} len(e)``
    """
    gt_lengths = edge_lengths(network, ground_truth)
    if not gt_lengths:
        # A trivial (single-vertex) ground truth is matched iff the
        # constructed path is also trivial and on the same vertex.
        return 1.0 if list(ground_truth) == list(constructed) else 0.0
    return shared_length_share(gt_lengths, constructed)


def path_similarity_union(
    network: RoadNetwork,
    ground_truth: Path | Sequence[VertexId],
    constructed: Path | Sequence[VertexId],
) -> float:
    """Eq. 4: shared edge length divided by the length of the edge union.

    ``pSim = sum_{e in Pk ∩ Pv} len(e) / sum_{e in Pk ∪ Pv} len(e)``
    """
    gt_lengths = edge_lengths(network, ground_truth)
    cons_lengths = edge_lengths(network, constructed)
    if not gt_lengths and not cons_lengths:
        gt_vertices = list(ground_truth)
        cons_vertices = list(constructed)
        return 1.0 if gt_vertices == cons_vertices else 0.0
    union = dict(gt_lengths)
    union.update(cons_lengths)
    shared = sum(length for key, length in gt_lengths.items() if key in cons_lengths)
    total = sum(union.values())
    return shared / total if total > 0 else 0.0


def jaccard(a: Iterable[object], b: Iterable[object]) -> float:
    """Plain Jaccard similarity of two finite sets."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def region_edge_similarity(edge_a: "RegionEdge", edge_b: "RegionEdge") -> float:
    """``reSim``: distance-ratio similarity plus functionality Jaccard.

    ``reSim(rei, rej) = min(dis_i, dis_j) / max(dis_i, dis_j) + J(F_i, F_j)``

    The result lies in ``[0, 2]``; the paper's ``amr`` threshold is applied to
    this raw value.  Degenerate zero distances fall back to a ratio of 1 when
    both are zero and 0 otherwise.
    """
    dis_a, dis_b = edge_a.centroid_distance_m, edge_b.centroid_distance_m
    if dis_a <= 0.0 and dis_b <= 0.0:
        distance_similarity = 1.0
    elif dis_a <= 0.0 or dis_b <= 0.0:
        distance_similarity = 0.0
    else:
        distance_similarity = min(dis_a, dis_b) / max(dis_a, dis_b)
    functionality_similarity = jaccard(edge_a.functionality, edge_b.functionality)
    return distance_similarity + functionality_similarity
