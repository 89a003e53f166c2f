"""Modularity gain for trajectory-graph clustering.

The clustering of Section IV-A merges two (simple or aggregate) vertices when
the modularity gain

``dQ_ij = s_ij / S - (S_i * S_j) / S^2``

is positive, where ``s_ij`` is the popularity of the edge between them,
``S_i`` / ``S_j`` are the vertices' popularities, and ``S`` is the total edge
popularity of the trajectory graph.  Non-adjacent vertices have zero gain and
are never merged.
"""

from __future__ import annotations


def modularity_gain(
    edge_popularity: float,
    popularity_i: float,
    popularity_j: float,
    total_popularity: float,
) -> float:
    """``dQ`` of merging two vertices connected by an edge.

    Returns 0.0 when the vertices are not connected (``edge_popularity == 0``)
    or when the graph carries no popularity at all.
    """
    if total_popularity <= 0 or edge_popularity <= 0:
        return 0.0
    return (edge_popularity / total_popularity) - (
        popularity_i * popularity_j / (total_popularity * total_popularity)
    )
