"""Region construction: trajectory graph, modularity clustering, region graph."""

from .trajectory_graph import TrajectoryGraph, TrajectoryGraphEdge
from .modularity import modularity_gain
from .clustering import (
    BottomUpClustering,
    ClusteringResult,
    ClusterNode,
    cluster_trajectory_graph,
)
from .region import (
    Region,
    RegionId,
    RegionSizeBand,
    format_region_size_table,
    region_size_table,
)
from .region_graph import RegionEdge, RegionGraph, build_region_graph

__all__ = [
    "BottomUpClustering",
    "ClusterNode",
    "ClusteringResult",
    "Region",
    "RegionEdge",
    "RegionGraph",
    "RegionId",
    "RegionSizeBand",
    "TrajectoryGraph",
    "TrajectoryGraphEdge",
    "build_region_graph",
    "cluster_trajectory_graph",
    "format_region_size_table",
    "modularity_gain",
    "region_size_table",
]
