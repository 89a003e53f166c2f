"""Road-network substrate: graphs, road types, spatial tools, and synthetic
generators.  Networks are generated in process; there is no file loader."""

from .road_network import Edge, RoadNetwork, Vertex, VertexId
from .road_types import ALL_ROAD_TYPES, DEFAULT_SPEED_KMH, RoadType
from .spatial import (
    BoundingBox,
    LocalProjection,
    LonLat,
    centroid,
    convex_hull,
    equirectangular_m,
    haversine_m,
    match_waypoints_to_polyline,
    max_diameter_km,
    path_length_m,
    point_segment_distance_m,
    polygon_area_km2,
    project_point_to_segment,
)
from .spatial_index import SpatialIndex
from .compiled import (
    CompiledGraph,
    CompiledHierarchy,
    CostStore,
    LandmarkTable,
    Topology,
    alt_disabled,
    compiled_disabled,
    dijkstra_many,
)
from .generators import (
    CitySpec,
    chengdu_like_network,
    country_network,
    denmark_like_network,
    grid_city_network,
)

__all__ = [
    "ALL_ROAD_TYPES",
    "BoundingBox",
    "CitySpec",
    "CompiledGraph",
    "CompiledHierarchy",
    "CostStore",
    "DEFAULT_SPEED_KMH",
    "Edge",
    "LandmarkTable",
    "LocalProjection",
    "LonLat",
    "RoadNetwork",
    "RoadType",
    "SpatialIndex",
    "Topology",
    "Vertex",
    "VertexId",
    "alt_disabled",
    "centroid",
    "chengdu_like_network",
    "compiled_disabled",
    "dijkstra_many",
    "convex_hull",
    "country_network",
    "denmark_like_network",
    "equirectangular_m",
    "grid_city_network",
    "haversine_m",
    "match_waypoints_to_polyline",
    "max_diameter_km",
    "path_length_m",
    "point_segment_distance_m",
    "polygon_area_km2",
    "project_point_to_segment",
]
