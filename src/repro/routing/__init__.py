"""Path-finding substrate: Dijkstra (scipy, with its dict reference), A* and
bidirectional search over the network's Edge views, CH, Algorithm 2."""

from .costs import (
    ALL_COST_FEATURES,
    CostFeature,
    EdgeCost,
    cost_function,
    edge_distance,
    edge_fuel,
    edge_travel_time,
    weighted_cost,
)
from .path import Path
from .dijkstra import (
    dict_dijkstra,
    dict_dijkstra_costs,
    dijkstra,
    fastest_path,
    lowest_cost_path,
    shortest_path,
)
from .astar import astar, astar_by_feature, heuristic_for
from .bidirectional import bidirectional_by_feature, bidirectional_dijkstra
from .contraction import ContractionHierarchy, build_contraction_hierarchy, ch_shortest_path
from .preference_dijkstra import preference_dijkstra
from .fuel import fuel_consumption_ml, fuel_rate_ml_per_s

__all__ = [
    "ALL_COST_FEATURES",
    "ContractionHierarchy",
    "CostFeature",
    "EdgeCost",
    "Path",
    "astar",
    "astar_by_feature",
    "bidirectional_by_feature",
    "bidirectional_dijkstra",
    "build_contraction_hierarchy",
    "ch_shortest_path",
    "cost_function",
    "dict_dijkstra",
    "dict_dijkstra_costs",
    "dijkstra",
    "edge_distance",
    "edge_fuel",
    "edge_travel_time",
    "fastest_path",
    "fuel_consumption_ml",
    "fuel_rate_ml_per_s",
    "heuristic_for",
    "lowest_cost_path",
    "preference_dijkstra",
    "shortest_path",
    "weighted_cost",
]
