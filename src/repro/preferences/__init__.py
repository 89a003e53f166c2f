"""Routing preferences: model, learning (Step 1), transfer (Step 2), application (Step 3)."""

from .features import (
    FeatureCatalog,
    LOCAL_ROADS,
    MAJOR_ROADS,
    RoadConditionFeature,
    combined_feature,
    default_road_condition_features,
    single_type_feature,
)
from .model import PreferenceVector
from .similarity import (
    jaccard,
    path_similarity,
    path_similarity_union,
    region_edge_similarity,
)
from .learning import LearnedPreference, PreferenceLearner, learn_t_edge_preferences
from .solvers import SolverResult, conjugate_gradient
from .transfer import (
    PreferenceTransfer,
    TransferConfig,
    TransferResult,
    evaluate_transfer_accuracy,
    transfer_to_b_edges,
)
from .apply import materialize_b_edge_paths

__all__ = [
    "FeatureCatalog",
    "LOCAL_ROADS",
    "LearnedPreference",
    "MAJOR_ROADS",
    "PreferenceLearner",
    "PreferenceTransfer",
    "PreferenceVector",
    "RoadConditionFeature",
    "SolverResult",
    "TransferConfig",
    "TransferResult",
    "combined_feature",
    "conjugate_gradient",
    "default_road_condition_features",
    "evaluate_transfer_accuracy",
    "jaccard",
    "learn_t_edge_preferences",
    "materialize_b_edge_paths",
    "path_similarity",
    "path_similarity_union",
    "region_edge_similarity",
    "single_type_feature",
    "transfer_to_b_edges",
]
