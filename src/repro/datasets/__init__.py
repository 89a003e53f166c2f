"""Canned synthetic evaluation scenarios and train/test splitting."""

from .synthetic import Scenario, d1_like_scenario, d2_like_scenario, tiny_scenario
from .splits import TrainTestSplit, k_fold_partitions, split_by_id

__all__ = [
    "Scenario",
    "TrainTestSplit",
    "d1_like_scenario",
    "d2_like_scenario",
    "k_fold_partitions",
    "split_by_id",
    "tiny_scenario",
]
