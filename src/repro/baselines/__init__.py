"""Baseline routing algorithms compared against L2R in the evaluation."""

from .base import L2RAlgorithm, RoutingAlgorithm
from .cost_centric import FastestBaseline, ShortestBaseline
from .dom import DomBaseline
from .trip import TripBaseline
from .external_service import ExternalRoutingService, waypoint_accuracy

__all__ = [
    "DomBaseline",
    "ExternalRoutingService",
    "FastestBaseline",
    "L2RAlgorithm",
    "RoutingAlgorithm",
    "ShortestBaseline",
    "TripBaseline",
    "waypoint_accuracy",
]
