"""The learn-to-route (L2R) pipeline: configuration, routing, and orchestration."""

from .config import L2RConfig
from .router import RegionRouter, RouteDiagnostics
from .l2r import FittedModel, LearnToRoute, OfflineTimings

__all__ = [
    "FittedModel",
    "L2RConfig",
    "LearnToRoute",
    "OfflineTimings",
    "RegionRouter",
    "RouteDiagnostics",
]
