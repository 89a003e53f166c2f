"""Learn-to-Route (L2R): trajectory-based routing with sparse trajectory sets.

A reproduction of Guo, Yang, Hu, Jensen - "Learning to Route with Sparse
Trajectory Sets", ICDE 2018 (extended version arXiv:1802.07980).

The top-level package re-exports the pieces most users need: the
:class:`~repro.core.l2r.LearnToRoute` pipeline, the road-network and
trajectory substrates, the baselines, and the evaluation harness.  See the
subpackages for the full API:

* :mod:`repro.network` - road networks, road types, spatial tools, generators
* :mod:`repro.routing` - Dijkstra / A* / CH / preference-aware routing
* :mod:`repro.trajectories` - GPS models, simulation, map matching
* :mod:`repro.regions` - trajectory graph, modularity clustering, region graph
* :mod:`repro.preferences` - preference learning, transfer, application
* :mod:`repro.core` - the L2R pipeline and region-graph router
* :mod:`repro.baselines` - Shortest, Fastest, Dom, TRIP, Google-like
* :mod:`repro.evaluation` - accuracy / efficiency harness (Figs. 10-13)
* :mod:`repro.datasets` - canned D1-like and D2-like scenarios
* :mod:`repro.service` - the RoutingService serving layer (engines, batching,
  caching, model persistence)
* :mod:`repro.traffic` - live-traffic cost updates (TrafficFeed, synthetic
  congestion) with delta-aware cache invalidation
"""

from .core import L2RConfig, LearnToRoute, RegionRouter
from .network import RoadNetwork, RoadType
from .preferences import FeatureCatalog, PreferenceVector, TransferConfig
from .routing import CostFeature, Path
from .trajectories import MatchedTrajectory, Trajectory, TrajectoryGenerator
from .service import (
    RouteRequest,
    RouteResponse,
    RoutingEngine,
    RoutingService,
    ServiceStats,
    load_model,
    save_model,
)
from .traffic import TrafficFeed, TrafficUpdate, TrafficUpdateResult
from .exceptions import ReproError

__version__ = "1.1.0"

__all__ = [
    "CostFeature",
    "FeatureCatalog",
    "L2RConfig",
    "LearnToRoute",
    "MatchedTrajectory",
    "Path",
    "PreferenceVector",
    "RegionRouter",
    "ReproError",
    "RoadNetwork",
    "RoadType",
    "RouteRequest",
    "RouteResponse",
    "RoutingEngine",
    "RoutingService",
    "ServiceStats",
    "TrafficFeed",
    "TrafficUpdate",
    "TrafficUpdateResult",
    "Trajectory",
    "TrajectoryGenerator",
    "TransferConfig",
    "__version__",
    "load_model",
    "save_model",
]
