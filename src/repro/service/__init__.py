"""The routing service layer: one serving API over interchangeable engines.

* :mod:`repro.service.api` — typed :class:`RouteRequest` / :class:`RouteResponse`
* :mod:`repro.service.engine` — the :class:`RoutingEngine` protocol + adapters
* :mod:`repro.service.service` — the :class:`RoutingService` facade
  (registry, LRU route cache, and the one gate every computed answer —
  single or batched — passes: admission, deadline, breaker, fallback chain,
  degraded serving)
* :mod:`repro.service.stats` — :class:`ServiceStats` monitoring snapshots
* :mod:`repro.service.resilience` — deadline budgets, bounded retries,
  per-engine circuit breakers, admission control
* :mod:`repro.service.faults` — seeded engine fault injection for chaos runs
* :mod:`repro.service.persistence` — save / load fitted L2R models
* :mod:`repro.service.sharding` — sharded multi-process serving over a
  shared-memory compiled graph (:class:`ShardedRoutingService`)
* :mod:`repro.service.durability` — crash-consistent disk WAL + snapshots
  and the recovery path (:class:`DurabilityManager`)
"""

from .api import RouteRequest, RouteResponse
from .cache import CacheStats, RouteCache
from .durability import (
    KILL_POINTS,
    DiskJournal,
    DurabilityManager,
    JournalError,
    JournalRecord,
    RecoveryError,
    RecoveryReport,
    SnapshotError,
    SnapshotStore,
)
from .engine import (
    AlgorithmEngine,
    BaseEngine,
    FunctionEngine,
    L2REngine,
    RoutingEngine,
)
from .faults import FaultCounters, FaultInjector
from .persistence import ModelPersistenceError, load_model, save_model
from .resilience import (
    AdmissionController,
    CircuitBreaker,
    DeadlineBudget,
    RetryPolicy,
)
from .service import RoutingService
from .sharding import (
    ShardCoordinator,
    ShardedRoutingService,
    ShardPlan,
    ShardWorkerPool,
    SocketTransport,
    TcpHub,
    build_shard_plan,
)
from .stats import ServiceStats, StatsAccumulator

__all__ = [
    "AdmissionController",
    "AlgorithmEngine",
    "BaseEngine",
    "CacheStats",
    "CircuitBreaker",
    "DeadlineBudget",
    "DiskJournal",
    "DurabilityManager",
    "FaultCounters",
    "FaultInjector",
    "FunctionEngine",
    "JournalError",
    "JournalRecord",
    "KILL_POINTS",
    "L2REngine",
    "ModelPersistenceError",
    "RecoveryError",
    "RecoveryReport",
    "RetryPolicy",
    "SnapshotError",
    "SnapshotStore",
    "RouteCache",
    "RouteRequest",
    "RouteResponse",
    "RoutingEngine",
    "RoutingService",
    "ServiceStats",
    "ShardCoordinator",
    "ShardPlan",
    "ShardWorkerPool",
    "ShardedRoutingService",
    "SocketTransport",
    "StatsAccumulator",
    "TcpHub",
    "build_shard_plan",
    "load_model",
    "save_model",
]
