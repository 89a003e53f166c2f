"""Compiled CSR graph kernels — the array-based routing hot path.

The main modules:

* :mod:`~repro.network.compiled.graph` — :class:`CompiledGraph`, the CSR
  snapshot of a :class:`~repro.network.road_network.RoadNetwork`: an immutable
  :class:`Topology` plus a monotonically-versioned :class:`CostStore` holding
  one flat numpy cost array per travel-cost feature (patched in place by
  live-traffic updates, see :mod:`repro.traffic`);
* :mod:`~repro.network.compiled.kernels` — array-based Dijkstra / ALT-A* /
  bidirectional kernels over preallocated, generation-stamped
  :class:`SearchWorkspace` state (Algorithm 2 needs no kernel of its own: it
  is Dijkstra over a masked cost view,
  :func:`~repro.routing.preference_dijkstra.preference_cost`);
* :mod:`~repro.network.compiled.dispatch` — the bridge the public routing
  functions call: eligible queries run on the kernels, opaque ones fall back
  to the dict-based reference implementations;
* :mod:`~repro.network.compiled.landmarks` — ALT landmark lower bounds
  (:class:`LandmarkTable`): topology-stamped, cost-version-aware artifacts
  that make the compiled A* / bidirectional kernels goal-directed;
* :mod:`~repro.network.compiled.batch` — :func:`dijkstra_many`, batched
  multi-source SSSP over the shared CSR arrays (one scipy C call for a whole
  batch) feeding both the landmark builds and ``RoutingService.route_many``;
* :mod:`~repro.network.compiled.ch` — :class:`CompiledHierarchy`, the
  customizable contraction hierarchy behind ``ch_shortest_path``: metric-free
  contraction, elimination-tree hub-label queries, and O(touched)
  live-traffic shortcut re-weighting.

Use :func:`compiled_disabled` to force the reference implementations (the
equivalence tests and the end-to-end output checks do — it is the switch
that reaches the oracle, not a serving mode), and :func:`alt_disabled` to
turn off goal-directed ALT search (A* then runs its dict reference, the
bidirectional search its plain kernel: exact path-identity with the
references).
"""

from .workspace import SearchWorkspace
from .kernels import (
    astar_kernel,
    bidirectional_kernel,
    dijkstra_costs_kernel,
    dijkstra_kernel,
)
from .dispatch import alt_disabled, compiled_disabled, is_enabled
from .graph import EDGE_COST_ATTRIBUTES, CompiledGraph, CostStore, Topology
from .ch import CompiledHierarchy
from .batch import dijkstra_many, shortest_paths_many
from .landmarks import DEFAULT_LANDMARK_COUNT, LandmarkTable, build_landmark_table

__all__ = [
    "CompiledGraph",
    "CompiledHierarchy",
    "CostStore",
    "DEFAULT_LANDMARK_COUNT",
    "EDGE_COST_ATTRIBUTES",
    "LandmarkTable",
    "Topology",
    "SearchWorkspace",
    "alt_disabled",
    "astar_kernel",
    "bidirectional_kernel",
    "build_landmark_table",
    "compiled_disabled",
    "dijkstra_costs_kernel",
    "dijkstra_kernel",
    "dijkstra_many",
    "is_enabled",
    "shortest_paths_many",
]
