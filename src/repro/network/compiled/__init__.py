"""Compiled CSR graph kernels — the array-based routing hot path.

The main modules:

* :mod:`~repro.network.compiled.graph` — :class:`CompiledGraph`, the CSR
  snapshot of a :class:`~repro.network.road_network.RoadNetwork`: an immutable
  :class:`Topology` plus a monotonically-versioned :class:`CostStore` holding
  one flat numpy cost array per travel-cost feature (patched in place by
  live-traffic updates, see :mod:`repro.traffic`) — the one store of the
  network's edge attributes;
* :mod:`~repro.network.compiled.sparse` — point-to-point Dijkstra on scipy's
  C implementation over the CSR arrays, with the reference-identical path
  read off scipy's search tree (Algorithm 2 needs no search of its own: it
  is Dijkstra over a masked cost view,
  :func:`~repro.routing.preference_dijkstra.preference_cost`);
* :mod:`~repro.network.compiled.dispatch` — the bridge the public routing
  functions call: eligible queries run on scipy, opaque ones fall back to
  the dict-based reference implementations;
* :mod:`~repro.network.compiled.landmarks` — ALT landmark bounds
  (:class:`LandmarkTable`): topology-stamped, cost-version-aware artifacts
  whose lower and upper bounds cap the corridor of the bounded Dijkstra;
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
turn off the landmark corridor (the point-to-point search is then the full
scipy SSSP, the reference the corridor tests compare against).
"""

from .dispatch import alt_disabled, compiled_disabled, is_enabled
from .graph import EDGE_COST_ATTRIBUTES, CompiledGraph, CostStore, EdgeRows, Topology
from .ch import CompiledHierarchy
from .batch import dijkstra_many, shortest_paths_many
from .landmarks import DEFAULT_LANDMARK_COUNT, LandmarkTable, build_landmark_table

__all__ = [
    "CompiledGraph",
    "CompiledHierarchy",
    "CostStore",
    "DEFAULT_LANDMARK_COUNT",
    "EDGE_COST_ATTRIBUTES",
    "EdgeRows",
    "LandmarkTable",
    "Topology",
    "alt_disabled",
    "build_landmark_table",
    "compiled_disabled",
    "dijkstra_many",
    "is_enabled",
    "shortest_paths_many",
]
