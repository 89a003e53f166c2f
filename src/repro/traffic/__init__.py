"""Live-traffic cost updates.

A serving system's routes are only as good as its edge costs, and those
change while it runs.  This subsystem is the write path for such changes:

* :mod:`repro.traffic.updates` — :class:`TrafficUpdate` (per-edge absolute /
  scale / delta cost changes) and :class:`TrafficUpdateResult` (touched
  edges + cost version of an applied batch);
* :mod:`repro.traffic.feed` — :class:`TrafficFeed`, which applies batches
  transactionally and synchronously to the network (patching the live
  compiled CSR view in place, see
  :class:`~repro.network.compiled.graph.CostStore`) and notifies subscribers
  such as :class:`~repro.service.RoutingService`;
* :mod:`repro.traffic.synthetic` — :func:`synthetic_congestion`, rush-hour
  waves for benchmarks and load tests.
"""

from .feed import TrafficFeed
from .synthetic import synthetic_congestion
from .updates import EdgeKey, TrafficUpdate, TrafficUpdateResult

__all__ = [
    "EdgeKey",
    "TrafficFeed",
    "TrafficUpdate",
    "TrafficUpdateResult",
    "synthetic_congestion",
]
