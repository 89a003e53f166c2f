"""Debug-mode runtime coherence sanitizer for the compiled serving stack.

The static linter (``tools/reprolint``, rule RL001) proves that cache
*population sites* read a version stamp; this module checks the dual,
dynamic property while real requests flow: **every cache hit served is
stamped with the live version**.  It is the runtime net for the
stale-replay class of bug — an artifact built under cost version ``k``
answering queries after the store moved to ``k+1``.

Two probes are installed while the :func:`sanitize` context is active:

* **CostStore probe** — wraps the single choke point every versioned
  per-snapshot cache goes through
  (:meth:`~repro.network.compiled.graph.CostStore._cached`, backing
  ``memo()`` / ``linear_array`` / ``reverse_weights``).
  A hit whose stamp is neither :data:`~repro.network.compiled.graph.TOPOLOGY_STAMP`
  nor the store's **current** cost version is recorded as a
  ``stale-cost-cache-hit``: some caller replayed an artifact that predates a
  live-traffic patch.
* **Hierarchy probe** — wraps the one network-aware contraction-hierarchy
  query entry (:meth:`~repro.routing.contraction.ContractionHierarchy.
  shortest_path`, which ``ch_shortest_path`` calls).  A query answered by a
  hierarchy whose ``built_version`` no longer matches the network's mutation
  counter is recorded as a ``stale-hierarchy-query``: pre-update shortcut
  weights are serving post-update traffic (the ``on_stale="ignore"`` escape
  hatch does exactly this knowingly; under the sanitizer it is surfaced).

Intended for debug runs, soak tests, and CI property tests — the wrappers
add a dictionary peek and a couple of integer compares per lookup, so a
clean :class:`~repro.service.service.RoutingService` route/update cycle
runs at essentially full speed and records **zero** findings.  In
``strict`` mode the first violation raises :class:`CoherenceViolation`;
otherwise findings accumulate on the returned :class:`CoherenceSanitizer`
for inspection via :attr:`~CoherenceSanitizer.findings` /
:meth:`~CoherenceSanitizer.assert_clean`.

Caveat: a *legitimately* racing reader (one that resolved its cost arrays
immediately before a concurrent patch landed) can trip the cost-store probe
even though serving it consistent pre-patch data is by design; run the
sanitizer on single-writer debug traffic when attributing findings.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from ..network.compiled.graph import TOPOLOGY_STAMP, CostStore
from ..routing.contraction import ContractionHierarchy

if TYPE_CHECKING:  # pragma: no cover
    from ..network.road_network import RoadNetwork


class CoherenceViolation(AssertionError):
    """A cache hit was served with a stamp that no longer matches the live
    version (raised in ``strict`` mode; carries the :class:`CoherenceFinding`)."""

    def __init__(self, finding: "CoherenceFinding") -> None:
        super().__init__(finding.describe())
        self.finding = finding


@dataclass(frozen=True)
class CoherenceFinding:
    """One observed coherence violation."""

    kind: str
    """``"stale-cost-cache-hit"`` or ``"stale-hierarchy-query"``."""
    detail: str
    """Human-readable description of the cache key / query."""
    stamp: object
    """The version the served artifact was stamped with."""
    live_version: object
    """The live version at the moment the hit was served."""

    def describe(self) -> str:
        return (
            f"{self.kind}: {self.detail} served with stamp {self.stamp!r} "
            f"while the live version is {self.live_version!r}"
        )


class CoherenceSanitizer:
    """Findings accumulator handed back by :func:`sanitize`."""

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.findings: list[CoherenceFinding] = []
        self._lock = threading.Lock()

    def record(self, finding: CoherenceFinding) -> None:
        with self._lock:
            self.findings.append(finding)
        if self.strict:
            raise CoherenceViolation(finding)

    @property
    def ok(self) -> bool:
        return not self.findings

    def assert_clean(self) -> None:
        """Raise :class:`CoherenceViolation` on the first recorded finding."""
        if self.findings:
            raise CoherenceViolation(self.findings[0])


def _probed_cached(
    original: Callable, sanitizer: CoherenceSanitizer
) -> Callable:
    """The :meth:`CostStore._cached` wrapper recording stale hits."""

    def cached(self: CostStore, cache, key, build, stamp):
        # Peek the entry exactly as the real lookup will: a hit requires the
        # entry's stamp to equal the caller's.  Checking against the store's
        # *current* version catches callers that resolved (and stamped) their
        # inputs under a version the store has since moved past.
        with self._memo_lock:
            entry = cache.get(key)
            hit = entry is not None and entry[0] == stamp
            live = self._version
        if hit and stamp != TOPOLOGY_STAMP and stamp != live:
            sanitizer.record(
                CoherenceFinding(
                    kind="stale-cost-cache-hit",
                    detail=f"cost-store cache key {key!r}",
                    stamp=stamp,
                    live_version=live,
                )
            )
        return original(self, cache, key, build, stamp)

    cached.__wrapped__ = original  # type: ignore[attr-defined]
    return cached


def _probed_shortest_path(original: Callable, sanitizer: CoherenceSanitizer) -> Callable:
    """The :meth:`ContractionHierarchy.shortest_path` wrapper recording
    queries answered from a stale hierarchy."""

    def shortest_path(self, network, source, destination, on_stale="raise"):
        path = original(self, network, source, destination, on_stale)
        # An answer came back: the hierarchy's own staleness handling (raise,
        # refresh) has run by now, so a version gap left here was served.
        if self.built_version != network.version:
            sanitizer.record(
                CoherenceFinding(
                    kind="stale-hierarchy-query",
                    detail=f"contraction-hierarchy query {source!r} -> {destination!r}",
                    stamp=self.built_version,
                    live_version=network.version,
                )
            )
        return path

    shortest_path.__wrapped__ = original  # type: ignore[attr-defined]
    return shortest_path


#: Serializes installs/uninstalls so nested / concurrent ``sanitize()``
#: contexts unwind in order without losing the original implementations.
_INSTALL_LOCK = threading.Lock()


@contextmanager
def sanitize(strict: bool = False) -> Iterator[CoherenceSanitizer]:
    """Install the coherence probes for the duration of the ``with`` block.

    ``strict=True`` raises :class:`CoherenceViolation` at the first stale
    hit (pinpointing the offending call stack); the default records findings
    on the yielded :class:`CoherenceSanitizer` so a soak run can finish and
    report them all.  Probes are installed process-wide (they wrap the
    class/module attributes) and fully removed on exit, even on error.
    """
    sanitizer = CoherenceSanitizer(strict=strict)
    with _INSTALL_LOCK:
        original_cached = CostStore._cached
        original_shortest_path = ContractionHierarchy.shortest_path
        CostStore._cached = _probed_cached(original_cached, sanitizer)
        ContractionHierarchy.shortest_path = _probed_shortest_path(
            original_shortest_path, sanitizer
        )
    try:
        yield sanitizer
    finally:
        with _INSTALL_LOCK:
            CostStore._cached = original_cached
            ContractionHierarchy.shortest_path = original_shortest_path


def check_cost_coherence(
    network: "RoadNetwork", strict: bool = True
) -> CoherenceSanitizer:
    """One-shot coherence audit of a network's cost state (post-recovery).

    Used by :meth:`~repro.service.durability.manager.DurabilityManager.
    recover` as the final gate before a restored network serves traffic.
    Two families of checks run:

    * **Value integrity** — every cost array has the compiled topology's
      edge count and only finite, strictly positive entries (a corrupt
      snapshot or a bad replay would surface here first).
    * **Cache coherence** — under :func:`sanitize`, the stamped cache choke
      point is exercised twice per attribute (miss-then-hit), proving every
      artifact the restored store hands out is stamped with the *live*
      version — i.e. recovery didn't leave a pre-restore cache entry behind.

    Returns the sanitizer (``.ok`` / ``.findings``); with ``strict=True``
    (the default) the first violation raises instead.
    """
    import numpy as np

    from ..network.compiled.graph import EDGE_COST_ATTRIBUTES

    compiled = network.compiled()
    edge_count = compiled.topology.edge_count
    store = compiled.costs
    live_arrays = store.export_arrays()
    for attr in EDGE_COST_ATTRIBUTES:
        array = np.asarray(live_arrays[attr])
        if array.shape != (edge_count,):
            raise CoherenceViolation(
                CoherenceFinding(
                    kind="incoherent-cost-array",
                    detail=f"{attr} has shape {array.shape}, expected ({edge_count},)",
                    stamp=None,
                    live_version=network.cost_version,
                )
            )
        if not np.all(np.isfinite(array)) or not np.all(array > 0.0):
            raise CoherenceViolation(
                CoherenceFinding(
                    kind="incoherent-cost-array",
                    detail=f"{attr} contains non-finite or non-positive values",
                    stamp=None,
                    live_version=network.cost_version,
                )
            )
    with sanitize(strict=strict) as sanitizer:
        for attr in EDGE_COST_ATTRIBUTES:
            terms = ((attr, 1.0),)
            first = store.linear_array(terms)
            second = store.linear_array(terms)
            if first is not second or not np.array_equal(first, live_arrays[attr]):
                sanitizer.record(
                    CoherenceFinding(
                        kind="incoherent-cost-cache",
                        detail=f"linear_array({attr!r}) is not serving the live array",
                        stamp=None,
                        live_version=network.cost_version,
                    )
                )
    return sanitizer
