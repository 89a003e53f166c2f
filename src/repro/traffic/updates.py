"""Typed live-traffic cost updates.

A :class:`TrafficUpdate` describes how one directed edge's travel costs
change: per-feature **absolute** replacements, **scale** factors, or additive
**deltas** (applied in that order when combined on one update).  Updates are
immutable and hashable so they can be batched, logged, deduplicated, and
replayed; a batch (any iterable of updates) is applied transactionally by a
:class:`~repro.traffic.feed.TrafficFeed`.

The patchable features are exactly the compiled cost attributes
(``distance_m`` / ``travel_time_s`` / ``fuel_ml``) — see
:data:`repro.network.compiled.graph.EDGE_COST_ATTRIBUTES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from ..exceptions import NetworkError
from ..network.compiled.graph import EDGE_COST_ATTRIBUTES
from ..network.road_network import VertexId

if TYPE_CHECKING:  # pragma: no cover
    from ..network.road_network import Edge

EdgeKey = tuple[VertexId, VertexId]


def _as_terms(
    terms: Iterable[tuple[str, float]], kind: str
) -> tuple[tuple[str, float], ...]:
    """Validate ``(attribute, number)`` pairs into a sorted hashable tuple."""
    normalized = []
    for term in terms:
        try:
            attribute, value = term
            number = float(value)
        except (TypeError, ValueError):
            raise NetworkError(
                f"traffic {kind} term {term!r} is not an (attribute, number) pair"
            ) from None
        if attribute not in EDGE_COST_ATTRIBUTES:
            raise NetworkError(
                f"traffic {kind} for unknown cost attribute {attribute!r}; "
                f"patchable attributes are {EDGE_COST_ATTRIBUTES}"
            )
        normalized.append((attribute, number))
    return tuple(sorted(normalized))


@dataclass(frozen=True)
class TrafficUpdate:
    """One edge's cost change: absolute values, scale factors, and/or deltas.

    Use the constructors for the common cases::

        TrafficUpdate.set(u, v, travel_time_s=95.0)     # absolute
        TrafficUpdate.scale_by(u, v, travel_time_s=2.5) # congestion factor
        TrafficUpdate.shift(u, v, fuel_ml=12.0)         # additive delta

    When one update carries several kinds they compose as
    ``absolute -> scale -> delta`` per attribute.  Every term is validated
    on construction, whichever way the update is built, so a bad attribute
    or value raises :class:`~repro.exceptions.NetworkError` before a batch
    holding it can be journaled or applied.
    """

    source: VertexId
    target: VertexId
    absolute: tuple[tuple[str, float], ...] = ()
    scale: tuple[tuple[str, float], ...] = ()
    delta: tuple[tuple[str, float], ...] = ()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def set(cls, source: VertexId, target: VertexId, **values: float) -> "TrafficUpdate":
        """Replace cost attributes with absolute values."""
        return cls(source=source, target=target, absolute=tuple(values.items()))

    @classmethod
    def scale_by(cls, source: VertexId, target: VertexId, **factors: float) -> "TrafficUpdate":
        """Multiply cost attributes by per-feature factors."""
        return cls(source=source, target=target, scale=tuple(factors.items()))

    @classmethod
    def shift(cls, source: VertexId, target: VertexId, **deltas: float) -> "TrafficUpdate":
        """Add per-feature deltas to cost attributes."""
        return cls(source=source, target=target, delta=tuple(deltas.items()))

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def resolve(
        self, edge: "Edge", pending: Mapping[str, float] | None = None
    ) -> dict[str, float]:
        """The absolute attribute values this update produces on ``edge``.

        ``pending`` carries values already produced by earlier updates of the
        same batch for the same edge, so updates compose in batch order.
        Returns only the touched attributes; validation of the resulting
        numbers (finite, positive) happens in
        :meth:`RoadNetwork.update_edge_costs`.
        """
        resolved: dict[str, float] = dict(pending or {})

        def current(attribute: str) -> float:
            if attribute in resolved:
                return resolved[attribute]
            return float(getattr(edge, attribute))

        for attribute, value in self.absolute:
            resolved[attribute] = value
        for attribute, factor in self.scale:
            resolved[attribute] = current(attribute) * factor
        for attribute, delta in self.delta:
            resolved[attribute] = current(attribute) + delta
        return resolved

    def __post_init__(self) -> None:
        for kind in ("absolute", "scale", "delta"):
            object.__setattr__(self, kind, _as_terms(getattr(self, kind), kind))
        if not (self.absolute or self.scale or self.delta):
            raise NetworkError(
                f"traffic update for edge ({self.source}, {self.target}) "
                "changes nothing; give at least one absolute/scale/delta term"
            )


@dataclass(frozen=True)
class TrafficUpdateResult:
    """What one transactionally-applied batch did to the network.

    Handed to every :class:`~repro.traffic.feed.TrafficFeed` subscriber —
    the service layer uses :attr:`touched_edges` for delta-aware route-cache
    invalidation and :attr:`cost_version` to stamp its monitoring snapshot.
    """

    touched_edges: frozenset[EdgeKey]
    """Directed edges whose costs actually changed."""
    cost_version: int
    """The network's cost version after the batch landed."""
    applied: int = 0
    """Number of updates in the batch (may exceed touched edges when several
    updates hit the same edge)."""
    attributes: frozenset[str] = field(default_factory=frozenset)
    """Union of cost attributes touched by the batch."""
