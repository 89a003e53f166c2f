"""The :class:`Path` value object.

A path is a sequence of vertex ids where consecutive vertices are connected by
edges of the road network.  The object also carries convenience accessors for
the aggregate costs of the path and supports splicing (concatenation at a
shared endpoint), which the region-graph router uses to stitch region-edge
paths together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..exceptions import NetworkError
from ..network.road_network import RoadNetwork, VertexId


@dataclass(frozen=True)
class Path:
    """An immutable vertex path through a road network."""

    vertices: tuple[VertexId, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise NetworkError("a path must contain at least one vertex")

    @classmethod
    def of(cls, vertices: Sequence[VertexId]) -> "Path":
        return cls(vertices=tuple(vertices))

    # -- basic protocol -------------------------------------------------- #
    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self.vertices)

    @property
    def source(self) -> VertexId:
        return self.vertices[0]

    @property
    def destination(self) -> VertexId:
        return self.vertices[-1]

    @property
    def edge_keys(self) -> tuple[tuple[VertexId, VertexId], ...]:
        """Directed ``(u, v)`` pairs along the path."""
        return tuple(
            (self.vertices[i], self.vertices[i + 1]) for i in range(len(self.vertices) - 1)
        )

    # -- aggregate costs -------------------------------------------------- #
    def distance_m(self, network: RoadNetwork) -> float:
        return network.path_distance_m(self.vertices)

    def travel_time_s(self, network: RoadNetwork) -> float:
        return network.path_travel_time_s(self.vertices)

    def fuel_ml(self, network: RoadNetwork) -> float:
        return network.path_fuel_ml(self.vertices)

    def is_valid(self, network: RoadNetwork) -> bool:
        """True if every vertex and every hop of the path is in ``network``."""
        return all(vertex in network for vertex in self.vertices) and all(
            head in network.successors(tail) for tail, head in self.edge_keys
        )

    # -- composition ------------------------------------------------------ #
    def splice(self, other: "Path") -> "Path":
        """Concatenate two paths that share an endpoint.

        ``self.destination`` must equal ``other.source``; the shared vertex is
        not duplicated in the result.
        """
        if self.destination != other.source:
            raise NetworkError(
                f"cannot splice: path ends at {self.destination} but next path "
                f"starts at {other.source}"
            )
        return Path(vertices=self.vertices + other.vertices[1:])

    def contains_edge(self, source: VertexId, target: VertexId) -> bool:
        """True if some hop of the path is the directed ``source -> target``."""
        return (source, target) in zip(self.vertices, self.vertices[1:])

    def coordinates(self, network: RoadNetwork) -> list[tuple[float, float]]:
        """The ``(lon, lat)`` polyline of the path."""
        return [network.coordinates(v) for v in self.vertices]
