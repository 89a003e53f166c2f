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

    def __getitem__(self, index: int) -> VertexId:
        return self.vertices[index]

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
        """True if every hop of the path is an edge of ``network``."""
        return network.is_path(self.vertices)

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

    def reversed(self) -> "Path":
        """The same vertex sequence in reverse order.

        Only meaningful on networks where the reverse edges exist; callers
        should verify with :meth:`is_valid`.
        """
        return Path(vertices=tuple(reversed(self.vertices)))

    def sub_path(self, start: VertexId, end: VertexId) -> "Path":
        """The sub-path between the first occurrences of ``start`` and ``end``."""
        try:
            i = self.vertices.index(start)
            j = self.vertices.index(end, i)
        except ValueError as exc:
            raise NetworkError(
                f"sub_path endpoints {start} -> {end} not found in order on this path"
            ) from exc
        return Path(vertices=self.vertices[i : j + 1])

    def contains_edge(self, source: VertexId, target: VertexId) -> bool:
        """True if some hop of the path is the directed ``source -> target``."""
        return (source, target) in zip(self.vertices, self.vertices[1:])

    def coordinates(self, network: RoadNetwork) -> list[tuple[float, float]]:
        """The ``(lon, lat)`` polyline of the path."""
        return [network.coordinates(v) for v in self.vertices]


def splice_all(paths: Sequence[Path]) -> Path:
    """Splice a sequence of paths that chain end-to-start into one path."""
    if not paths:
        raise NetworkError("splice_all() requires at least one path")
    result = paths[0]
    for nxt in paths[1:]:
        result = result.splice(nxt)
    return result
