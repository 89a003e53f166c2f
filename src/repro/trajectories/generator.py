"""Synthetic trajectory generation (driver-population simulator).

The paper's evaluation uses two real GPS fleets that are not available
offline, so this module simulates the data-generating process those fleets
embody:

* a population of drivers, each with a mild personal bias (used by the
  personalised baselines Dom and TRIP);
* trip demand that is *skewed*: most trips start and end near a small number
  of hotspot areas, so some parts of the network are densely covered by
  trajectories while others are never visited — exactly the sparsity L2R
  addresses;
* route choice that is *preference-driven* rather than cost-minimal: the
  preference depends on the character of the trip (distance and the road-type
  functionality of the endpoints), plus per-driver idiosyncrasy.  This gives
  region pairs coherent routing preferences, the property L2R learns and
  transfers.

Generated ground-truth paths are returned as :class:`MatchedTrajectory`
objects directly (as if perfectly map matched); ``examples/gps_pipeline.py``
emits raw GPS from them and HMM-matches it back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from ..exceptions import NoPathError
from ..network.road_network import RoadNetwork, VertexId
from ..network.road_types import RoadType
from ..network.spatial import equirectangular_m
from ..preferences.features import (
    LOCAL_ROADS,
    MAJOR_ROADS,
    RoadConditionFeature,
    single_type_feature,
)
from ..preferences.model import PreferenceVector
from ..routing.costs import CostFeature
from ..routing.dijkstra import fastest_path
from ..routing.preference_dijkstra import preference_dijkstra
from .models import MatchedTrajectory


@dataclass(frozen=True)
class DriverProfile:
    """A simulated driver with a latent personal routing bias."""

    driver_id: int
    preferred_cost: CostFeature
    preferred_roads: RoadConditionFeature | None
    adherence: float
    """Probability that a trip follows the trip-level preference rather than
    simply the fastest path (models occasional 'lazy' route choices)."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Controls of the trajectory generator."""

    n_drivers: int = 40
    n_trajectories: int = 800
    hotspot_count: int = 6
    hotspot_probability: float = 0.75
    """Probability that a trip endpoint is drawn near a hotspot (skew)."""
    hotspot_radius_m: float = 1_500.0
    min_trip_distance_m: float = 600.0
    adherence: float = 0.9
    long_trip_km: float = 10.0
    """Trips longer than this prefer travel time on major roads."""
    short_trip_km: float = 3.0
    """Trips shorter than this prefer distance on local roads."""
    peak_fraction: float = 0.5
    """Fraction of trips departing in the peak period."""
    seed: int = 42
    zone_preferences: bool = True
    """Derive trip preferences from the (source zone, destination zone) pair
    rather than from the trip distance alone; this makes region-pair
    preferences coherent (the property L2R learns and transfers) and makes
    ground-truth paths distinct from plain shortest / fastest paths."""
    congestion: bool = True
    """Simulate hidden traffic: a fraction of edges carry a congestion factor
    that local drivers know (and route around) but that is invisible in the
    public road network's free-flow weights.  This is the real-world mechanism
    that makes local drivers' paths deviate consistently from cost-centric
    routes — the phenomenon the paper's L2R exploits."""
    congested_major_fraction: float = 0.35
    congested_minor_fraction: float = 0.12
    congestion_factor_range: tuple[float, float] = (1.8, 3.2)


@dataclass
class GeneratedData:
    """Output of the generator: trajectories plus the ground-truth metadata."""

    trajectories: list[MatchedTrajectory]
    drivers: list[DriverProfile]
    hotspots: list[VertexId]
    trip_preferences: dict[int, PreferenceVector] = field(default_factory=dict)
    """The preference actually used for each trajectory id (ground truth for
    diagnostics; L2R never sees this)."""
    congested_network: "RoadNetwork | None" = None
    """The private network (with congestion) drivers routed on, for
    diagnostics only; evaluated algorithms must use the public network."""
    congestion_factors: dict[tuple[VertexId, VertexId], float] = field(default_factory=dict)


class TrajectoryGenerator:
    """Simulates a driver population producing trips on a road network."""

    def __init__(self, network: RoadNetwork, config: GeneratorConfig | None = None) -> None:
        self._network = network
        self._config = config or GeneratorConfig()
        self._rng = random.Random(self._config.seed)
        self._vertex_ids = list(network.vertex_ids())
        if len(self._vertex_ids) < 10:
            raise ValueError("the trajectory generator needs a network with at least 10 vertices")
        self._zone_of: dict[VertexId, int] = {}
        self._zone_table: dict[tuple[int, int], PreferenceVector] = {}

    # ------------------------------------------------------------------ #
    def generate(self) -> GeneratedData:
        """Generate the configured number of trajectories."""
        config = self._config
        drivers = self._make_drivers()
        hotspots = self._pick_hotspots()
        hotspot_members = self._hotspot_members(hotspots)
        self._zone_of = self._assign_zones(hotspots, hotspot_members)
        self._zone_table = self._zone_preference_table(len(hotspots))
        congestion_factors = self._draw_congestion() if config.congestion else {}
        routing_network = (
            self._apply_congestion(congestion_factors) if congestion_factors else self._network
        )

        trajectories: list[MatchedTrajectory] = []
        trip_preferences: dict[int, PreferenceVector] = {}
        trajectory_id = 0
        attempts = 0
        max_attempts = config.n_trajectories * 8

        while len(trajectories) < config.n_trajectories and attempts < max_attempts:
            attempts += 1
            driver = drivers[self._rng.randrange(len(drivers))]
            source = self._pick_endpoint(hotspot_members)
            destination = self._pick_endpoint(hotspot_members)
            if source == destination:
                continue
            straight = equirectangular_m(
                self._network.coordinates(source), self._network.coordinates(destination)
            )
            if straight < config.min_trip_distance_m:
                continue

            preference = self._trip_preference(driver, source, destination)
            try:
                if self._rng.random() < driver.adherence:
                    path = preference_dijkstra(routing_network, source, destination, preference)
                else:
                    path = fastest_path(routing_network, source, destination)
            except NoPathError:
                continue
            if len(path) < 3:
                continue

            departure = self._departure_time()
            duration = path.travel_time_s(routing_network)
            trajectories.append(
                MatchedTrajectory(
                    trajectory_id=trajectory_id,
                    driver_id=driver.driver_id,
                    path=path,
                    departure_time=departure,
                    duration_s=duration,
                )
            )
            trip_preferences[trajectory_id] = preference
            trajectory_id += 1

        return GeneratedData(
            trajectories=trajectories,
            drivers=drivers,
            hotspots=hotspots,
            trip_preferences=trip_preferences,
            congested_network=routing_network if congestion_factors else None,
            congestion_factors=congestion_factors,
        )

    # ------------------------------------------------------------------ #
    def _draw_congestion(self) -> dict[tuple[VertexId, VertexId], float]:
        """Per-edge congestion factors known to drivers but not to baselines."""
        config = self._config
        rng = random.Random(config.seed ^ 0x5F5E1)
        low, high = config.congestion_factor_range
        factors: dict[tuple[VertexId, VertexId], float] = {}
        seen_undirected: dict[tuple[VertexId, VertexId], float] = {}
        for edge in self._network.edges():
            undirected = (min(edge.source, edge.target), max(edge.source, edge.target))
            if undirected in seen_undirected:
                factor = seen_undirected[undirected]
            else:
                fraction = (
                    config.congested_major_fraction
                    if edge.road_type.is_major
                    else config.congested_minor_fraction
                )
                factor = rng.uniform(low, high) if rng.random() < fraction else 1.0
                seen_undirected[undirected] = factor
            if factor > 1.0:
                factors[edge.key] = factor
        return factors

    def _apply_congestion(
        self, factors: dict[tuple[VertexId, VertexId], float]
    ) -> RoadNetwork:
        """A private copy of the network with congested travel times."""
        congested = RoadNetwork(name=f"{self._network.name}-congested")
        for vertex in self._network.vertices():
            congested.add_vertex(vertex.vertex_id, vertex.lon, vertex.lat)
        for edge in self._network.edges():
            factor = factors.get(edge.key, 1.0)
            congested.add_edge(
                edge.source,
                edge.target,
                road_type=edge.road_type,
                distance_m=edge.distance_m,
                speed_kmh=edge.speed_kmh / factor,
                travel_time_s=edge.travel_time_s * factor,
                fuel_ml=edge.fuel_ml * (1.0 + 0.3 * (factor - 1.0)),
            )
        return congested

    # ------------------------------------------------------------------ #
    def _make_drivers(self) -> list[DriverProfile]:
        config = self._config
        drivers: list[DriverProfile] = []
        cost_cycle = [CostFeature.TRAVEL_TIME, CostFeature.DISTANCE, CostFeature.FUEL]
        road_cycle: list[RoadConditionFeature | None] = [
            MAJOR_ROADS,
            LOCAL_ROADS,
            None,
            single_type_feature(RoadType.PRIMARY),
        ]
        for driver_id in range(config.n_drivers):
            drivers.append(
                DriverProfile(
                    driver_id=driver_id,
                    preferred_cost=cost_cycle[driver_id % len(cost_cycle)],
                    preferred_roads=road_cycle[driver_id % len(road_cycle)],
                    adherence=min(1.0, max(0.5, self._rng.gauss(config.adherence, 0.05))),
                )
            )
        return drivers

    def _pick_hotspots(self) -> list[VertexId]:
        """Hotspot anchor vertices, spread across the network deterministically."""
        count = min(self._config.hotspot_count, len(self._vertex_ids))
        shuffled = list(self._vertex_ids)
        self._rng.shuffle(shuffled)
        return shuffled[:count]

    def _hotspot_members(self, hotspots: Sequence[VertexId]) -> list[list[VertexId]]:
        radius = self._config.hotspot_radius_m
        members: list[list[VertexId]] = []
        for anchor in hotspots:
            anchor_pos = self._network.coordinates(anchor)
            near = [
                vid
                for vid in self._vertex_ids
                if equirectangular_m(anchor_pos, self._network.coordinates(vid)) <= radius
            ]
            members.append(near or [anchor])
        return members

    def _pick_endpoint(self, hotspot_members: list[list[VertexId]]) -> VertexId:
        if hotspot_members and self._rng.random() < self._config.hotspot_probability:
            members = hotspot_members[self._rng.randrange(len(hotspot_members))]
            return members[self._rng.randrange(len(members))]
        return self._vertex_ids[self._rng.randrange(len(self._vertex_ids))]

    def _assign_zones(
        self, hotspots: Sequence[VertexId], hotspot_members: list[list[VertexId]]
    ) -> dict[VertexId, int]:
        """Map every vertex to its zone (the nearest hotspot).

        Hotspot members keep their own hotspot's zone; every other vertex is
        assigned to the geographically nearest hotspot, so that *every* trip
        has a well-defined (source zone, destination zone) pair and route
        choices are coherent per area pair — mirroring how the paper's local
        drivers behave consistently when traveling between two districts.
        """
        zone_of: dict[VertexId, int] = {}
        for zone, members in enumerate(hotspot_members):
            for vertex in members:
                zone_of.setdefault(vertex, zone)
        if not hotspots:
            return zone_of
        anchor_positions = [self._network.coordinates(anchor) for anchor in hotspots]
        for vertex in self._vertex_ids:
            if vertex in zone_of:
                continue
            position = self._network.coordinates(vertex)
            zone_of[vertex] = min(
                range(len(anchor_positions)),
                key=lambda z: equirectangular_m(position, anchor_positions[z]),
            )
        return zone_of

    def _zone_preference_table(self, n_zones: int) -> dict[tuple[int, int], PreferenceVector]:
        """A fixed preference per ordered zone pair.

        Local drivers mostly follow the arterial hierarchy (time-minimal
        routing with a preference for primary / major roads — which is *not*
        what plain Fastest over free-flow speeds produces, because Fastest
        gravitates to motorways), while trips between residential zones stick
        to local streets.  Keeping the palette dominated by arterial-following
        preferences makes route choices locally coherent across trips of
        different lengths — the property the paper's region-pair preferences
        rely on — while still being distinct from any single static cost.
        """
        arterial_time = PreferenceVector(
            master=CostFeature.TRAVEL_TIME, slave=single_type_feature(RoadType.PRIMARY)
        )
        major_time = PreferenceVector(master=CostFeature.TRAVEL_TIME, slave=MAJOR_ROADS)
        major_fuel = PreferenceVector(master=CostFeature.FUEL, slave=MAJOR_ROADS)
        local_distance = PreferenceVector(master=CostFeature.DISTANCE, slave=LOCAL_ROADS)
        palette = [
            arterial_time,
            major_time,
            arterial_time,
            major_fuel,
            arterial_time,
            local_distance,
            major_time,
            arterial_time,
        ]
        table: dict[tuple[int, int], PreferenceVector] = {}
        for a in range(n_zones):
            for b in range(n_zones):
                table[(a, b)] = palette[(a * 3 + b * 5) % len(palette)]
        return table

    def _trip_preference(
        self, driver: DriverProfile, source: VertexId, destination: VertexId
    ) -> PreferenceVector:
        """The preference governing this trip.

        With ``zone_preferences`` on, trips between hotspot zones follow the
        zone-pair preference table (coherent per region pair, the property L2R
        exploits); other trips fall back to a distance-based rule, and the
        driver's personal bias covers the remaining mid-range trips.
        """
        config = self._config
        if config.zone_preferences and self._zone_table:
            zone_s = self._zone_of.get(source)
            zone_d = self._zone_of.get(destination)
            if zone_s is not None and zone_d is not None:
                return self._zone_table[(zone_s, zone_d)]
        straight_km = (
            equirectangular_m(
                self._network.coordinates(source), self._network.coordinates(destination)
            )
            / 1000.0
        )
        if straight_km >= config.long_trip_km:
            return PreferenceVector(master=CostFeature.TRAVEL_TIME, slave=MAJOR_ROADS)
        if straight_km <= config.short_trip_km:
            return PreferenceVector(master=CostFeature.DISTANCE, slave=LOCAL_ROADS)
        return PreferenceVector(master=driver.preferred_cost, slave=driver.preferred_roads)

    def _departure_time(self) -> float:
        """Departure timestamp in seconds-of-day; bimodal peak / off-peak."""
        if self._rng.random() < self._config.peak_fraction:
            # Morning or evening peak.
            base = 8 * 3600 if self._rng.random() < 0.5 else 17 * 3600
            return base + self._rng.uniform(0, 3600)
        return self._rng.uniform(10 * 3600, 15 * 3600)
