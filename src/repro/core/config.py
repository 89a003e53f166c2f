"""Configuration of the learn-to-route (L2R) pipeline.

One configuration fits one region graph over all training trajectories;
departure times are recorded on requests but select nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ConfigurationError
from ..preferences.apply import ApplyConfig
from ..preferences.transfer import TransferConfig


@dataclass(frozen=True)
class L2RConfig:
    """All knobs of the L2R pipeline, with the paper's defaults."""

    enforce_road_types: bool = True
    """Apply the Table I road-type constraints during clustering."""
    functionality_top_k: int = 2
    """Number of top road types describing a region's functionality (re.F)."""
    max_paths_per_t_edge: int = 12
    """Cap on ground-truth paths used when learning a T-edge's preference."""
    max_region_pairs_per_trajectory: int | None = 200
    """Cap on T-edges produced by a single trajectory (m*(m-1)/2 blow-up)."""
    transfer: TransferConfig = field(default_factory=TransferConfig)
    apply: ApplyConfig = field(default_factory=ApplyConfig)
    max_region_hops: int = 64
    """Safety cap on the number of region edges followed by one routing query."""

    def __post_init__(self) -> None:
        if self.functionality_top_k < 1:
            raise ConfigurationError("functionality_top_k must be at least 1")
        if self.max_paths_per_t_edge < 1:
            raise ConfigurationError("max_paths_per_t_edge must be at least 1")
        if not 0.0 <= self.transfer.amr <= 2.0:
            raise ConfigurationError("transfer.amr must lie in [0, 2] (reSim range)")
        if self.max_region_hops < 1:
            raise ConfigurationError("max_region_hops must be at least 1")
