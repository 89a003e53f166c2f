"""Configuration of the learn-to-route (L2R) pipeline.

One configuration fits one region graph over all training trajectories;
departure times are recorded on requests but select nothing.  The one
setting is the transfer step's: Fig. 9 and the ablations vary its ``amr``.
Every other knob of the fit is a constant beside the code that reads it:
``regions.region_graph`` (functionality top-k, region pairs per
trajectory), ``preferences.learning`` (paths per T-edge, minimum
improvement), ``preferences.transfer`` (``mu1``, ``mu2``, null threshold),
``preferences.apply`` (transfer-centre pairs per B-edge) and
``core.router`` (region hops per query).  Clustering always applies the
Table I road-type rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ConfigurationError
from ..preferences.transfer import TransferConfig


@dataclass(frozen=True)
class L2RConfig:
    """The L2R pipeline's one setting, with the paper's default."""

    transfer: TransferConfig = field(default_factory=TransferConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.transfer.amr <= 2.0:
            raise ConfigurationError("transfer.amr must lie in [0, 2] (reSim range)")
