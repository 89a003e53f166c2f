"""Train / test splitting of trajectory sets.

The paper uses a temporal split (first 18 months / 21 days for training, the
rest for testing).  The synthetic generator stamps departure times within a
day, so the library splits by a deterministic hash of the trajectory id
instead, which balances the distance bands better on synthetic data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..trajectories.models import MatchedTrajectory


@dataclass(frozen=True)
class TrainTestSplit:
    """A train / test partition of a trajectory set."""

    train: list[MatchedTrajectory]
    test: list[MatchedTrajectory]


def split_by_id(
    trajectories: Sequence[MatchedTrajectory], train_fraction: float = 0.75, modulus: int = 100
) -> TrainTestSplit:
    """Deterministic hash split on the trajectory id.

    ``round(train_fraction * modulus)`` of the ``modulus`` hash buckets train;
    rounding (not truncating) keeps fractions such as 0.29 that are not exact
    in binary from losing a bucket.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    threshold = round(train_fraction * modulus)
    train: list[MatchedTrajectory] = []
    test: list[MatchedTrajectory] = []
    for trajectory in trajectories:
        if (trajectory.trajectory_id * 2_654_435_761) % modulus < threshold:
            train.append(trajectory)
        else:
            test.append(trajectory)
    return TrainTestSplit(train=train, test=test)


def k_fold_partitions(
    items: Sequence, k: int = 5
) -> list[list]:
    """Deterministic round-robin partition into ``k`` folds (Fig. 9 setup)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    folds: list[list] = [[] for _ in range(k)]
    for index, item in enumerate(items):
        folds[index % k].append(item)
    return folds
