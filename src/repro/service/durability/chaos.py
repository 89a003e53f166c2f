"""Deterministic crash-recovery harness for the durability layer.

The harness answers one question, mechanically, for every instrumented
crash instant: *if the process dies exactly here, does restart + recovery
reach the same cost state an uninterrupted run reaches?*  It does so by
running the same batch sequence three ways:

1. **Reference** — apply every batch to a fresh network, no durability at
   all; capture the final arrays and ``cost_version``.
2. **Crashed run** — fresh network + :class:`DurabilityManager` armed with
   a :class:`KillSwitch`; apply batches until :class:`SimulatedCrash`
   unwinds, then abandon every handle exactly as ``kill -9`` would.
3. **Recovery + resume** — a new manager over the same directory repairs
   the journal, restores the newest snapshot, replays the WAL suffix, and
   the harness re-applies the batches recovery proved *not* durable.

Step 3's resume set is derived from version arithmetic, which is why the
harness requires **effective** batches (each must change at least one
cost): every applied batch then bumps ``cost_version`` by exactly one, so
``recovered_version - initial_version`` counts the durably-logged prefix —
including a batch whose record hit disk but whose apply never ran (the
write-ahead limbo case: the client never got an acknowledgment, and
recovery's redo of the record is the WAL contract working as designed).

:func:`run_killpoint_matrix` sweeps :data:`KILL_POINTS` with parameters
chosen so each point actually fires (tiny segments for rotation, a
mid-sequence snapshot for the snapshot points) and reports a
:class:`ChaosResult` per point; a point that never fired is still checked
(the run degenerates to fault-free) but flagged ``crashed=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ...network.compiled.graph import EDGE_COST_ATTRIBUTES
from ...traffic.feed import TrafficFeed
from .killpoints import KILL_POINTS, KillSwitch, SimulatedCrash
from .manager import DurabilityManager, RecoveryReport

if TYPE_CHECKING:  # pragma: no cover
    from ...network.road_network import RoadNetwork
    from ...traffic.updates import TrafficUpdate

NetworkFactory = Callable[[], "RoadNetwork"]
Batch = Sequence["TrafficUpdate"]


@dataclass
class ChaosResult:
    """Outcome of one crash-at-point / recover / resume / compare cycle."""

    point: str
    hits: int
    crashed: bool
    crash_batch: int | None
    report: RecoveryReport | None
    resumed: int
    identical: bool
    detail: str = ""


def final_state(network: "RoadNetwork") -> tuple[dict[str, np.ndarray], int]:
    """The comparable endpoint of a run: cost arrays + cost version."""
    return network.compiled().costs.export_arrays(), network.cost_version


def reference_state(
    make_network: NetworkFactory, batches: Sequence[Batch]
) -> tuple[dict[str, np.ndarray], int]:
    """Apply every batch with no durability layer; the ground truth."""
    network = make_network()
    feed = TrafficFeed(network)
    for batch in batches:
        feed.apply(batch)
    return final_state(network)


def states_identical(
    left: tuple[dict[str, np.ndarray], int],
    right: tuple[dict[str, np.ndarray], int],
) -> bool:
    """Bit-identical comparison: exact version, exact float arrays."""
    if left[1] != right[1]:
        return False
    return all(
        np.array_equal(left[0][attr], right[0][attr])
        for attr in EDGE_COST_ATTRIBUTES
    )


def crash_and_recover(
    make_network: NetworkFactory,
    batches: Sequence[Batch],
    directory: str | Path,
    point: str,
    *,
    hits: int = 1,
    fsync: str = "always",
    segment_max_bytes: int = 1 << 20,
    snapshot_after: int | None = None,
    reference: tuple[dict[str, np.ndarray], int] | None = None,
) -> ChaosResult:
    """Crash at ``point``, recover, resume, and compare to the reference.

    ``batches`` must all be effective (see module docstring).  The crashed
    run's manager is deliberately never closed — a simulated process death
    leaves no one to flush; recovery must cope with whatever the directory
    holds.  ``snapshot_after`` takes a snapshot after that batch index,
    which is what puts the ``snapshot.*`` kill points in the execution
    path.
    """
    directory = Path(directory)
    if reference is None:
        reference = reference_state(make_network, batches)

    network = make_network()
    initial_version = network.cost_version
    switch = KillSwitch(point, hits)
    manager = DurabilityManager(
        directory, fsync=fsync, segment_max_bytes=segment_max_bytes, kill=switch
    )
    feed = TrafficFeed(network)
    feed.attach_journal(manager)
    crash_batch: int | None = None
    try:
        for index, batch in enumerate(batches):
            feed.apply(batch)
            if snapshot_after is not None and index == snapshot_after:
                manager.snapshot(network)
    except SimulatedCrash:
        crash_batch = index
    # The crashed manager is abandoned, never closed: its open handles die
    # with the "process", and only the bytes already on disk survive.

    recovered = make_network()
    recovery_manager = DurabilityManager(
        directory, fsync=fsync, segment_max_bytes=segment_max_bytes
    )
    try:
        recovered_feed = TrafficFeed(recovered)
        report = recovery_manager.recover(recovered, recovered_feed)
        durable_prefix = report.recovered_version - initial_version
        if durable_prefix < 0 or durable_prefix > len(batches):
            return ChaosResult(
                point=point,
                hits=hits,
                crashed=crash_batch is not None,
                crash_batch=crash_batch,
                report=report,
                resumed=0,
                identical=False,
                detail=(
                    f"recovered version {report.recovered_version} is outside "
                    f"[{initial_version}, {initial_version + len(batches)}]"
                ),
            )
        remaining = batches[durable_prefix:]
        recovered_feed.attach_journal(recovery_manager)
        for batch in remaining:
            recovered_feed.apply(batch)
        identical = states_identical(final_state(recovered), reference)
        return ChaosResult(
            point=point,
            hits=hits,
            crashed=crash_batch is not None,
            crash_batch=crash_batch,
            report=report,
            resumed=len(remaining),
            identical=identical,
            detail="" if identical else "recovered+resumed state diverged",
        )
    finally:
        recovery_manager.close()


def run_killpoint_matrix(
    make_network: NetworkFactory,
    batches: Sequence[Batch],
    root: str | Path,
    *,
    points: Sequence[str] = KILL_POINTS,
    hits: int = 1,
    fsync: str = "always",
    segment_max_bytes: int = 512,
    snapshot_after: int | None = None,
) -> list[ChaosResult]:
    """One :func:`crash_and_recover` cycle per kill point, isolated dirs.

    ``segment_max_bytes`` defaults tiny so rotation points fire; pass
    ``snapshot_after`` (e.g. the middle batch) to put the snapshot points
    in play.  The reference run is computed once and shared.
    """
    root = Path(root)
    reference = reference_state(make_network, batches)
    if snapshot_after is None:
        snapshot_after = len(batches) // 2
    results = []
    for point in points:
        results.append(
            crash_and_recover(
                make_network,
                batches,
                root / point.replace(".", "_").replace("-", "_"),
                point,
                hits=hits,
                fsync=fsync,
                segment_max_bytes=segment_max_bytes,
                snapshot_after=snapshot_after,
                reference=reference,
            )
        )
    return results
