"""Simulated crashes and a crash-recovery harness for the durability layer.

A :class:`KillSwitch` armed on one
:data:`~repro.service.durability.killpoints.KILL_POINTS` name is the
``kill=`` hook of a :class:`~repro.service.durability.DurabilityManager`: it
raises :class:`SimulatedCrash` the first time execution reaches the point,
which the harness treats as the process dying on the spot.

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
chosen so each point actually fires (512-byte segments for rotation, a
mid-sequence snapshot for the snapshot points) and reports a
:class:`ChaosResult` per point; a point that never fired is still checked
(the run degenerates to fault-free) but flagged ``crashed=False``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.service.durability import (
    KILL_POINTS,
    DurabilityManager,
    RecoveryReport,
    final_state,
    states_identical,
)
from repro.traffic.feed import TrafficFeed

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.road_network import RoadNetwork
    from repro.traffic.updates import TrafficUpdate


class SimulatedCrash(RuntimeError):
    """The simulated process death raised by an armed :class:`KillSwitch`.

    Deliberately *not* an ``OSError``: the durability code must never catch
    it — it unwinds through every layer like a real crash would, and only
    the test harness (standing in for init/systemd) is allowed to observe
    it.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at kill point {point!r}")
        self.point = point


class KillSwitch:
    """Raise :class:`SimulatedCrash` the first time ``point`` is hit.

    Thread-safe and single-shot: once fired it never fires again, so the
    recovery that follows can reuse the same hook (or none).
    """

    def __init__(self, point: str) -> None:
        if point not in KILL_POINTS:
            raise ValueError(
                f"unknown kill point {point!r}; known points: {KILL_POINTS}"
            )
        self.point = point
        self.fired = False
        self._lock = threading.Lock()

    def __call__(self, name: str) -> None:
        with self._lock:
            if self.fired or name != self.point:
                return
            self.fired = True
        raise SimulatedCrash(name)


NetworkFactory = Callable[[], "RoadNetwork"]
Batch = Sequence["TrafficUpdate"]

#: WAL segment size of the harness runs: small, so the rotation points fire.
SEGMENT_MAX_BYTES = 512


@dataclass
class ChaosResult:
    """Outcome of one crash-at-point / recover / resume / compare cycle."""

    point: str
    crashed: bool
    report: RecoveryReport
    identical: bool
    detail: str = ""


def reference_state(
    make_network: NetworkFactory, batches: Sequence[Batch]
) -> tuple[dict[str, np.ndarray], int]:
    """Apply every batch with no durability layer; the ground truth."""
    network = make_network()
    feed = TrafficFeed(network)
    for batch in batches:
        feed.apply(batch)
    return final_state(network)


def crash_and_recover(
    make_network: NetworkFactory,
    batches: Sequence[Batch],
    directory: str | Path,
    point: str,
    *,
    snapshot_after: int,
    reference: tuple[dict[str, np.ndarray], int] | None = None,
) -> ChaosResult:
    """Crash at ``point``, recover, resume, and compare to the reference.

    ``batches`` must all be effective (see module docstring).  The crashed
    run's manager is deliberately never closed — a simulated process death
    leaves no one to flush; recovery must cope with whatever the directory
    holds.  A snapshot after batch ``snapshot_after`` is what puts the
    ``snapshot.*`` kill points in the execution path.
    """
    directory = Path(directory)
    if reference is None:
        reference = reference_state(make_network, batches)

    network = make_network()
    initial_version = network.cost_version
    switch = KillSwitch(point)
    manager = DurabilityManager(directory, segment_max_bytes=SEGMENT_MAX_BYTES, kill=switch)
    feed = TrafficFeed(network)
    feed.attach_journal(manager)
    try:
        for index, batch in enumerate(batches):
            feed.apply(batch)
            if index == snapshot_after:
                manager.snapshot(network)
    except SimulatedCrash:
        pass
    # The crashed manager is abandoned, never closed: its open handles die
    # with the "process", and only the bytes already on disk survive.

    recovered = make_network()
    with DurabilityManager(directory, segment_max_bytes=SEGMENT_MAX_BYTES) as recovery_manager:
        recovered_feed = TrafficFeed(recovered)
        report = recovery_manager.recover(recovered, recovered_feed)
        durable_prefix = report.recovered_version - initial_version
        if not 0 <= durable_prefix <= len(batches):
            return ChaosResult(
                point=point,
                crashed=switch.fired,
                report=report,
                identical=False,
                detail=(
                    f"recovered version {report.recovered_version} is outside "
                    f"[{initial_version}, {initial_version + len(batches)}]"
                ),
            )
        recovered_feed.attach_journal(recovery_manager)
        for batch in batches[durable_prefix:]:
            recovered_feed.apply(batch)
        identical = states_identical(final_state(recovered), reference)
        return ChaosResult(
            point=point,
            crashed=switch.fired,
            report=report,
            identical=identical,
            detail="" if identical else "recovered+resumed state diverged",
        )


def run_killpoint_matrix(
    make_network: NetworkFactory, batches: Sequence[Batch], root: str | Path
) -> list[ChaosResult]:
    """One :func:`crash_and_recover` cycle per kill point, isolated dirs,
    with the snapshot after the middle batch.  The reference run is
    computed once and shared."""
    root = Path(root)
    reference = reference_state(make_network, batches)
    return [
        crash_and_recover(
            make_network,
            batches,
            root / point.replace(".", "_").replace("-", "_"),
            point,
            snapshot_after=len(batches) // 2,
            reference=reference,
        )
        for point in KILL_POINTS
    ]
