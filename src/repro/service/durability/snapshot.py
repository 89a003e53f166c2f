"""Atomic, CRC-stamped snapshots of the live cost state.

A snapshot is the compaction point of the durability layer: it captures the
:class:`~repro.network.compiled.graph.CostStore` arrays together with the
``cost_version`` they correspond to and a topology stamp (vertex/edge
counts plus a CRC of the CSR ``offsets``/``targets`` and the vertex ids), so
recovery can refuse a snapshot taken against a different graph.  Once the
*oldest* retained snapshot, at version *v*, is durable, every WAL segment
followed by one that starts at or below *v* is dead history and may be
deleted; newer records stay, since recovery falls back to that snapshot
when a newer one is damaged.

Publication is the classic atomic dance, in this exact order:

1. write the whole image to ``<name>.tmp`` in the snapshot directory,
2. flush + ``os.fsync`` the temp file (bytes durable under a temp name),
3. ``os.replace`` onto the final ``snapshot-<version>.snap`` name,
4. ``os.fsync`` the directory (the rename itself durable).

A crash between any two steps leaves either the previous snapshot intact or
the new one fully published — never a half-written file under the final
name.  Readers additionally verify a header CRC over the payload, so even a
snapshot damaged *after* publication (bit rot, truncation) is skipped in
favor of an older valid one rather than trusted.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from ...exceptions import ReproError
from ...network.compiled.graph import EDGE_COST_ATTRIBUTES
from .journal import _default_opener, _fsync_dir
from .killpoints import KillHook

if TYPE_CHECKING:  # pragma: no cover
    from ...network.compiled.graph import Topology
    from ...network.road_network import RoadNetwork

_MAGIC = b"RSNAP1\n"
_CRC = struct.Struct(">I")
SNAPSHOT_FORMAT_VERSION = 1

#: Published snapshots kept: the newest, and one to fall back to when the
#: newest turns out damaged.
RETAIN = 2


class SnapshotError(ReproError):
    """A snapshot could not be written, or no valid snapshot exists."""


def topology_stamp(topology: "Topology") -> dict:
    """The identity stamp of the graph a snapshot belongs to, as stored.

    Recovery compares stamps before adopting arrays: cost arrays are
    positional (slot-indexed), so replaying them onto a graph whose CSR
    layout differs would silently scramble every edge cost.  The stamp is
    :attr:`~repro.network.compiled.graph.Topology.stamp`; a snapshot file
    written when the CRC covered ``offsets`` / ``targets`` only carries
    another CRC and is refused as a topology mismatch, like any foreign
    snapshot (recovery then replays the journal from the model's state).
    """
    vertices, edges, crc = topology.stamp
    return {"vertices": vertices, "edges": edges, "crc": crc}


def final_state(network: "RoadNetwork") -> tuple[dict[str, np.ndarray], int]:
    """The comparable endpoint of a run: cost arrays + cost version."""
    return network.compiled().costs.export_arrays(), network.cost_version


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


@dataclass(frozen=True)
class SnapshotState:
    """One decoded, validated snapshot."""

    path: Path
    cost_version: int
    topology: dict
    arrays: dict[str, np.ndarray]


class SnapshotStore:
    """Bounded-retention store of atomic cost-state snapshots.

    The newest :data:`RETAIN` published snapshots are kept; older ones are
    deleted after each successful save.  Stale ``*.tmp`` leftovers from a
    crashed save are swept on open — they were never published, so deleting
    them is always safe.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        opener: Callable[[str, str], object] | None = None,
        kill: KillHook | None = None,
    ) -> None:
        self.directory = Path(directory)
        self._opener = opener or _default_opener
        self._kill = kill
        self.saves = 0
        self.pruned_snapshots = 0
        self.invalid_skipped = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        for leftover in self.directory.glob("*.tmp"):
            leftover.unlink()

    def _hit(self, point: str) -> None:
        if self._kill is not None:
            self._kill(point)

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def _path_for(self, cost_version: int) -> Path:
        return self.directory / f"snapshot-{cost_version:012d}.snap"

    def save(
        self,
        cost_version: int,
        arrays: Mapping[str, np.ndarray],
        topology: dict,
    ) -> Path:
        """Atomically publish a snapshot; returns its final path.

        Only after this returns may WAL segments below ``cost_version`` be
        pruned — the caller owns that ordering (see
        :class:`~repro.service.durability.manager.DurabilityManager`).
        """
        body = pickle.dumps(
            {
                "format": "repro-cost-snapshot",
                "format_version": SNAPSHOT_FORMAT_VERSION,
                "cost_version": int(cost_version),
                "topology": dict(topology),
                "arrays": {name: np.asarray(array) for name, array in arrays.items()},
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        blob = _MAGIC + _CRC.pack(zlib.crc32(body)) + body
        final = self._path_for(cost_version)
        scratch = final.with_suffix(final.suffix + ".tmp")
        self._hit("snapshot.pre-write")
        with self._opener(str(scratch), "wb") as handle:
            handle.write(blob)
            self._hit("snapshot.pre-fsync")
            handle.flush()
            os.fsync(handle.fileno())
        self._hit("snapshot.pre-rename")
        os.replace(scratch, final)
        _fsync_dir(self.directory)
        self._hit("snapshot.post-rename")
        self.saves += 1
        self._apply_retention()
        return final

    def _apply_retention(self) -> None:
        published = self.snapshot_paths()
        for stale in published[:-RETAIN]:
            stale.unlink()
            self.pruned_snapshots += 1
        if len(published) > RETAIN:
            _fsync_dir(self.directory)

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def snapshot_paths(self) -> list[Path]:
        """Published snapshot files, oldest first (names sort by version)."""
        return sorted(self.directory.glob("snapshot-*.snap"))

    def oldest_version(self) -> int | None:
        """Cost version of the oldest published snapshot, ``None`` while
        fewer than :data:`RETAIN` are published.

        The WAL must keep every record from here on: :meth:`latest` falls
        back to this snapshot when the newer ones are damaged.  A lone
        snapshot has nothing to fall back on, so the WAL is kept whole until
        a second one is published.
        """
        published = self.snapshot_paths()
        return int(published[0].stem.split("-", 1)[1]) if len(published) >= RETAIN else None

    def _decode(self, path: Path) -> SnapshotState | None:
        """The snapshot in ``path``, ``None`` if its bytes are invalid.

        A failed read raises :class:`OSError`: the file may be fine.
        """
        blob = path.read_bytes()
        if not blob.startswith(_MAGIC) or len(blob) < len(_MAGIC) + _CRC.size:
            return None
        (crc,) = _CRC.unpack_from(blob, len(_MAGIC))
        body = blob[len(_MAGIC) + _CRC.size :]
        if zlib.crc32(body) != crc:
            return None
        try:
            state = pickle.loads(body)
        except Exception:  # noqa: BLE001 - damaged payload == invalid snapshot
            return None
        if (
            not isinstance(state, dict)
            or state.get("format") != "repro-cost-snapshot"
            or state.get("format_version") != SNAPSHOT_FORMAT_VERSION
        ):
            return None
        try:
            return SnapshotState(
                path=path,
                cost_version=int(state["cost_version"]),
                topology=dict(state["topology"]),
                arrays={name: np.asarray(a) for name, a in state["arrays"].items()},
            )
        except (KeyError, TypeError, ValueError, AttributeError):
            return None  # an intact body of the wrong shape == invalid snapshot

    def latest(self, *, topology: dict | None = None) -> SnapshotState | None:
        """Newest snapshot that validates (and, if given, matches ``topology``).

        Damaged or mismatched snapshots are skipped, not errors: recovery
        falls back to the next-oldest valid image plus a longer WAL replay.
        A file whose bytes are invalid is deleted: no recovery can use it,
        and it must not count as a retained snapshot that the WAL is pruned
        through.  A file that cannot be read now (``EIO``, ``EMFILE``,
        ``EACCES``) is skipped but kept, so a retry can still use it.
        """
        for path in reversed(self.snapshot_paths()):
            try:
                state = self._decode(path)
            except OSError:
                self.invalid_skipped += 1
                continue
            if state is None:
                self.invalid_skipped += 1
                path.unlink(missing_ok=True)
                _fsync_dir(self.directory)
                continue
            if topology is not None and state.topology != topology:
                self.invalid_skipped += 1
                continue
            return state
        return None
