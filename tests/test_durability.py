"""Crash-consistent durability: WAL framing, rotation and retention,
snapshots, decoders under damaged bytes, seeded disk faults.

Torn or corrupted records are detected and discarded, never silently
replayed; a defect in the middle of the chain quarantines everything after
it.  Whole-stack recovery — a crash at every
:data:`~repro.service.durability.KILL_POINTS` entry, snapshot fallback, the
WAL suffix, the service and sharded restarts — is checked against a model by
``tests/test_oracle.py``.
"""

from __future__ import annotations

import errno
import os
import pickle
import random
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_cost_coherence
from repro.network import grid_city_network
from repro.network.compiled.graph import EDGE_COST_ATTRIBUTES
from repro.service import (
    DiskJournal,
    DurabilityManager,
    FaultInjector,
    JournalError,
    JournalRecord,
    RecoveryError,
    SnapshotStore,
    load_model,
    save_model,
)
from repro.service.durability import final_state, states_identical, topology_stamp
from repro.service.durability import journal as journal_module
from repro.service.durability import snapshot as snapshot_module
from repro.service.durability.journal import _HEADER, FSYNC_INTERVAL
from repro.traffic import TrafficFeed
from repro.traffic.updates import TrafficUpdate

from support.crash import KillSwitch, SimulatedCrash
from support.disk import faulty_disk


def _record(version: int, payload: object = None) -> JournalRecord:
    return JournalRecord(
        kind="traffic", base_version=version, payload=payload or ("p", version)
    )


def _effective_batches(network, count: int, seed: int, size: int = 3):
    """Batches guaranteed to change at least one cost each (scale != 1)."""
    rng = random.Random(seed)
    edges = [(e.source, e.target) for e in network.edges()]
    batches = []
    for _ in range(count):
        batches.append(
            [
                TrafficUpdate.scale_by(
                    *rng.choice(edges), travel_time_s=rng.uniform(1.1, 2.5)
                )
                for _ in range(size)
            ]
        )
    return batches


def _make_network_factory(width=4, height=4, seed=7):
    return lambda: grid_city_network(width, height, seed=seed)


# -------------------------------------------------------------------- #
# DiskJournal: framing, repair, rotation, retention
# -------------------------------------------------------------------- #
class TestDiskJournal:
    def test_round_trip_preserves_records_and_order(self, tmp_path):
        with DiskJournal(tmp_path) as journal:
            for version in range(5):
                journal.append(_record(version))
            scan = journal.read_records()
        assert [r.base_version for r in scan.records] == [0, 1, 2, 3, 4]
        assert not scan.truncated and scan.dropped_bytes == 0

    def test_records_survive_reopen(self, tmp_path):
        with DiskJournal(tmp_path) as journal:
            journal.append(_record(1))
            journal.append(_record(2))
        with DiskJournal(tmp_path) as journal:
            assert [r.base_version for r in journal.read_records().records] == [1, 2]

    def test_torn_tail_is_truncated_not_replayed(self, tmp_path):
        with DiskJournal(tmp_path) as journal:
            journal.append(_record(1))
            journal.append(_record(2))
            (segment,) = journal.segment_paths()
        # Tear the final frame: keep its header plus half the payload.
        data = segment.read_bytes()
        records, _, _ = [], 0, True
        offset = 0
        frames = []
        while offset < len(data):
            length, _crc = _HEADER.unpack_from(data, offset)
            end = offset + _HEADER.size + length
            frames.append((offset, end))
            offset = end
        start, end = frames[-1]
        segment.write_bytes(data[: start + _HEADER.size + (end - start) // 4])
        reopened = DiskJournal(tmp_path)
        try:
            scan = reopened.read_records()
            assert [r.base_version for r in scan.records] == [1]
            assert reopened.torn_records_dropped == 1
            # The truncation is in place: a third append lands cleanly after
            # record 1 and the log stays replayable.
            reopened.append(_record(2))
            assert [
                r.base_version for r in reopened.read_records().records
            ] == [1, 2]
        finally:
            reopened.close()

    def test_corrupt_record_poisons_the_suffix(self, tmp_path):
        with DiskJournal(tmp_path) as journal:
            for version in range(4):
                journal.append(_record(version))
            (segment,) = journal.segment_paths()
        data = bytearray(segment.read_bytes())
        # Flip one payload byte of the SECOND frame: records 2 and 3 sit past
        # a broken link and must not be bridged.
        length, _ = _HEADER.unpack_from(data, 0)
        second = _HEADER.size + length
        data[second + _HEADER.size + 1] ^= 0xFF
        segment.write_bytes(bytes(data))
        with DiskJournal(tmp_path) as journal:
            scan = journal.read_records()
        assert [r.base_version for r in scan.records] == [0]
        assert scan.truncated is False or scan.dropped_bytes == 0  # repaired on open

    def test_mid_chain_defect_quarantines_later_segments(self, tmp_path):
        with DiskJournal(tmp_path) as journal:
            for version in range(4):
                journal.rotate(version)
                journal.append(_record(version))  # one record per segment
            segments = journal.segment_paths()
            assert len(segments) == 4
        # Corrupt the second segment's payload; segments 3+ must be deleted.
        victim = segments[1]
        data = bytearray(victim.read_bytes())
        data[_HEADER.size + 1] ^= 0xFF
        victim.write_bytes(bytes(data))
        journal = DiskJournal(tmp_path)
        try:
            assert journal.discarded_segments >= 2
            scan = journal.read_records()
            assert [r.base_version for r in scan.records] == [0]
        finally:
            journal.close()

    def test_rotate_starts_a_segment_named_by_its_start_version(self, tmp_path):
        with DiskJournal(tmp_path) as journal:
            journal.append(_record(0))
            journal.rotate(1)
            journal.append(_record(1))
            journal.append(_record(2))
            journal.rotate(3)
            journal.rotate(3)  # a segment already starts there: no new file
            journal.append(_record(3))
            names = [path.name for path in journal.segment_paths()]
            assert names == [
                "wal-000000000000.seg", "wal-000000000001.seg", "wal-000000000003.seg"
            ]
        with DiskJournal(tmp_path) as journal:  # appends resume in the newest segment
            journal.append(_record(4))
            assert len(journal.segment_paths()) == 3
            scan = journal.read_records()
        assert [r.base_version for r in scan.records] == [0, 1, 2, 3, 4]

    def test_prune_through_deletes_only_covered_sealed_segments(self, tmp_path):
        with DiskJournal(tmp_path) as journal:
            for start in (0, 2, 4):
                journal.rotate(start)
                journal.append(_record(start))
                journal.append(_record(start + 1))
            # wal-0 is followed by wal-2, at or below 2: records 0 and 1 are
            # covered.  wal-2 itself starts at 2 and holds records 2 and 3,
            # which a snapshot at 2 or 3 does not cover.
            assert journal.prune_through(2) == 1
            assert journal.prune_through(3) == 0
            scan = journal.read_records()
            assert [r.base_version for r in scan.records] == [2, 3, 4, 5]
            # The active segment is never pruned, whatever the version.
            assert journal.prune_through(10**9) == 1
            assert [path.name for path in journal.segment_paths()] == ["wal-000000000004.seg"]

    def test_fsync_policy_validation_and_counting(self, tmp_path, monkeypatch):
        for unknown in ("sometimes", "never"):
            with pytest.raises(JournalError):
                DiskJournal(tmp_path / unknown, fsync=unknown)
        with DiskJournal(tmp_path / "c", fsync="always") as journal:
            journal.append(_record(1))
            journal.append(_record(2))
            assert journal.syncs == 2
        monkeypatch.setattr(journal_module, "FSYNC_INTERVAL", 3)
        with DiskJournal(tmp_path / "d", fsync="interval") as journal:
            for version in range(7):
                journal.append(_record(version))
            assert journal.syncs == 2  # after the 3rd and 6th appends

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = DiskJournal(tmp_path)
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(JournalError):
            journal.append(_record(1))

    def test_oversized_record_is_rejected_before_touching_disk(self, tmp_path):
        with DiskJournal(tmp_path) as journal:
            blob = b"x" * (journal_module._MAX_RECORD_BYTES + 1)
            with pytest.raises(JournalError):
                journal.append(_record(1, payload=blob))
            assert journal.read_records().records == []


# -------------------------------------------------------------------- #
# SnapshotStore: atomic publish, validation, retention
# -------------------------------------------------------------------- #
def _arrays(edge_count: int, fill: float = 2.0) -> dict[str, np.ndarray]:
    return {
        attr: np.full(edge_count, fill, dtype=np.float64)
        for attr in EDGE_COST_ATTRIBUTES
    }


STAMP = {"vertices": 3, "edges": 4, "crc": 123}


class TestSnapshotStore:
    def test_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(7, _arrays(4), STAMP)
        state = store.latest()
        assert state is not None and state.cost_version == 7
        assert state.topology == STAMP
        for attr in EDGE_COST_ATTRIBUTES:
            assert np.array_equal(state.arrays[attr], _arrays(4)[attr])

    def test_latest_prefers_newest_valid(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(1, _arrays(4, 1.0), STAMP)
        store.save(2, _arrays(4, 2.0), STAMP)
        assert store.latest().cost_version == 2

    def test_corrupt_snapshot_is_skipped_for_an_older_valid_one(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(1, _arrays(4, 1.0), STAMP)
        newest = store.save(2, _arrays(4, 2.0), STAMP)
        blob = bytearray(newest.read_bytes())
        blob[-1] ^= 0xFF
        newest.write_bytes(bytes(blob))
        state = store.latest()
        assert state.cost_version == 1
        assert store.invalid_skipped == 1

    def test_truncated_snapshot_is_invalid(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = store.save(3, _arrays(4), STAMP)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert store.latest() is None

    def test_topology_mismatch_is_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(3, _arrays(4), STAMP)
        other = dict(STAMP, crc=999)
        assert store.latest(topology=other) is None
        assert store.latest(topology=STAMP) is not None

    def test_retention_prunes_oldest(self, tmp_path):
        store = SnapshotStore(tmp_path)  # keeps the newest two
        for version in (1, 2, 3, 4):
            store.save(version, _arrays(4), STAMP)
        names = [p.name for p in store.snapshot_paths()]
        assert names == ["snapshot-000000000003.snap", "snapshot-000000000004.snap"]
        assert store.pruned_snapshots == 2

    def test_stale_tmp_files_are_swept_on_open(self, tmp_path):
        (tmp_path / "snapshot-000000000009.snap.tmp").write_bytes(b"half")
        store = SnapshotStore(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
        assert store.latest() is None  # the tmp was never published

    def test_crash_before_rename_leaves_previous_snapshot_intact(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(1, _arrays(4, 1.0), STAMP)
        crashing = SnapshotStore(tmp_path, kill=KillSwitch("snapshot.pre-rename"))
        with pytest.raises(SimulatedCrash):
            crashing.save(2, _arrays(4, 2.0), STAMP)
        reopened = SnapshotStore(tmp_path)
        assert reopened.latest().cost_version == 1

    def test_topology_stamp_detects_layout_changes(self):
        small = grid_city_network(3, 3, seed=1).compiled().topology
        large = grid_city_network(4, 4, seed=1).compiled().topology
        assert topology_stamp(small) == topology_stamp(small)
        assert topology_stamp(small) != topology_stamp(large)

    @pytest.mark.parametrize(
        "name, value",
        [("cost_version", None), ("cost_version", "x"), ("topology", 5)],
        ids=["no-cost-version", "cost-version-not-a-number", "topology-not-a-mapping"],
    )
    def test_intact_body_of_the_wrong_shape_is_invalid(self, tmp_path, name, value):
        store = SnapshotStore(tmp_path)
        store.save(1, _arrays(4, 1.0), STAMP)
        state = {
            "format": "repro-cost-snapshot",
            "format_version": snapshot_module.SNAPSHOT_FORMAT_VERSION,
            "cost_version": 2,
            "topology": dict(STAMP),
            "arrays": _arrays(4, 2.0),
        }
        if value is None:
            del state[name]
        else:
            state[name] = value
        body = pickle.dumps(state)  # a valid CRC over malformed contents
        newest = tmp_path / "snapshot-000000000002.snap"
        newest.write_bytes(
            snapshot_module._MAGIC + snapshot_module._CRC.pack(zlib.crc32(body)) + body
        )
        assert store._decode(newest) is None
        assert store.latest().cost_version == 1  # falls back to the older one
        assert store.invalid_skipped == 1


# -------------------------------------------------------------------- #
# Both disk decoders under damaged bytes
# -------------------------------------------------------------------- #
_WRITTEN = [_record(version, payload=("p", version, "x" * version)) for version in range(4)]
_SEGMENT = b"".join(journal_module._encode_frame(record) for record in _WRITTEN)


def _damaged(blob: bytes):
    """``blob`` truncated at any offset, with any one bit flipped, or with
    random bytes appended."""

    def flip(bit: int) -> bytes:
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
        return bytes(damaged)

    return st.one_of(
        st.integers(min_value=0, max_value=len(blob) - 1).map(lambda end: blob[:end]),
        st.integers(min_value=0, max_value=8 * len(blob) - 1).map(flip),
        st.binary(min_size=1, max_size=64).map(lambda tail: blob + tail),
    )


@pytest.fixture(scope="module")
def saved_snapshot(tmp_path_factory):
    """A published snapshot and its bytes."""
    store = SnapshotStore(tmp_path_factory.mktemp("snapshots"))
    path = store.save(5, _arrays(4, 3.0), STAMP)
    return store, path.read_bytes()


class TestDecoderFuzz:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_damaged(_SEGMENT))
    def test_scan_frames_returns_a_prefix_of_the_written_records(self, buffer):
        records, valid_end, clean = journal_module._scan_frames(buffer)
        assert records == _WRITTEN[: len(records)]
        assert 0 <= valid_end <= len(buffer)
        assert clean == (valid_end == len(buffer))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_snapshot_decode_returns_none_or_the_saved_state(self, saved_snapshot, data):
        store, blob = saved_snapshot
        damaged = store.directory / "damaged.snap"
        damaged.write_bytes(data.draw(_damaged(blob)))
        state = store._decode(damaged)
        if state is not None:
            assert (state.cost_version, state.topology) == (5, STAMP)
            assert state.arrays.keys() == _arrays(4).keys()
            for name, array in _arrays(4, 3.0).items():
                assert np.array_equal(state.arrays[name], array)


# -------------------------------------------------------------------- #
# DurabilityManager: end-to-end recovery semantics
# -------------------------------------------------------------------- #
class TestRecovery:
    def test_snapshot_prunes_covered_wal_segments(self, tmp_path):
        network = _make_network_factory()()
        feed = TrafficFeed(network)
        batches = _effective_batches(network, 8, seed=3)

        def starts():
            return [int(p.stem.split("-")[1]) for p in manager.journal.segment_paths()]

        with DurabilityManager(tmp_path) as manager:
            feed.attach_journal(manager)
            for batch in batches[:5]:
                feed.apply(batch)
            manager.snapshot(network)
            # Each snapshot starts a segment; a lone snapshot has nothing to
            # fall back on, so the WAL stays whole.
            assert starts() == [0, 5]
            for batch in batches[5:7]:
                feed.apply(batch)
            manager.snapshot(network)
            assert starts() == [5, 7]
            feed.apply(batches[7])
            manager.snapshot(network)
            assert starts() == [7, 8]

    def test_unreadable_snapshots_are_kept_for_a_retry(self, tmp_path, monkeypatch):
        network = _make_network_factory()()
        feed = TrafficFeed(network)
        batches = iter(_effective_batches(network, 4, seed=3))
        with DurabilityManager(tmp_path) as manager:
            feed.attach_journal(manager)
            feed.apply(next(batches))
            manager.snapshot(network)
            feed.apply(next(batches))
            newest = manager.snapshot(network)
            for batch in batches:
                feed.apply(batch)
        snapshots = sorted(tmp_path.rglob("*.snap"))
        assert len(snapshots) == 2

        read_bytes = Path.read_bytes

        def out_of_descriptors(path):
            if path.suffix == ".snap":
                raise OSError(errno.EMFILE, "Too many open files")
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", out_of_descriptors)
        with DurabilityManager(tmp_path) as manager:
            manager.recover(_make_network_factory()())
        assert all(path.exists() for path in snapshots)
        monkeypatch.undo()

        recovered = _make_network_factory()()
        with DurabilityManager(tmp_path) as manager:
            report = manager.recover(recovered, TrafficFeed(recovered))
        assert not report.gap and report.verified
        assert report.snapshot_path == str(newest)
        assert states_identical(final_state(recovered), final_state(network))

    def test_verification_failure_raises_recovery_error(self, tmp_path):
        network = _make_network_factory()()
        edge_count = network.compiled().topology.edge_count
        store = SnapshotStore(tmp_path / "snapshots")
        poisoned = {
            attr: np.full(edge_count, -1.0, dtype=np.float64)
            for attr in EDGE_COST_ATTRIBUTES
        }
        store.save(
            network.cost_version + 1,
            poisoned,
            topology_stamp(network.compiled().topology),
        )
        with DurabilityManager(tmp_path) as manager:
            with pytest.raises(RecoveryError):
                manager.recover(network)

    def test_coherence_check_passes_on_live_network(self):
        network = _make_network_factory()()
        sanitizer = check_cost_coherence(network)
        assert sanitizer.ok


# -------------------------------------------------------------------- #
# Seeded disk faults (support.disk)
# -------------------------------------------------------------------- #
class TestDiskFaults:
    def test_write_script_actions(self, tmp_path):
        disk = faulty_disk(
            FaultInjector(seed=1), write_script=["ok", "eio", "enospc", "short", "ok"]
        )
        target = tmp_path / "f.bin"
        handle = disk(str(target), "wb")
        assert handle.write(b"aaaa") == 4
        with pytest.raises(OSError) as eio:
            handle.write(b"bbbb")
        assert eio.value.errno == __import__("errno").EIO
        with pytest.raises(OSError) as enospc:
            handle.write(b"cccc")
        assert enospc.value.errno == __import__("errno").ENOSPC
        with pytest.raises(OSError):
            handle.write(b"dddd")  # short: seeded prefix buffered, then EIO
        handle.write(b"eeee")
        handle.close()
        counters = disk.write_counters
        assert counters.short_writes == 1
        assert counters.disk_errors == 2
        assert counters.lost_bytes >= 1  # at least the short write's cut

    def test_crash_before_fsync_loses_buffered_bytes(self, tmp_path):
        disk = faulty_disk(FaultInjector(seed=2), flush_script=["crash-before-fsync"])
        target = tmp_path / "f.bin"
        handle = disk(str(target), "wb")
        handle.write(b"doomed")
        with pytest.raises(SimulatedCrash):
            handle.flush()
        handle.inner.close()  # simulate process death without close()
        assert target.read_bytes() == b""
        assert disk.flush_counters.lost_bytes == 6

    def test_crash_after_fsync_keeps_the_bytes(self, tmp_path):
        disk = faulty_disk(FaultInjector(seed=3), flush_script=["crash-after-fsync"])
        target = tmp_path / "f.bin"
        handle = disk(str(target), "wb")
        handle.write(b"durable")
        with pytest.raises(SimulatedCrash):
            handle.flush()
        handle.inner.close()
        assert target.read_bytes() == b"durable"

    def test_seeded_schedules_replay_identically(self, tmp_path):
        def run(sub: str) -> tuple[bytes, int, int]:
            disk = faulty_disk(FaultInjector(seed=99), short_rate=0.3, eio_rate=0.2)
            target = tmp_path / sub
            handle = disk(str(target), "wb")
            written = errors = 0
            for index in range(40):
                try:
                    handle.write(bytes([index]) * 8)
                    written += 1
                except OSError:
                    errors += 1
            handle.close()
            return target.read_bytes(), written, errors

        assert run("a.bin") == run("b.bin")

    def test_journal_survives_transient_write_faults(self, tmp_path):
        # One frame write per append: record 1 lands, record 2's write
        # fails with EIO — the failed append must not corrupt the log.
        disk = faulty_disk(FaultInjector(seed=5), write_script=["ok", "eio", "ok"])
        journal = DiskJournal(tmp_path, opener=disk, fsync="interval")
        try:
            journal.append(_record(1))
            with pytest.raises(OSError):
                journal.append(_record(2))
        finally:
            journal.close()
        reopened = DiskJournal(tmp_path)
        try:
            scan = reopened.read_records()
            assert [r.base_version for r in scan.records] == [1]
        finally:
            reopened.close()

    def test_crash_before_fsync_drops_unacked_journal_suffix(self, tmp_path):
        # With the faulty page cache, bytes not yet fsynced die with the
        # crash: recovery sees only the records whose fsync completed.
        disk = faulty_disk(
            FaultInjector(seed=6), flush_script=["ok", "ok", "crash-before-fsync"]
        )
        journal = DiskJournal(tmp_path, opener=disk, fsync="always")
        journal.append(_record(1))
        journal.append(_record(2))
        with pytest.raises(SimulatedCrash):
            journal.append(_record(3))
        # Abandon the handle (process death), reopen with a clean opener.
        reopened = DiskJournal(tmp_path)
        try:
            scan = reopened.read_records()
            assert [r.base_version for r in scan.records] == [1, 2]
        finally:
            reopened.close()

    def test_crash_before_interval_fsync_keeps_the_synced_prefix(self, tmp_path):
        # Under "interval" the first FSYNC_INTERVAL appends are fsynced
        # together; the crash at the second fsync loses exactly the second
        # interval's records, which were never acknowledged as durable.
        disk = faulty_disk(FaultInjector(seed=8), flush_script=["ok", "crash-before-fsync"])
        journal = DiskJournal(tmp_path, opener=disk, fsync="interval")
        with pytest.raises(SimulatedCrash):
            for version in range(2 * FSYNC_INTERVAL):
                journal.append(_record(version))
        reopened = DiskJournal(tmp_path)
        try:
            scan = reopened.read_records()
            assert [r.base_version for r in scan.records] == list(range(FSYNC_INTERVAL))
        finally:
            reopened.close()

    def test_invalid_script_action_is_rejected(self):
        injector = FaultInjector(seed=1)
        with pytest.raises(ValueError):
            faulty_disk(injector, write_script=["ok", "explode"])
        with pytest.raises(ValueError):
            faulty_disk(injector, flush_script=["short"])  # a write action, not flush


# -------------------------------------------------------------------- #
# Sharded coordinator restart
# -------------------------------------------------------------------- #
class TestShardedRecovery:
    def test_recover_without_durability_manager_is_refused(self):
        from repro.exceptions import ConfigurationError
        from repro.service import ShardedRoutingService

        network = _make_network_factory(3, 3, seed=2)()
        with ShardedRoutingService(network, shard_count=2) as service:
            with pytest.raises(ConfigurationError):
                service.coordinator.snapshot()
            with pytest.raises(ConfigurationError):
                service.coordinator.recover()


# -------------------------------------------------------------------- #
# save_model durability regression
# -------------------------------------------------------------------- #
class TestModelPersistenceDurability:
    def test_save_fsyncs_before_publishing(self, fitted_l2r, tmp_path, monkeypatch):
        # The regression: os.replace must never run before the scratch
        # file's bytes are fsynced.  Record call order to prove the fence.
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        monkeypatch.setattr(
            os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda src, dst: (events.append("replace"), real_replace(src, dst))[1],
        )
        target = tmp_path / "model.pkl.gz"
        save_model(fitted_l2r, target)
        assert "fsync" in events and "replace" in events
        assert events.index("fsync") < events.index("replace")
        # And the published file round-trips.
        load_model(target)

    def test_failed_save_leaves_previous_model_intact(
        self, fitted_l2r, tmp_path, monkeypatch
    ):
        target = tmp_path / "model.pkl.gz"
        save_model(fitted_l2r, target)
        good = target.read_bytes()

        def explode(fd):
            raise OSError(5, "simulated fsync failure")

        monkeypatch.setattr(os, "fsync", explode)
        from repro.service import ModelPersistenceError

        with pytest.raises(ModelPersistenceError):
            save_model(fitted_l2r, target)
        assert target.read_bytes() == good
        assert not list(tmp_path.glob("*.tmp"))
