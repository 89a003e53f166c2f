"""Shared-memory export of compiled snapshots (:mod:`repro.network.compiled.shm`).

The zero-copy contract: every cost array an owner exports comes back, through
a worker-side :func:`attach`, as a read-only C-contiguous view with the pinned
dtype and bit-identical contents; the header carries enough (magic, layout,
topology stamp, cost version) to reject foreign segments and networks that
compile to other slots, and to detect stale cost state; and the owner/worker
lifecycle split never leaks a segment — including on failed exports.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.exceptions import NetworkError
from repro.network import grid_city_network
from repro.network.compiled import shm
from repro.network.compiled.graph import EDGE_COST_ATTRIBUTES


def _segment_exists(name: str) -> bool:
    try:
        probe = shm._attach_untracked(name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


@pytest.fixture
def network():
    return grid_city_network(3, 3)


@pytest.fixture
def segment(network):
    handle = shm.export_graph(network.compiled(), cost_version=network.cost_version)
    yield handle
    handle.close()
    handle.unlink()


class TestRoundTrip:
    def test_every_array_survives_bit_identical(self, network, segment):
        view = shm.attach(segment.spec)
        try:
            graph = network.compiled()
            for spec in segment.spec.arrays:
                attached = view.array(spec.name)
                assert np.array_equal(attached, segment._views[spec.name]), spec.name
                assert attached.dtype == shm.expected_dtype(spec.name), spec.name
                assert attached.flags.c_contiguous, spec.name
                assert not attached.flags.writeable, spec.name
            for attr in EDGE_COST_ATTRIBUTES:
                assert np.array_equal(view.cost_array(attr), graph.array(attr))
        finally:
            view.close()

    def test_header_counters_and_cost_version(self, network, segment):
        with shm.attach(segment.spec) as view:
            graph = network.compiled()
            assert view.vertex_count == graph.vertex_count
            assert view.edge_count == graph.edge_count
            assert view.cost_version == network.cost_version

    def test_view_close_is_idempotent_and_keeps_segment(self, segment):
        view = shm.attach(segment.spec)
        view.close()
        view.close()
        assert _segment_exists(segment.spec.segment_name)


class TestExportNormalization:
    def test_transposed_input_is_forced_contiguous(self):
        raw = np.arange(10, dtype=np.int64).reshape(5, 2).T[0]  # one strided column
        assert not raw.flags.c_contiguous
        arr = shm._exportable("cost:fuel_ml", raw)
        assert arr.flags.c_contiguous and arr.dtype == np.float64
        assert arr.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_casted_input_is_normalized_to_pinned_dtype(self):
        for dtype in (np.int32, np.float32):
            cost = shm._exportable("cost:distance_m", np.arange(4, dtype=dtype))
            assert cost.dtype == np.float64

    def test_wrong_dimensionality_is_refused(self):
        with pytest.raises(NetworkError, match="1-dimensional"):
            shm._exportable("cost:fuel_ml", np.ones((4, 2)))

    def test_non_numeric_input_is_refused(self):
        with pytest.raises(NetworkError, match="cannot be exported"):
            shm._exportable("cost:fuel_ml", np.asarray(["a", "b"]))

    def test_unknown_array_name_is_refused(self):
        with pytest.raises(NetworkError, match="unknown shared-segment array"):
            shm.expected_dtype("mystery")


class TestCostPatches:
    def test_patch_updates_attached_views_in_place(self, network, segment):
        with shm.attach(segment.spec) as view:
            edge = next(iter(network.edges()))
            key = (edge.source, edge.target)
            slot = network.compiled().topology.slot_of[key]
            before = float(view.cost_array("travel_time_s")[slot])
            network.update_edge_costs({key: {"travel_time_s": before * 3.0}})
            written = segment.patch(
                network.compiled(), [slot], cost_version=network.cost_version
            )
            assert written == 1
            # Zero-copy: the already-attached view observes the patch live.
            assert view.cost_array("travel_time_s")[slot] == pytest.approx(before * 3.0)
            assert view.cost_version == network.cost_version

    def test_restore_cost_state_adopts_the_segment_delta(self, network, segment):
        edge = next(iter(network.edges()))
        key = (edge.source, edge.target)
        slot = network.compiled().topology.slot_of[key]
        network.update_edge_costs({key: {"distance_m": 777.0}})
        segment.patch(network.compiled(), [slot], cost_version=network.cost_version)

        def adopt(stale, view):
            copies = {attr: view.cost_array(attr).copy() for attr in EDGE_COST_ATTRIBUTES}
            return stale.restore_cost_state(copies, view.cost_version)

        stale = grid_city_network(3, 3)
        with shm.attach(segment.spec) as view:
            assert adopt(stale, view) == {key}
            assert stale.edge(*key).distance_m == 777.0
            assert stale.cost_version == network.cost_version
            assert adopt(stale, view) == frozenset()
            # What the network serves from afterwards is its own, not the segment's.
            for attr in EDGE_COST_ATTRIBUTES:
                assert not np.shares_memory(stale.compiled().array(attr), view.cost_array(attr))


class TestTopologyVerification:
    def test_matching_snapshot_verifies(self, network, segment):
        with shm.attach(segment.spec) as view:
            assert shm.verify_topology(network.compiled(), view)

    def test_different_topology_is_rejected(self, segment):
        other = grid_city_network(4, 2)
        with shm.attach(segment.spec) as view:
            assert not shm.verify_topology(other.compiled(), view)

    def test_same_layout_under_other_vertex_ids_is_rejected(
        self, network, segment, relabelled_network
    ):
        """Counts, ``offsets`` and ``targets`` all agree; the ids do not."""
        relabelled = relabelled_network(network, offset=1000)
        ours, theirs = network.compiled().topology, relabelled.compiled().topology
        assert (ours.offsets, ours.targets) == (theirs.offsets, theirs.targets)
        with shm.attach(segment.spec) as view:
            assert not shm.verify_topology(relabelled.compiled(), view)

    def test_the_segment_carries_the_cost_state_and_nothing_else(self, network, segment):
        assert [spec.name for spec in segment.spec.arrays] == [
            f"cost:{attr}" for attr in EDGE_COST_ATTRIBUTES
        ]
        edge_count = network.compiled().edge_count
        assert segment.spec.size <= shm.HEADER_BYTES + len(EDGE_COST_ATTRIBUTES) * (
            edge_count * 8 + 16
        )

    def test_another_layout_version_is_refused(self, segment):
        # What an owner running another revision of this module would export.
        segment._header[shm._SLOT_LAYOUT] = shm.LAYOUT_VERSION - 1
        with pytest.raises(
            NetworkError,
            match=f"uses layout {shm.LAYOUT_VERSION - 1}, expected {shm.LAYOUT_VERSION}",
        ):
            shm.attach(segment.spec)

    def test_foreign_segment_fails_the_magic_check(self, segment):
        # A zeroed header is what a foreign / torn segment looks like.
        blank = shared_memory.SharedMemory(create=True, size=segment.spec.size)
        try:
            spec = shm.SegmentSpec(
                segment_name=blank.name,
                size=segment.spec.size,
                arrays=segment.spec.arrays,
                cost_attributes=segment.spec.cost_attributes,
            )
            with pytest.raises(NetworkError, match="bad magic"):
                shm.attach(spec)
        finally:
            blank.close()
            blank.unlink()


class TestLifecycle:
    def test_unlink_removes_the_name(self, network):
        handle = shm.export_graph(network.compiled())
        name = handle.spec.segment_name
        assert _segment_exists(name)
        handle.close()
        handle.unlink()
        assert not _segment_exists(name)
        with pytest.raises(FileNotFoundError):
            shm.attach(handle.spec)

    def test_unlink_is_idempotent(self, network):
        handle = shm.export_graph(network.compiled())
        handle.close()
        handle.unlink()
        handle.unlink()

    def test_context_manager_closes_and_unlinks(self, network):
        with shm.export_graph(network.compiled()) as handle:
            name = handle.spec.segment_name
            assert _segment_exists(name)
        assert not _segment_exists(name)

    def test_failed_export_does_not_leak_the_segment(self, network):
        name = "reprotest-failed-export"
        with pytest.raises((TypeError, ValueError)):
            shm.export_graph(network.compiled(), cost_version="not-an-int", name=name)
        assert not _segment_exists(name)

    def test_patch_after_close_is_refused(self, network):
        handle = shm.export_graph(network.compiled())
        handle.close()
        try:
            with pytest.raises(NetworkError, match="closed"):
                handle.patch(network.compiled(), [0], cost_version=1)
        finally:
            handle.unlink()
