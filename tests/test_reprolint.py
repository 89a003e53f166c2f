"""The reprolint static analyzer (:mod:`tools.reprolint`).

Each rule RL001–RL011 gets a positive fixture (the violation fires), a
negative fixture (the compliant idiom stays silent), and a suppression
fixture (``# reprolint: disable=...`` moves the finding to ``suppressed``).
Fixtures go through :func:`~tools.reprolint.lint_source` with a fake
repository-relative path, which is what drives each rule's scoping.

The integration tests at the bottom are the gate the CI ``lint`` job relies
on: the repository's own ``src``/``tests``/``benchmarks`` trees lint clean,
both in-process and through the ``python -m tools.reprolint`` CLI.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # `tools` lives at the repo root, not in src/
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import (  # noqa: E402
    ALL_RULES,
    Finding,
    LintResult,
    Suppressions,
    exit_code,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)

#: Fake paths that place a fixture inside / outside each rule's scope.
COMPILED_PATH = "src/repro/network/compiled/example.py"
SERVICE_PATH = "src/repro/service/example.py"
NETWORK_PATH = "src/repro/network/example.py"
BENCH_PATH = "benchmarks/bench_example.py"
UNSCOPED_PATH = "src/repro/trajectories/example.py"


def _lint(source: str, path: str) -> LintResult:
    return lint_source(source, path, ALL_RULES)


def _codes(result: LintResult) -> list[str]:
    return [finding.rule_id for finding in result.findings]


# -------------------------------------------------------------------- #
# RL001 — version-stamp discipline
# -------------------------------------------------------------------- #
RL001_BAD = """\
class Store:
    def lookup(self, store, key):
        value = store._arrays["travel_time_s"].sum()
        self._weight_cache[key] = value
        return value
"""

RL001_GOOD = """\
class Store:
    def lookup(self, store, key):
        stamp = store.cost_version
        value = store._arrays["travel_time_s"].sum()
        self._weight_cache[key] = (stamp, value)
        return value
"""


class TestRL001VersionStamp:
    def test_unstamped_cache_population_is_flagged(self):
        result = _lint(RL001_BAD, COMPILED_PATH)
        assert _codes(result) == ["RL001"]
        (finding,) = result.findings
        assert finding.severity == "error"
        assert "_weight_cache" in finding.message
        assert finding.line == 4

    def test_stamped_population_is_clean(self):
        assert _lint(RL001_GOOD, COMPILED_PATH).ok

    def test_cache_reset_to_empty_is_clean(self):
        source = "class Store:\n    def clear(self):\n        self._memo = {}\n"
        assert _lint(source, COMPILED_PATH).ok

    def test_init_is_exempt(self):
        source = (
            "class Store:\n"
            "    def __init__(self, store):\n"
            "        self._memo = dict(store._arrays)\n"
        )
        assert _lint(source, COMPILED_PATH).ok

    def test_out_of_scope_path_is_clean(self):
        assert _lint(RL001_BAD, UNSCOPED_PATH).ok

    def test_line_suppression_moves_finding_to_suppressed(self):
        suppressed = RL001_BAD.replace(
            "self._weight_cache[key] = value",
            "self._weight_cache[key] = value  # reprolint: disable=RL001",
        )
        result = _lint(suppressed, COMPILED_PATH)
        assert result.ok
        assert [finding.rule_id for finding in result.suppressed] == ["RL001"]


# The region router prices its corridors from compiled cost arrays: RL001
# covers ``core/router.py`` too (and no other ``core/`` module).
ROUTER_PATH = "src/repro/core/router.py"


class TestRL001RouterScope:
    def test_cost_arrays_are_checked_in_the_router_too(self):
        assert _codes(_lint(RL001_BAD, ROUTER_PATH)) == ["RL001"]
        assert _lint(RL001_GOOD, ROUTER_PATH).ok

    def test_other_core_modules_stay_out_of_scope(self):
        assert _lint(RL001_BAD, "src/repro/core/l2r.py").ok


# -------------------------------------------------------------------- #
# RL002 — lock discipline on guarded fields
# -------------------------------------------------------------------- #
RL002_BAD = """\
class Net:
    def rebuild(self):
        self._compiled = make_snapshot(self)
"""

RL002_GOOD = """\
class Net:
    def rebuild(self):
        with self._compiled_lock:
            self._compiled = make_snapshot(self)
"""


class TestRL002LockDiscipline:
    def test_unlocked_guarded_write_is_flagged(self):
        result = _lint(RL002_BAD, NETWORK_PATH)
        assert _codes(result) == ["RL002"]
        assert "_compiled" in result.findings[0].message

    def test_write_under_lock_is_clean(self):
        assert _lint(RL002_GOOD, NETWORK_PATH).ok

    def test_init_is_exempt(self):
        source = "class Net:\n    def __init__(self):\n        self._compiled = None\n"
        assert _lint(source, NETWORK_PATH).ok

    def test_unguarded_field_is_clean(self):
        source = "class Net:\n    def rebuild(self):\n        self._name = 'x'\n"
        assert _lint(source, NETWORK_PATH).ok

    def test_out_of_scope_path_is_clean(self):
        assert _lint(RL002_BAD, UNSCOPED_PATH).ok

    def test_the_hierarchy_handles_swapped_reference_is_in_scope(self):
        handle = "src/repro/routing/contraction.py"
        assert _codes(_lint(RL002_BAD, handle)) == ["RL002"]
        assert _lint(RL002_GOOD, handle).ok
        assert _lint(RL002_BAD, "src/repro/routing/dijkstra.py").ok

    def test_next_line_suppression(self):
        suppressed = RL002_BAD.replace(
            "        self._compiled = make_snapshot(self)",
            "        # reprolint: disable-next-line=RL002 — lock-free by design.\n"
            "        self._compiled = make_snapshot(self)",
        )
        result = _lint(suppressed, NETWORK_PATH)
        assert result.ok
        assert [finding.rule_id for finding in result.suppressed] == ["RL002"]


# -------------------------------------------------------------------- #
# RL003 — kernel access only through dispatch
# -------------------------------------------------------------------- #
class TestRL003DispatchOnly:
    def test_kernel_module_import_is_flagged(self):
        source = "from repro.network.compiled.sparse import csr_reach\n"
        result = _lint(source, SERVICE_PATH)
        assert _codes(result) == ["RL003"]

    def test_kernel_name_import_is_flagged(self):
        source = "from repro.network.compiled import sparse\n"
        assert _codes(_lint(source, SERVICE_PATH)) == ["RL003"]

    def test_dict_reference_import_is_flagged(self):
        source = "from repro.routing.dijkstra import dict_dijkstra\n"
        assert _codes(_lint(source, SERVICE_PATH)) == ["RL003"]

    def test_plain_import_of_kernel_module_is_flagged(self):
        source = "import repro.network.compiled.batch\n"
        assert _codes(_lint(source, SERVICE_PATH)) == ["RL003"]

    def test_the_service_facade_imports_not_even_dispatch(self):
        source = "from ..network.compiled import dispatch\n"
        assert _codes(_lint(source, "src/repro/service/service.py")) == ["RL003"]
        assert _lint(source, "src/repro/service/engine.py").ok
        assert _lint(source, "src/repro/service/sharding/service.py").ok

    def test_dispatch_import_is_clean(self):
        source = "from repro.network.compiled import dispatch as _compiled\n"
        assert _lint(source, SERVICE_PATH).ok

    def test_graph_constants_import_is_clean(self):
        source = "from repro.network.compiled.graph import EDGE_COST_ATTRIBUTES\n"
        assert _lint(source, SERVICE_PATH).ok

    def test_out_of_scope_path_is_clean(self):
        source = "from repro.network.compiled import sparse\n"
        assert _lint(source, UNSCOPED_PATH).ok

    def test_file_suppression(self):
        source = (
            "# reprolint: disable-file=RL003 — benchmark harness measures kernels raw.\n"
            "from repro.network.compiled import sparse\n"
        )
        result = _lint(source, SERVICE_PATH)
        assert result.ok
        assert [finding.rule_id for finding in result.suppressed] == ["RL003"]


# -------------------------------------------------------------------- #
# RL004 — explicit dtypes in the compiled subsystem
# -------------------------------------------------------------------- #
class TestRL004DtypeContract:
    def test_missing_dtype_is_flagged(self):
        source = "import numpy as np\noffsets = np.zeros(5)\n"
        result = _lint(source, COMPILED_PATH)
        assert _codes(result) == ["RL004"]
        assert result.findings[0].severity == "warning"

    def test_dtype_keyword_is_clean(self):
        source = "import numpy as np\noffsets = np.zeros(5, dtype=np.int64)\n"
        assert _lint(source, COMPILED_PATH).ok

    def test_dtype_positional_is_clean(self):
        source = "import numpy as np\noffsets = np.full(5, 0.0, np.float64)\n"
        assert _lint(source, COMPILED_PATH).ok

    def test_custom_numpy_alias_is_recognized(self):
        source = "import numpy as xp\noffsets = xp.empty(3)\n"
        assert _codes(_lint(source, COMPILED_PATH)) == ["RL004"]

    def test_out_of_scope_path_is_clean(self):
        source = "import numpy as np\noffsets = np.zeros(5)\n"
        assert _lint(source, SERVICE_PATH).ok


# -------------------------------------------------------------------- #
# RL005 — no silent broad excepts in the serving layer
# -------------------------------------------------------------------- #
class TestRL005SilentExcept:
    def test_silent_broad_except_is_flagged(self):
        source = "try:\n    drain()\nexcept Exception:\n    pass\n"
        assert _codes(_lint(source, SERVICE_PATH)) == ["RL005"]

    def test_bare_except_is_flagged(self):
        source = "try:\n    drain()\nexcept:\n    pass\n"
        assert _codes(_lint(source, SERVICE_PATH)) == ["RL005"]

    def test_handled_broad_except_is_clean(self):
        source = "try:\n    drain()\nexcept Exception as exc:\n    errors.append(exc)\n"
        assert _lint(source, SERVICE_PATH).ok

    def test_narrow_silent_except_is_clean(self):
        source = "try:\n    drain()\nexcept KeyError:\n    pass\n"
        assert _lint(source, SERVICE_PATH).ok

    def test_out_of_scope_path_is_clean(self):
        source = "try:\n    drain()\nexcept Exception:\n    pass\n"
        assert _lint(source, UNSCOPED_PATH).ok


# -------------------------------------------------------------------- #
# RL006 — perf_counter, not wall clock, in timing-sensitive code
# -------------------------------------------------------------------- #
class TestRL006WallClock:
    def test_time_time_is_flagged(self):
        source = "import time\nstart = time.time()\n"
        assert _codes(_lint(source, BENCH_PATH)) == ["RL006"]

    def test_bare_time_import_and_call_are_flagged(self):
        source = "from time import time\nstart = time()\n"
        assert _codes(_lint(source, BENCH_PATH)) == ["RL006", "RL006"]

    def test_perf_counter_is_clean(self):
        source = "import time\nstart = time.perf_counter()\n"
        assert _lint(source, BENCH_PATH).ok

    def test_out_of_scope_path_is_clean(self):
        source = "import time\nstart = time.time()\n"
        assert _lint(source, UNSCOPED_PATH).ok


# -------------------------------------------------------------------- #
# RL007 — no mutable default arguments (everywhere)
# -------------------------------------------------------------------- #
class TestRL007MutableDefault:
    def test_dict_literal_default_is_flagged(self):
        source = "def route(request, cache={}):\n    return cache\n"
        assert _codes(_lint(source, UNSCOPED_PATH)) == ["RL007"]

    def test_keyword_only_list_default_is_flagged(self):
        source = "def route(request, *, hops=[]):\n    return hops\n"
        assert _codes(_lint(source, UNSCOPED_PATH)) == ["RL007"]

    def test_mutable_call_default_is_flagged(self):
        source = "def route(request, cache=dict()):\n    return cache\n"
        assert _codes(_lint(source, UNSCOPED_PATH)) == ["RL007"]

    def test_none_default_is_clean(self):
        source = "def route(request, cache=None):\n    return cache or {}\n"
        assert _lint(source, UNSCOPED_PATH).ok

    def test_frozen_call_default_is_clean(self):
        source = "def route(request, hops=tuple()):\n    return hops\n"
        assert _lint(source, UNSCOPED_PATH).ok


# -------------------------------------------------------------------- #
# RL008 — bounded blocking calls in the serving layer
# -------------------------------------------------------------------- #
TRAFFIC_PATH = "src/repro/traffic/example.py"


class TestRL008UnboundedBlocking:
    def test_queue_get_without_timeout_is_flagged(self):
        source = "def drain(self):\n    return self._queue.get()\n"
        assert _codes(_lint(source, TRAFFIC_PATH)) == ["RL008"]

    def test_get_on_a_name_bound_to_a_queue_is_flagged(self):
        source = (
            "import queue\n"
            "class Hub:\n"
            "    def __init__(self):\n"
            "        self._inbound: queue.Queue[object] = queue.Queue()\n"
            "        self._routes = {}\n"
            "    def recv(self):\n"
            "        self._routes.get(1)\n"
            "        return self._inbound.get()\n"
        )
        assert _codes(_lint(source, SERVICE_PATH)) == ["RL008"]

    def test_queue_get_with_timeout_is_clean(self):
        source = "def drain(self):\n    return self._queue.get(timeout=0.05)\n"
        assert _lint(source, TRAFFIC_PATH).ok

    def test_queue_get_nonblocking_is_clean(self):
        source = "def drain(self):\n    return self._queue.get(block=False)\n"
        assert _lint(source, TRAFFIC_PATH).ok

    def test_dict_get_is_not_flagged(self):
        source = "def lookup(self, key):\n    return self._engines.get(key)\n"
        assert _lint(source, SERVICE_PATH).ok

    def test_future_result_without_timeout_is_flagged(self):
        source = "def wait(future):\n    return future.result()\n"
        assert _codes(_lint(source, SERVICE_PATH)) == ["RL008"]

    def test_future_result_with_timeout_is_clean(self):
        source = "def wait(future):\n    return future.result(timeout=60.0)\n"
        assert _lint(source, SERVICE_PATH).ok

    def test_thread_join_without_timeout_is_flagged(self):
        source = "def stop(thread):\n    thread.join()\n"
        assert _codes(_lint(source, SERVICE_PATH)) == ["RL008"]

    def test_thread_join_with_timeout_is_clean(self):
        source = "def stop(thread):\n    thread.join(timeout=5.0)\n"
        assert _lint(source, SERVICE_PATH).ok

    def test_str_join_is_not_flagged(self):
        source = "def fmt(parts):\n    return ', '.join(parts)\n"
        assert _lint(source, SERVICE_PATH).ok

    def test_condition_wait_without_timeout_is_flagged(self):
        source = "def park(self):\n    with self._idle:\n        self._idle.wait()\n"
        assert _codes(_lint(source, TRAFFIC_PATH)) == ["RL008"]

    def test_condition_wait_with_timeout_is_clean(self):
        source = (
            "def park(self):\n    with self._idle:\n"
            "        self._idle.wait(timeout=0.1)\n"
        )
        assert _lint(source, TRAFFIC_PATH).ok

    def test_out_of_scope_path_is_clean(self):
        source = "def drain(self):\n    return self._queue.get()\n"
        assert _lint(source, UNSCOPED_PATH).ok

    def test_suppression_comment_is_honored(self):
        source = (
            "def drain(self):\n"
            "    # reprolint: disable-next-line=RL008 — bounded by caller.\n"
            "    return self._queue.get()\n"
        )
        result = _lint(source, TRAFFIC_PATH)
        assert result.ok
        assert [finding.rule_id for finding in result.suppressed] == ["RL008"]


# -------------------------------------------------------------------- #
# RL009 — shared-memory segment lifecycle discipline
# -------------------------------------------------------------------- #
RL009_OWNER_BAD = """\
from multiprocessing import shared_memory

def export(total):
    shm = shared_memory.SharedMemory(create=True, size=total)
    return shm.name
"""

RL009_OWNER_GOOD = """\
from multiprocessing import shared_memory

def export(total):
    shm = shared_memory.SharedMemory(create=True, size=total)
    try:
        return build(shm)
    except Exception:
        shm.close()
        shm.unlink()
        raise
"""

RL009_ATTACH_BAD = """\
from multiprocessing import shared_memory

def peek(name):
    shm = shared_memory.SharedMemory(name=name)
    return bytes(shm.buf[:8])
"""

RL009_ATTACH_GOOD = """\
from multiprocessing import shared_memory

def peek(name):
    shm = shared_memory.SharedMemory(name=name)
    try:
        return bytes(shm.buf[:8])
    finally:
        shm.close()
"""

RL009_ATTACH_UNLINKS = """\
from multiprocessing import shared_memory

def steal(name):
    shm = shared_memory.SharedMemory(name=name)
    try:
        shm.unlink()
    finally:
        shm.close()
"""


class TestRL009SharedMemoryLifecycle:
    def test_owner_without_close_and_unlink_is_flagged(self):
        result = _lint(RL009_OWNER_BAD, COMPILED_PATH)
        assert _codes(result) == ["RL009"]
        (finding,) = result.findings
        assert "close" in finding.message and "unlink" in finding.message

    def test_owner_with_close_and_unlink_is_clean(self):
        assert _lint(RL009_OWNER_GOOD, COMPILED_PATH).ok

    def test_owner_with_statement_still_needs_unlink(self):
        source = (
            "from multiprocessing import shared_memory\n"
            "def export(total):\n"
            "    with shared_memory.SharedMemory(create=True, size=total) as shm:\n"
            "        fill(shm)\n"
        )
        assert _codes(_lint(source, COMPILED_PATH)) == ["RL009"]

    def test_directly_returned_handle_transfers_the_obligation(self):
        source = (
            "from multiprocessing import shared_memory\n"
            "def open_segment(name):\n"
            "    return shared_memory.SharedMemory(name=name)\n"
        )
        assert _lint(source, COMPILED_PATH).ok

    def test_attach_without_close_is_flagged(self):
        result = _lint(RL009_ATTACH_BAD, SERVICE_PATH)
        assert _codes(result) == ["RL009"]
        (finding,) = result.findings
        assert "close-only" in finding.message

    def test_attach_with_close_is_clean(self):
        assert _lint(RL009_ATTACH_GOOD, SERVICE_PATH).ok

    def test_attach_side_unlink_is_flagged(self):
        result = _lint(RL009_ATTACH_UNLINKS, SERVICE_PATH)
        assert _codes(result) == ["RL009"]
        (finding,) = result.findings
        assert "only the creating owner" in finding.message

    def test_rule_applies_outside_src_too(self):
        assert _codes(_lint(RL009_ATTACH_BAD, BENCH_PATH)) == ["RL009"]

    def test_suppression_comment_is_honored(self):
        source = (
            "from multiprocessing import shared_memory\n"
            "def peek(name):\n"
            "    # reprolint: disable-next-line=RL009 — probe closed by caller.\n"
            "    shm = shared_memory.SharedMemory(name=name)\n"
            "    return shm\n"
        )
        result = _lint(source, SERVICE_PATH)
        assert result.ok
        assert [finding.rule_id for finding in result.suppressed] == ["RL009"]


# -------------------------------------------------------------------- #
# RL010 — socket operations in the serving layer carry explicit timeouts
# -------------------------------------------------------------------- #
RL010_BAD = """\
def read_frame(sock):
    header = sock.recv(4)
    return header
"""

RL010_GOOD = """\
def read_frame(sock, timeout_s):
    sock.settimeout(timeout_s)
    header = sock.recv(4)
    return header
"""


class TestRL010SocketTimeout:
    def test_recv_without_settimeout_is_flagged(self):
        result = _lint(RL010_BAD, SERVICE_PATH)
        assert _codes(result) == ["RL010"]
        (finding,) = result.findings
        assert finding.severity == "error"
        assert "settimeout" in finding.message

    def test_recv_with_settimeout_in_same_function_is_clean(self):
        assert _lint(RL010_GOOD, SERVICE_PATH).ok

    def test_accept_without_settimeout_is_flagged(self):
        source = "def loop(listener):\n    conn, addr = listener.accept()\n"
        assert _codes(_lint(source, SERVICE_PATH)) == ["RL010"]

    def test_settimeout_in_another_function_does_not_arm(self):
        source = (
            "def arm(sock):\n    sock.settimeout(5.0)\n"
            "def read(sock):\n    return sock.recv(4)\n"
        )
        assert _codes(_lint(source, SERVICE_PATH)) == ["RL010"]

    def test_settimeout_none_is_flagged(self):
        # settimeout(None) draws its own finding, and it does not count as
        # arming the socket — the recv is still unbounded, so both fire.
        source = (
            "def read(sock):\n"
            "    sock.settimeout(None)\n"
            "    return sock.recv(4)\n"
        )
        result = _lint(source, SERVICE_PATH)
        assert _codes(result) == ["RL010", "RL010"]
        assert any("unbounded" in f.message for f in result.findings)

    def test_non_socket_receiver_is_clean(self):
        source = "def pull(transport):\n    return transport.recv(timeout_s=1.0)\n"
        assert _lint(source, SERVICE_PATH).ok

    def test_select_without_timeout_is_flagged(self):
        source = (
            "import select\n"
            "def poll(rlist):\n    return select.select(rlist, [], [])\n"
        )
        assert _codes(_lint(source, SERVICE_PATH)) == ["RL010"]

    def test_select_with_timeout_is_clean(self):
        source = (
            "import select\n"
            "def poll(rlist):\n    return select.select(rlist, [], [], 0.5)\n"
        )
        assert _lint(source, SERVICE_PATH).ok

    def test_create_connection_without_timeout_is_flagged(self):
        source = (
            "import socket\n"
            "def dial(address):\n    return socket.create_connection(address)\n"
        )
        assert _codes(_lint(source, SERVICE_PATH)) == ["RL010"]

    def test_create_connection_with_timeout_is_clean(self):
        source = (
            "import socket\n"
            "def dial(address):\n"
            "    return socket.create_connection(address, timeout=5.0)\n"
        )
        assert _lint(source, SERVICE_PATH).ok

    def test_out_of_scope_path_is_clean(self):
        assert _lint(RL010_BAD, UNSCOPED_PATH).ok

    def test_suppression_comment_is_honored(self):
        source = RL010_BAD.replace(
            "    header = sock.recv(4)",
            "    # reprolint: disable-next-line=RL010 — armed by the caller.\n"
            "    header = sock.recv(4)",
        )
        result = _lint(source, SERVICE_PATH)
        assert result.ok
        assert [finding.rule_id for finding in result.suppressed] == ["RL010"]


# -------------------------------------------------------------------- #
# RL011 — durable-write discipline in durability/ and persistence.py
# -------------------------------------------------------------------- #
DURABILITY_PATH = "src/repro/service/durability/example.py"
PERSISTENCE_PATH = "src/repro/service/persistence.py"

RL011_RENAME_BAD = """\
import os

def publish(scratch, final):
    with open(scratch, "wb") as handle:
        handle.write(b"payload")
    os.replace(scratch, final)
"""

RL011_RENAME_GOOD = """\
import os

def publish(scratch, final):
    with open(scratch, "wb") as handle:
        handle.write(b"payload")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(scratch, final)
"""

RL011_HANDLE_BAD = """\
def journal(path, frame):
    handle = open(path, "ab")
    handle.write(frame)
    handle.flush()
"""

RL011_CHAIN_BAD = """\
def journal(path, frame):
    open(path, "ab").write(frame)
"""


class TestRL011DurabilityDiscipline:
    def test_rename_without_fsync_is_flagged(self):
        result = _lint(RL011_RENAME_BAD, DURABILITY_PATH)
        assert _codes(result) == ["RL011"]
        (finding,) = result.findings
        assert finding.severity == "error"
        assert "fsync" in finding.message

    def test_rename_after_fsync_is_clean(self):
        assert _lint(RL011_RENAME_GOOD, DURABILITY_PATH).ok

    def test_fsync_after_rename_does_not_count(self):
        source = (
            "import os\n"
            "def publish(scratch, final, dir_fd):\n"
            "    os.replace(scratch, final)\n"
            "    os.fsync(dir_fd)\n"
        )
        assert _codes(_lint(source, DURABILITY_PATH)) == ["RL011"]

    def test_fsync_helper_by_name_counts(self):
        source = (
            "import os\n"
            "def publish(scratch, final):\n"
            "    _fsync_file(scratch)\n"
            "    os.replace(scratch, final)\n"
        )
        assert _lint(source, DURABILITY_PATH).ok

    def test_os_rename_is_held_to_the_same_bar(self):
        source = RL011_RENAME_BAD.replace("os.replace", "os.rename")
        assert _codes(_lint(source, DURABILITY_PATH)) == ["RL011"]

    def test_unmanaged_handle_is_flagged(self):
        result = _lint(RL011_HANDLE_BAD, DURABILITY_PATH)
        assert _codes(result) == ["RL011"]
        assert "context-managed" in result.findings[0].message

    def test_with_managed_handle_is_clean(self):
        source = (
            "def journal(path, frame):\n"
            "    with open(path, 'ab') as handle:\n"
            "        handle.write(frame)\n"
        )
        assert _lint(source, DURABILITY_PATH).ok

    def test_self_attribute_owned_handle_is_clean(self):
        # The journal's long-lived active segment: opened once, stored on
        # the instance, closed by the owner's close()/rotation.
        source = (
            "class Journal:\n"
            "    def _reopen(self, path):\n"
            "        self._active = open(path, 'ab')\n"
        )
        assert _lint(source, DURABILITY_PATH).ok

    def test_local_variable_handle_is_not_ownership(self):
        assert _codes(_lint(RL011_HANDLE_BAD, DURABILITY_PATH)) == ["RL011"]

    def test_bare_open_write_chain_is_flagged(self):
        result = _lint(RL011_CHAIN_BAD, DURABILITY_PATH)
        assert _codes(result) == ["RL011"]
        assert "chain" in result.findings[0].message

    def test_gzip_and_fdopen_handles_are_covered(self):
        source = (
            "import gzip, os\n"
            "def save(fd, path):\n"
            "    raw = os.fdopen(fd, 'wb')\n"
            "    zipped = gzip.open(path, 'wb')\n"
        )
        assert _codes(_lint(source, DURABILITY_PATH)) == ["RL011", "RL011"]

    def test_os_open_raw_fd_is_not_a_file_handle(self):
        # os.open returns an fd (paired with os.close), not a file object —
        # the directory-fsync helpers rely on this shape.
        source = (
            "import os\n"
            "def fsync_dir(path):\n"
            "    fd = os.open(path, os.O_RDONLY)\n"
            "    try:\n"
            "        os.fsync(fd)\n"
            "    finally:\n"
            "        os.close(fd)\n"
        )
        assert _lint(source, DURABILITY_PATH).ok

    def test_persistence_module_is_in_scope(self):
        assert _codes(_lint(RL011_RENAME_BAD, PERSISTENCE_PATH)) == ["RL011"]

    def test_out_of_scope_service_path_is_clean(self):
        # The discipline is scoped to the crash-consistency layer; generic
        # service code is not held to it.
        assert _lint(RL011_RENAME_BAD, SERVICE_PATH).ok
        assert _lint(RL011_RENAME_BAD, UNSCOPED_PATH).ok

    def test_suppression_comment_is_honored(self):
        source = RL011_CHAIN_BAD.replace(
            "    open(path, \"ab\").write(frame)",
            "    # reprolint: disable-next-line=RL011 — throwaway debug dump.\n"
            "    open(path, \"ab\").write(frame)",
        )
        result = _lint(source, DURABILITY_PATH)
        assert result.ok
        assert [finding.rule_id for finding in result.suppressed] == ["RL011"]


# -------------------------------------------------------------------- #
# Engine: suppressions, errors, reporters, gating
# -------------------------------------------------------------------- #
class TestSuppressions:
    def test_all_wildcard_covers_every_rule(self):
        suppressions = Suppressions("x = 1  # reprolint: disable=all\n")
        finding = Finding("RL004", "m", "p.py", 1, 1)
        assert suppressions.covers(finding)

    def test_multiple_codes_on_one_comment(self):
        suppressions = Suppressions("x = 1  # reprolint: disable=RL001, RL004\n")
        assert suppressions.covers(Finding("RL001", "m", "p.py", 1, 1))
        assert suppressions.covers(Finding("RL004", "m", "p.py", 1, 1))
        assert not suppressions.covers(Finding("RL002", "m", "p.py", 1, 1))

    def test_file_scope_covers_any_line(self):
        suppressions = Suppressions("# reprolint: disable-file=RL006\n\nx = 1\n")
        assert suppressions.covers(Finding("RL006", "m", "p.py", 3, 1))

    def test_unrelated_comment_covers_nothing(self):
        suppressions = Suppressions("x = 1  # a normal comment\n")
        assert not suppressions.covers(Finding("RL001", "m", "p.py", 1, 1))


class TestEngine:
    def test_syntax_error_is_a_lint_error_not_a_crash(self):
        result = lint_source("def broken(:\n", "src/broken.py", ALL_RULES)
        assert not result.ok
        assert result.findings == []
        assert len(result.errors) == 1 and "syntax error" in result.errors[0]
        assert exit_code(result) == 1

    def test_exit_code_zero_on_clean(self):
        assert exit_code(lint_source("x = 1\n", "src/ok.py", ALL_RULES)) == 0

    def test_finding_render_format(self):
        finding = Finding("RL001", "boom", "src/a.py", 3, 7, severity="error")
        assert finding.render() == "src/a.py:3:7: RL001 [error] boom"

    def test_render_json_is_valid_and_complete(self):
        result = _lint(RL001_BAD, COMPILED_PATH)
        payload = json.loads(render_json(result, ALL_RULES))
        assert payload["ok"] is False
        assert payload["files"] == 1
        assert [entry["rule"] for entry in payload["findings"]] == ["RL001"]
        assert len(payload["rules"]) == len(ALL_RULES) == 11
        assert {rule.rule_id for rule in ALL_RULES} == {
            f"RL{i:03d}" for i in range(1, 12)
        }

    def test_render_text_summary_line(self):
        text = render_text(_lint("x = 1\n", "src/ok.py"), ALL_RULES)
        assert text.endswith("0 finding(s), 0 suppressed, 1 file(s), 11 rule(s)")

    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "src" / "repro" / "service"
        package.mkdir(parents=True)
        (package / "bad.py").write_text(
            "try:\n    drain()\nexcept Exception:\n    pass\n", encoding="utf-8"
        )
        (package / "ok.py").write_text("x = 1\n", encoding="utf-8")
        result = lint_paths(["src"], ALL_RULES, root=tmp_path)
        assert result.files == 2
        assert _codes(result) == ["RL005"]
        assert result.findings[0].path == "src/repro/service/bad.py"


# -------------------------------------------------------------------- #
# Integration: the repository's own tree lints clean
# -------------------------------------------------------------------- #
class TestRepositoryIsClean:
    def test_repo_lints_clean_in_process(self):
        result = lint_paths(["src", "tests", "benchmarks"], ALL_RULES, root=REPO_ROOT)
        assert result.files > 100
        rendered = render_text(result, ALL_RULES)
        assert result.ok, f"repository must lint clean:\n{rendered}"
        # The deliberate, justified suppressions documented in the README.
        assert len(result.suppressed) >= 4

    def test_cli_json_run_exits_zero(self):
        process = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.reprolint",
                "src",
                "tests",
                "benchmarks",
                "--format",
                "json",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode == 0, process.stdout + process.stderr
        payload = json.loads(process.stdout)
        assert payload["ok"] is True
        assert payload["findings"] == []

    def test_cli_select_unknown_rule_errors(self):
        process = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "--select", "RL999", "src"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert process.returncode == 2
        assert "unknown rule id" in process.stderr

    def test_cli_list_rules(self):
        process = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert process.returncode == 0
        for index in range(1, 8):
            assert f"RL00{index}" in process.stdout
