"""The reprolint rule battery: codebase-specific invariants as AST checks.

Each rule guards one invariant the compiled serving stack depends on; the
README's "Invariants" section documents the rationale and the suppression
etiquette.  Rules are pure :mod:`ast` visitors — no imports of the package
under analysis — so the linter can run on a broken tree.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from .engine import FileContext, Rule

#: Constructor/lifecycle methods where cache/snapshot fields are *created*
#: rather than populated or mutated; the stamp/lock rules skip them.
_LIFECYCLE_METHODS = frozenset(
    {"__init__", "__post_init__", "__getstate__", "__setstate__", "__new__"}
)


def _attr_chain_names(node: ast.AST) -> Iterable[str]:
    """Every Name id and Attribute attr appearing in ``node``'s subtree."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _assign_targets(node: ast.stmt) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _is_reset_literal(value: ast.expr | None) -> bool:
    """Whether an assigned value just (re)initializes an empty container.

    ``self._memo = {}`` / ``= None`` / ``= []`` / ``= OrderedDict()`` are
    cache *creation*, not population: there is no data to stamp yet.
    """
    if value is None:
        return True
    if isinstance(value, ast.Constant) and value.value is None:
        return True
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.Tuple)) and not getattr(
        value, "keys", None
    ) and not getattr(value, "elts", None):
        return True
    if isinstance(value, ast.Call) and not value.args and not value.keywords:
        callee = value.func
        name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
        return name in {"dict", "list", "set", "OrderedDict", "defaultdict", "WeakValueDictionary"}
    return False


# ---------------------------------------------------------------------- #
# RL001 — version-stamp discipline
# ---------------------------------------------------------------------- #
_CACHE_ATTR_RE = re.compile(
    r"(^|_)(memo|memos|cache|caches|cached|label|labels|table|tables|entries)(_|$)"
)

#: Attribute reads that resolve compiled cost data (the inputs every
#: cost-derived cache entry must be stamped against).
_COST_SOURCE_ATTRS = frozenset(
    {
        "array",
        "linear_array",
        "resolve_cost",
        "forward_weights",
        "reverse_weights",
        "build_cost_array",
        "base_weights",
        "build_array",
        "_arrays",
        "_base",
    }
)

#: Identifiers whose presence shows the function participates in the
#: version-stamp protocol (reads a version counter, a stamp, or routes the
#: artifact through the self-evicting ``memo()`` cache).
_VERSION_MARKERS = frozenset(
    {
        "version",
        "_version",
        "cost_version",
        "weights_version",
        "built_version",
        "built_cost_version",
        "build_version",
        "validated_version",
        "topology_version",
        "cache_version",
        "stamp",
        "_stamp",
        "memo",
    }
)

class VersionStampRule(Rule):
    """RL001: cost-derived cache population must read a version stamp.

    Every memo/cache attribute in the compiled subsystem whose population
    reads a cost array must also read ``cost_version`` / ``weights_version``
    (or route through the version-stamped ``memo()``): an unstamped entry
    survives live-traffic patches and replays pre-update answers.  The
    region router prices its corridors from the compiled cost arrays too,
    hence ``core/router.py`` in the scope.
    """

    rule_id = "RL001"
    severity = "error"
    description = (
        "cost-derived cache populated without reading a version stamp "
        "(cost_version/weights_version/memo())"
    )
    path_scopes = (
        "network/compiled/",
        "service/cache.py",
        "routing/contraction.py",
        "core/router.py",
    )

    def visitor(self, context: FileContext) -> ast.NodeVisitor:
        rule = self

        class Visitor(ast.NodeVisitor):
            def _check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
                if node.name in _LIFECYCLE_METHODS:
                    return
                cache_writes: list[tuple[ast.stmt, str]] = []
                reads_cost = False
                reads_version = False
                for child in ast.walk(node):
                    if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                        value = getattr(child, "value", None)
                        for target in _assign_targets(child):
                            name = _cache_target_name(target)
                            if name is not None and not _is_reset_literal(value):
                                cache_writes.append((child, name))
                    if isinstance(child, ast.Attribute):
                        reads_cost = reads_cost or child.attr in _COST_SOURCE_ATTRS
                        identifier = child.attr
                    elif isinstance(child, ast.Name):
                        identifier = child.id
                    else:
                        continue
                    reads_version = reads_version or identifier in _VERSION_MARKERS
                if cache_writes and reads_cost and not reads_version:
                    for statement, name in cache_writes:
                        context.report(
                            rule,
                            statement,
                            f"cache attribute {name!r} is populated from compiled cost "
                            "data without reading cost_version/weights_version or "
                            "routing through memo(); stale entries will replay after "
                            "live-traffic updates",
                        )
            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self._check_function(node)
                self.generic_visit(node)

            def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
                self._check_function(node)
                self.generic_visit(node)

        def _cache_target_name(target: ast.expr) -> str | None:
            """The cache-ish attribute/name a store targets, if any."""
            if isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute) and _CACHE_ATTR_RE.search(target.attr):
                return target.attr
            if isinstance(target, ast.Name) and _CACHE_ATTR_RE.search(target.id):
                return target.id
            return None

        return Visitor()


# ---------------------------------------------------------------------- #
# RL002 — lock discipline on compiled-snapshot / hierarchy fields
# ---------------------------------------------------------------------- #
#: Fields holding a compiled snapshot or versioned hierarchy state; every
#: post-construction write must happen under the owning ``*_lock``.
_GUARDED_FIELDS = frozenset(
    {
        "_compiled",
        "_hierarchy",
        "_hierarchies",
        "_state",
        "_labels",
        "_landmark_tables",
        "_base",
    }
)


def _mentions_lock(node: ast.expr) -> bool:
    return any("lock" in name.lower() for name in _attr_chain_names(node))


class LockDisciplineRule(Rule):
    """RL002: compiled-snapshot/hierarchy fields are written under a lock.

    The compiled snapshot (``RoadNetwork._compiled``), the one reference a
    :class:`ContractionHierarchy` swaps on a rebuild (its ``_compiled``), the
    versioned weight state of a :class:`CompiledHierarchy`, and their sibling
    fields are read by concurrent ``route()`` callers; a write outside a
    ``with ..._lock:`` block can tear the snapshot/patch protocol.
    """

    rule_id = "RL002"
    severity = "error"
    description = (
        "compiled-snapshot/hierarchy field written outside a 'with ..._lock:' block"
    )
    path_scopes = ("repro/network/", "repro/service/", "repro/routing/contraction.py")

    def visitor(self, context: FileContext) -> ast.NodeVisitor:
        rule = self

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self._with_depth = 0
                self._function_stack: list[str] = []

            def visit_With(self, node: ast.With) -> None:
                guarded = any(_mentions_lock(item.context_expr) for item in node.items)
                self._with_depth += 1 if guarded else 0
                self.generic_visit(node)
                self._with_depth -= 1 if guarded else 0

            def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
                self._function_stack.append(node.name)
                self.generic_visit(node)
                self._function_stack.pop()

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self._visit_function(node)

            def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
                self._visit_function(node)

            def _check_assign(self, node: ast.stmt) -> None:
                if self._with_depth > 0:
                    return
                if self._function_stack and self._function_stack[-1] in _LIFECYCLE_METHODS:
                    return
                for target in _assign_targets(node):
                    if isinstance(target, ast.Subscript):
                        target = target.value
                    if isinstance(target, ast.Attribute) and target.attr in _GUARDED_FIELDS:
                        context.report(
                            rule,
                            node,
                            f"write to guarded field {target.attr!r} outside a "
                            "'with ..._lock:' block; concurrent route() callers "
                            "can observe a torn snapshot",
                        )

            def visit_Assign(self, node: ast.Assign) -> None:
                self._check_assign(node)
                self.generic_visit(node)

            def visit_AugAssign(self, node: ast.AugAssign) -> None:
                self._check_assign(node)
                self.generic_visit(node)

            def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
                self._check_assign(node)
                self.generic_visit(node)

        return Visitor()


# ---------------------------------------------------------------------- #
# RL003 — hot paths reach kernels only through dispatch
# ---------------------------------------------------------------------- #
#: Kernel-layer modules the serving/traffic/baseline layers must never
#: import directly; ``dispatch`` (and the ``graph`` constants) are the API.
_KERNEL_MODULES = frozenset({"sparse", "batch", "ch"})


class DispatchOnlyRule(Rule):
    """RL003: service/traffic/baselines reach kernels only via ``dispatch``.

    Importing ``sparse`` / ``batch`` / ``ch`` (or the
    ``dict_*`` reference implementations) directly from the serving layers
    bypasses the fallback protocol, the ``compiled_disabled()`` escape
    hatch, and the version-stamp plumbing the dispatch layer carries.  The
    service facade (``service/service.py``) partitions, gates and finishes;
    which search answers a request only its engines know, so it imports not
    even ``dispatch``.
    """

    rule_id = "RL003"
    severity = "error"
    description = (
        "kernel-layer import outside dispatch (use network.compiled.dispatch)"
    )
    path_scopes = ("repro/service/", "repro/traffic/", "repro/baselines/")

    def visitor(self, context: FileContext) -> ast.NodeVisitor:
        rule = self

        class Visitor(ast.NodeVisitor):
            def _module_tail(self, module: str | None) -> str:
                return (module or "").rsplit(".", 1)[-1]

            def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
                module = node.module or ""
                tail = self._module_tail(module)
                compiled_module = "compiled" in module.split(".")
                if context.path.endswith("service/service.py") and (
                    tail == "dispatch" or any(a.name == "dispatch" for a in node.names)
                ):
                    context.report(
                        rule,
                        node,
                        "the service facade imports dispatch; searches belong to "
                        "the engines (BaseEngine.route / route_batch)",
                    )
                if compiled_module and tail in _KERNEL_MODULES:
                    context.report(
                        rule,
                        node,
                        f"direct import from kernel module {module!r}; route through "
                        "network.compiled.dispatch",
                    )
                for alias in node.names:
                    if alias.name.startswith("dict_"):
                        context.report(
                            rule,
                            node,
                            f"direct import of reference kernel {alias.name!r}; the "
                            "public routing functions dispatch to it automatically",
                        )
                    elif compiled_module and alias.name in _KERNEL_MODULES:
                        context.report(
                            rule,
                            node,
                            f"direct import of kernel module {alias.name!r}; route "
                            "through network.compiled.dispatch",
                        )
                self.generic_visit(node)

            def visit_Import(self, node: ast.Import) -> None:
                for alias in node.names:
                    parts = alias.name.split(".")
                    if "compiled" in parts and parts[-1] in _KERNEL_MODULES:
                        context.report(
                            rule,
                            node,
                            f"direct import of kernel module {alias.name!r}; route "
                            "through network.compiled.dispatch",
                        )
                self.generic_visit(node)

        return Visitor()


# ---------------------------------------------------------------------- #
# RL004 — dtype contracts in the compiled subsystem
# ---------------------------------------------------------------------- #
#: numpy constructors and the positional index their ``dtype`` occupies.
_NP_CONSTRUCTORS = {
    "asarray": 1,
    "array": 1,
    "zeros": 1,
    "empty": 1,
    "ones": 1,
    "fromiter": 1,
    "frombuffer": 1,
    "full": 2,
}


class DtypeContractRule(Rule):
    """RL004: numpy constructors in ``network/compiled/`` pin their dtype.

    The kernels exchange flat arrays across module boundaries (weights,
    offsets, labels); an implicit platform-dependent dtype (int32 vs int64,
    float upcasts) silently changes memory layout and comparison semantics,
    so every constructor spells its dtype.
    """

    rule_id = "RL004"
    severity = "warning"
    description = "numpy constructor without an explicit dtype in network/compiled/"
    path_scopes = ("network/compiled/",)

    def visitor(self, context: FileContext) -> ast.NodeVisitor:
        rule = self
        numpy_aliases = {"np", "numpy"}

        class Visitor(ast.NodeVisitor):
            def visit_Import(self, node: ast.Import) -> None:
                for alias in node.names:
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
                self.generic_visit(node)

            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in numpy_aliases
                    and func.attr in _NP_CONSTRUCTORS
                ):
                    dtype_position = _NP_CONSTRUCTORS[func.attr]
                    has_kw = any(kw.arg == "dtype" for kw in node.keywords)
                    has_positional = len(node.args) > dtype_position
                    if not has_kw and not has_positional:
                        context.report(
                            rule,
                            node,
                            f"np.{func.attr}(...) without an explicit dtype; compiled "
                            "arrays must pin their dtype (platform defaults differ)",
                        )
                self.generic_visit(node)

        return Visitor()


# ---------------------------------------------------------------------- #
# RL005 — no silent exception swallowing in the serving layer
# ---------------------------------------------------------------------- #
class SilentExceptRule(Rule):
    """RL005: the serving layer never swallows exceptions silently.

    A ``try/except Exception: pass`` in ``service/`` or ``traffic/`` hides
    failed traffic subscribers and dead engines from ``ServiceStats``; failures
    must be converted into error responses, counted, or re-raised.
    """

    rule_id = "RL005"
    severity = "error"
    description = "broad except handler whose body only passes (serving layer)"
    path_scopes = ("repro/service/", "repro/traffic/")

    _BROAD = frozenset({"Exception", "BaseException"})

    def visitor(self, context: FileContext) -> ast.NodeVisitor:
        rule = self
        broad = self._BROAD

        def is_broad(handler: ast.ExceptHandler) -> bool:
            if handler.type is None:
                return True
            if isinstance(handler.type, ast.Name):
                return handler.type.id in broad
            if isinstance(handler.type, ast.Tuple):
                return any(
                    isinstance(element, ast.Name) and element.id in broad
                    for element in handler.type.elts
                )
            return False

        def is_silent(handler: ast.ExceptHandler) -> bool:
            for statement in handler.body:
                if isinstance(statement, (ast.Pass, ast.Continue)):
                    continue
                if isinstance(statement, ast.Expr) and isinstance(
                    statement.value, ast.Constant
                ):
                    continue  # docstring / Ellipsis
                return False
            return True

        class Visitor(ast.NodeVisitor):
            def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
                if is_broad(node) and is_silent(node):
                    context.report(
                        rule,
                        node,
                        "broad exception handler silently discards the failure; "
                        "convert it into an error response, count it in stats, or "
                        "narrow the exception type",
                    )
                self.generic_visit(node)

        return Visitor()


# ---------------------------------------------------------------------- #
# RL006 — no wall-clock time in kernels / benchmark loops
# ---------------------------------------------------------------------- #
class WallClockRule(Rule):
    """RL006: kernels and benchmarks time with ``perf_counter``, not wall clock.

    ``time.time()`` is subject to NTP slews and coarse resolution; a timing
    loop built on it produces unstable speedup ratios, and the CI regression
    gate compares exactly those ratios.
    """

    rule_id = "RL006"
    severity = "warning"
    description = "wall-clock time.time() in kernel/benchmark code (use perf_counter)"
    path_scopes = ("network/compiled/", "benchmarks/", "repro/routing/")

    def visitor(self, context: FileContext) -> ast.NodeVisitor:
        rule = self
        bare_time_imported = False

        class Visitor(ast.NodeVisitor):
            def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
                nonlocal bare_time_imported
                if node.module == "time" and any(
                    alias.name == "time" for alias in node.names
                ):
                    bare_time_imported = True
                    context.report(
                        rule,
                        node,
                        "'from time import time' in timing-sensitive code; import "
                        "time and use time.perf_counter()",
                    )
                self.generic_visit(node)

            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "time"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                ):
                    context.report(
                        rule,
                        node,
                        "time.time() in timing-sensitive code; use "
                        "time.perf_counter() for monotonic interval timing",
                    )
                elif (
                    bare_time_imported
                    and isinstance(func, ast.Name)
                    and func.id == "time"
                ):
                    context.report(
                        rule,
                        node,
                        "bare time() call in timing-sensitive code; use "
                        "time.perf_counter() for monotonic interval timing",
                    )
                self.generic_visit(node)

        return Visitor()


# ---------------------------------------------------------------------- #
# RL007 — no mutable default arguments
# ---------------------------------------------------------------------- #
class MutableDefaultRule(Rule):
    """RL007: no mutable default arguments anywhere in the tree.

    A ``def f(x, cache={})`` default is shared across calls — in a serving
    stack that is a cross-request data leak, not just a style problem.
    """

    rule_id = "RL007"
    severity = "error"
    description = "mutable default argument (shared across calls)"
    path_scopes = ()  # everywhere

    _MUTABLE_CALLS = frozenset({"dict", "list", "set", "bytearray"})

    def visitor(self, context: FileContext) -> ast.NodeVisitor:
        rule = self
        mutable_calls = self._MUTABLE_CALLS

        def is_mutable(default: ast.expr) -> bool:
            if isinstance(default, (ast.Dict, ast.List, ast.Set)):
                return True
            if isinstance(default, ast.Call) and not default.args and not default.keywords:
                callee = default.func
                return isinstance(callee, ast.Name) and callee.id in mutable_calls
            return False

        class Visitor(ast.NodeVisitor):
            def _check(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if is_mutable(default):
                        context.report(
                            rule,
                            default,
                            f"mutable default argument in {node.name}(); use None "
                            "and create the container inside the function",
                        )

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self._check(node)
                self.generic_visit(node)

            def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
                self._check(node)
                self.generic_visit(node)

        return Visitor()


# ---------------------------------------------------------------------- #
# RL008 — every potentially-blocking wait in the serving layer is bounded
# ---------------------------------------------------------------------- #
class UnboundedBlockingRule(Rule):
    """RL008: blocking primitives in service/traffic must pass a timeout.

    The resilience layer's guarantees (deadline budgets, orderly ``close``,
    no-deadlock chaos suite) only hold if nothing in ``service/`` or
    ``traffic/`` can block forever.  ``queue.Queue.get``, ``Future.result``,
    ``Thread.join``, and ``Condition``/``Event`` ``.wait`` therefore always
    pass an explicit ``timeout`` (or ``block=False`` for queue gets) — an
    unbounded wait anywhere in these layers is a latent deadlock.  A ``.get``
    is queue-shaped when its receiver's name mentions ``queue`` or the file
    assigns that name a ``...Queue(...)`` instance.
    """

    rule_id = "RL008"
    severity = "error"
    description = (
        "potentially-unbounded blocking call in the serving layer "
        "(pass an explicit timeout)"
    )
    path_scopes = ("repro/service/", "repro/traffic/")

    def visitor(self, context: FileContext) -> ast.NodeVisitor:
        rule = self

        def keyword_names(node: ast.Call) -> set[str]:
            return {kw.arg for kw in node.keywords if kw.arg is not None}

        def is_false_constant(expr: ast.expr) -> bool:
            return isinstance(expr, ast.Constant) and expr.value is False

        def receiver_mentions(node: ast.expr, needle: str) -> bool:
            return any(needle in name.lower() for name in _attr_chain_names(node))

        def last_name(node: ast.expr) -> str | None:
            if isinstance(node, ast.Attribute):
                return node.attr
            if isinstance(node, ast.Name):
                return node.id
            return None

        # Names bound to a queue instance anywhere in the file, whatever
        # they are called (``self._inbound = queue.Queue()``).
        queue_names = {
            last_name(target)
            for statement in ast.walk(context.tree)
            if isinstance(getattr(statement, "value", None), ast.Call)
            and (last_name(statement.value.func) or "").endswith("Queue")
            for target in _assign_targets(statement)
        } - {None}

        class Visitor(ast.NodeVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if isinstance(func, ast.Attribute):
                    self._check(node, func)
                self.generic_visit(node)

            def _check(self, node: ast.Call, func: ast.Attribute) -> None:
                method = func.attr
                keywords = keyword_names(node)
                if "timeout" in keywords:
                    return
                if method == "get":
                    # Only queue-like receivers: dict.get is everywhere and
                    # never blocks.  Non-blocking gets pass block=False.
                    if not (
                        receiver_mentions(func.value, "queue")
                        or last_name(func.value) in queue_names
                    ):
                        return
                    blockless = any(
                        kw.arg == "block" and is_false_constant(kw.value)
                        for kw in node.keywords
                    ) or (len(node.args) >= 1 and is_false_constant(node.args[0]))
                    if blockless or len(node.args) >= 2:
                        return
                    context.report(
                        rule,
                        node,
                        "queue .get() without timeout/block=False can block a "
                        "drain or worker thread forever; pass an explicit timeout",
                    )
                elif method == "result":
                    # Future.result() blocks until completion; a positional
                    # arg is the timeout.
                    if node.args:
                        return
                    context.report(
                        rule,
                        node,
                        "Future.result() without a timeout can hang a batch on "
                        "one stuck worker; pass result(timeout=...)",
                    )
                elif method == "join":
                    # A zero-arg .join() is thread-shaped (str.join / os.path
                    # .join always take arguments); a positional arg is the
                    # thread timeout.
                    if node.args or node.keywords:
                        return
                    context.report(
                        rule,
                        node,
                        "Thread.join() without a timeout can hang shutdown on a "
                        "stuck thread; pass join(timeout=...)",
                    )
                elif method == "wait":
                    # Condition.wait / Event.wait; a positional arg is the
                    # timeout.
                    if node.args:
                        return
                    context.report(
                        rule,
                        node,
                        ".wait() without a timeout can strand a waiter if the "
                        "notify is lost; pass wait(timeout=...)",
                    )

        return Visitor()


# ---------------------------------------------------------------------- #
# RL009 — shared-memory segment lifecycle discipline
# ---------------------------------------------------------------------- #
class SharedMemoryLifecycleRule(Rule):
    """RL009: every ``SharedMemory(...)`` site follows the owner/worker split.

    The sharded serving stack leans on one etiquette: the *owner* process
    (``create=True``) both closes its mapping and unlinks the name; an
    *attaching* process only ever closes — a worker-side ``unlink`` deletes
    the segment under every other process.  The rule checks each direct
    constructor call:

    * ``create=True`` sites: the enclosing scope must handle both ``close``
      and ``unlink`` (failure paths included);
    * attach sites: the enclosing scope must handle ``close`` and must
      never call ``.unlink(...)``.

    One structural escape transfers the obligation instead: a call returned
    directly (``return SharedMemory(...)`` — ownership, and with it the
    lifecycle obligation, passes to the caller), which is how the one attach
    site of ``network/compiled/shm.py`` hands its handle to ``attach``.
    """

    rule_id = "RL009"
    severity = "error"
    description = (
        "SharedMemory lifecycle violation (owner must close+unlink, "
        "attachers close-only)"
    )
    path_scopes = ()  # everywhere — tests and benchmarks leak segments too

    def visitor(self, context: FileContext) -> ast.NodeVisitor:
        rule = self

        def is_shared_memory_call(node: ast.Call) -> bool:
            func = node.func
            if isinstance(func, ast.Name):
                return func.id == "SharedMemory"
            return isinstance(func, ast.Attribute) and func.attr == "SharedMemory"

        def is_owner_call(node: ast.Call) -> bool:
            for kw in node.keywords:
                if kw.arg == "create":
                    return not (
                        isinstance(kw.value, ast.Constant) and kw.value.value is False
                    )
            return False

        class Scope:
            """One function (or the module) and its SharedMemory activity."""

            def __init__(self, node: ast.AST) -> None:
                self.node = node
                self.calls: list[tuple[ast.Call, bool]] = []  # (call, owner?)
                self.mentions_close = False
                self.mentions_unlink = False
                self.calls_unlink = False

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self._scopes: list[Scope] = []

            def visit_Module(self, node: ast.Module) -> None:
                self._in_scope(node)

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self._in_scope(node)

            def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
                self._in_scope(node)

            def _in_scope(self, node: ast.AST) -> None:
                scope = Scope(node)
                self._scopes.append(scope)
                self.generic_visit(node)
                self._scopes.pop()
                self._finish(scope)

            def visit_Call(self, node: ast.Call) -> None:
                if is_shared_memory_call(node) and self._scopes:
                    scope = self._scopes[-1]
                    if not self._is_returned(node):
                        scope.calls.append((node, is_owner_call(node)))
                self.generic_visit(node)

            def _is_returned(self, node: ast.Call) -> bool:
                """``return SharedMemory(...)``: ownership, and the lifecycle
                obligation with it, transfers to the caller."""
                return any(
                    isinstance(stmt, ast.Return) and stmt.value is node
                    for stmt in ast.walk(self._scopes[-1].node)
                )

            def visit_Attribute(self, node: ast.Attribute) -> None:
                if self._scopes:
                    scope = self._scopes[-1]
                    lowered = node.attr.lower()
                    if "close" in lowered:
                        scope.mentions_close = True
                    if "unlink" in lowered:
                        scope.mentions_unlink = True
                self.generic_visit(node)

            def visit_Name(self, node: ast.Name) -> None:
                if self._scopes:
                    scope = self._scopes[-1]
                    lowered = node.id.lower()
                    if "close" in lowered:
                        scope.mentions_close = True
                    if "unlink" in lowered:
                        scope.mentions_unlink = True
                self.generic_visit(node)

            def _finish(self, scope: Scope) -> None:
                unlink_called = any(
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "unlink"
                    for child in ast.walk(scope.node)
                )
                for call, owner in scope.calls:
                    if owner:
                        if not scope.mentions_close or not scope.mentions_unlink:
                            context.report(
                                rule,
                                call,
                                "SharedMemory(create=True) owner site must close "
                                "its mapping and unlink the name (failure paths "
                                "included), or hand the handle off via 'return'",
                            )
                    else:
                        if unlink_called:
                            context.report(
                                rule,
                                call,
                                "attaching SharedMemory site also calls .unlink(); "
                                "only the creating owner may unlink — a worker-"
                                "side unlink deletes the segment under every "
                                "other process",
                            )
                        elif not scope.mentions_close:
                            context.report(
                                rule,
                                call,
                                "attaching SharedMemory site never closes its "
                                "mapping; attach sites are close-only (or hand "
                                "the handle off via 'return')",
                            )

        return Visitor()


# ---------------------------------------------------------------------- #
# RL010 — socket I/O in the serving layer runs on armed sockets only
# ---------------------------------------------------------------------- #
class SocketTimeoutRule(Rule):
    """RL010: socket operations in service/traffic carry explicit timeouts.

    The multi-node transport's liveness machinery — heartbeats, failover,
    journal replay — assumes no coordinator or worker thread can wedge on a
    dead peer.  That only holds if every blocking socket operation runs on
    a socket armed with a finite deadline.  Concretely, in ``service/`` and
    ``traffic/``:

    * a function calling ``recv``/``recv_into``/``recvfrom``/``accept``/
      ``connect``/``sendall`` on a socket-shaped receiver (its name mentions
      ``sock``, ``conn``, or ``listener``) must also call ``settimeout(...)``
      somewhere in that same function;
    * ``settimeout(None)`` — unbounded blocking mode — is banned outright;
    * ``select.select`` must pass its timeout argument;
    * ``socket.create_connection`` must pass ``timeout=``.

    The per-function granularity is deliberate: arming at construction and
    blocking three modules away hides the deadline from the reader at
    exactly the call that can hang, and refactors silently lose it.
    """

    rule_id = "RL010"
    severity = "error"
    description = (
        "socket operation without an explicit timeout in the serving layer"
    )
    path_scopes = ("repro/service/", "repro/traffic/")

    _SOCKET_METHODS = frozenset(
        {"recv", "recv_into", "recvfrom", "accept", "connect", "sendall"}
    )
    _RECEIVER_HINTS = ("sock", "conn", "listener")

    def visitor(self, context: FileContext) -> ast.NodeVisitor:
        rule = self

        def is_none_constant(expr: ast.expr) -> bool:
            return isinstance(expr, ast.Constant) and expr.value is None

        def keyword_names(node: ast.Call) -> set[str]:
            return {kw.arg for kw in node.keywords if kw.arg is not None}

        def socket_shaped(expr: ast.expr) -> bool:
            names = [name.lower() for name in _attr_chain_names(expr)]
            return any(hint in name for name in names for hint in rule._RECEIVER_HINTS)

        def arms_timeout(call: ast.Call) -> bool:
            func = call.func
            return (
                isinstance(func, ast.Attribute)
                and func.attr == "settimeout"
                and bool(call.args)
                and not is_none_constant(call.args[0])
            )

        def scope_calls(scope: ast.AST) -> list[ast.Call]:
            """Every call in this scope, not descending into nested defs."""
            calls: list[ast.Call] = []
            stack = list(ast.iter_child_nodes(scope))
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # nested functions are their own scope
                if isinstance(node, ast.Call):
                    calls.append(node)
                stack.extend(ast.iter_child_nodes(node))
            return calls

        class Visitor(ast.NodeVisitor):
            def visit_Module(self, node: ast.Module) -> None:
                self._scan(node)
                self.generic_visit(node)

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self._scan(node)
                self.generic_visit(node)

            def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
                self._scan(node)
                self.generic_visit(node)

            def _scan(self, scope: ast.AST) -> None:
                calls = scope_calls(scope)
                armed = any(arms_timeout(call) for call in calls)
                for call in calls:
                    func = call.func
                    if not isinstance(func, ast.Attribute):
                        continue
                    method = func.attr
                    if method == "settimeout":
                        if call.args and is_none_constant(call.args[0]):
                            context.report(
                                rule,
                                call,
                                "settimeout(None) puts the socket in unbounded "
                                "blocking mode; arm a finite timeout instead",
                            )
                    elif (
                        method == "select"
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "select"
                    ):
                        if len(call.args) < 4 and "timeout" not in keyword_names(call):
                            context.report(
                                rule,
                                call,
                                "select.select() without a timeout argument can "
                                "block forever; pass a finite timeout",
                            )
                    elif method == "create_connection":
                        if len(call.args) < 2 and "timeout" not in keyword_names(call):
                            context.report(
                                rule,
                                call,
                                "socket.create_connection() without timeout= "
                                "waits out the OS connect timeout (minutes); "
                                "pass an explicit timeout",
                            )
                    elif method in rule._SOCKET_METHODS and socket_shaped(func.value):
                        if not armed:
                            context.report(
                                rule,
                                call,
                                f"socket .{method}() in a function that never "
                                "arms a timeout; call settimeout(...) on the "
                                "socket before blocking I/O",
                            )

        return Visitor()


class DurabilityDisciplineRule(Rule):
    """RL011: durable-write discipline in the crash-consistency layer.

    The durability package and the model persistence module are the two
    places whose entire contract is "a crash cannot lose acknowledged
    data"; sloppy file handling there is silent data loss waiting for a
    power cut.  In ``service/durability/`` and ``service/persistence.py``:

    * a function calling ``os.replace(...)`` / ``os.rename(...)`` (the
      publish step of write-then-rename) must call ``os.fsync(...)`` — or a
      named fsync helper — *lexically earlier* in the same function: the
      rename is atomic in the namespace but says nothing about the data;
    * a file handle produced by ``open`` / ``os.fdopen`` / ``gzip.open`` /
      ``gzip.GzipFile`` / ``tempfile.NamedTemporaryFile`` must either be
      the context expression of a ``with`` statement or be assigned
      directly to a ``self.`` attribute (a long-lived handle an owner
      closes); anything else leaks the handle on the first exception;
    * bare ``open(...).write(...)``-style call chains are banned outright —
      the handle is unreachable the moment the statement ends, so it can
      neither be flushed deterministically nor closed on error.

    Factory functions that intentionally hand ownership to a caller (e.g.
    the injectable ``opener`` hooks) suppress with a justification — see
    the suppression etiquette in the README.
    """

    rule_id = "RL011"
    severity = "error"
    description = (
        "durable-write discipline: fsync before rename-publish, "
        "context-managed (or owner-held) file handles"
    )
    path_scopes = ("repro/service/durability/", "repro/service/persistence.py")

    _OPENER_ATTRS = frozenset({"open", "fdopen", "GzipFile", "NamedTemporaryFile"})

    def visitor(self, context: FileContext) -> ast.NodeVisitor:
        rule = self

        def is_opener(call: ast.Call) -> bool:
            func = call.func
            if isinstance(func, ast.Name) and func.id == "open":
                return True
            if not isinstance(func, ast.Attribute) or func.attr not in rule._OPENER_ATTRS:
                return False
            # os.open returns a raw fd (paired with os.close/os.fdopen),
            # not a file object — the handle rules don't apply to it.
            return not (isinstance(func.value, ast.Name) and func.value.id == "os" and func.attr == "open")

        def opener_label(call: ast.Call) -> str:
            func = call.func
            return func.id if isinstance(func, ast.Name) else func.attr  # type: ignore[union-attr]

        def is_fsync(call: ast.Call) -> bool:
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr == "fsync":
                return True
            # A dedicated helper (e.g. _fsync_dir) counts: the name carries
            # the intent and greps identically.
            return isinstance(func, ast.Name) and "fsync" in func.id.lower()

        def is_publish(call: ast.Call) -> bool:
            func = call.func
            return (
                isinstance(func, ast.Attribute)
                and func.attr in {"replace", "rename"}
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            )

        def scope_nodes(scope: ast.AST) -> list[ast.AST]:
            """Every node in this scope, not descending into nested defs."""
            nodes: list[ast.AST] = []
            stack = list(ast.iter_child_nodes(scope))
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # nested functions are their own scope
                nodes.append(node)
                stack.extend(ast.iter_child_nodes(node))
            return nodes

        class Visitor(ast.NodeVisitor):
            def visit_Module(self, node: ast.Module) -> None:
                self._scan(node)
                self.generic_visit(node)

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self._scan(node)
                self.generic_visit(node)

            def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
                self._scan(node)
                self.generic_visit(node)

            def _scan(self, scope: ast.AST) -> None:
                nodes = scope_nodes(scope)
                calls = [node for node in nodes if isinstance(node, ast.Call)]
                # Handles considered owned: `with <opener>(...) ...` items
                # and `self.<attr> = <opener>(...)` assignments.
                managed: set[int] = set()
                for node in nodes:
                    if isinstance(node, (ast.With, ast.AsyncWith)):
                        for item in node.items:
                            managed.add(id(item.context_expr))
                    elif isinstance(node, ast.Assign):
                        owned = any(
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            for target in node.targets
                        )
                        if owned:
                            managed.add(id(node.value))
                fsync_lines = sorted(
                    call.lineno for call in calls if is_fsync(call)
                )
                chained: set[int] = set()
                for call in calls:
                    func = call.func
                    if (
                        isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Call)
                        and is_opener(func.value)
                    ):
                        chained.add(id(func.value))
                        context.report(
                            rule,
                            call,
                            f"bare {opener_label(func.value)}(...).{func.attr}(...) "
                            "chain: the handle is unreachable after this "
                            "statement — it can neither be fsynced nor closed "
                            "on error; use a with block",
                        )
                for call in calls:
                    if is_publish(call):
                        if not any(line < call.lineno for line in fsync_lines):
                            func_attr = call.func.attr  # type: ignore[union-attr]
                            context.report(
                                rule,
                                call,
                                f"os.{func_attr}() publishes data that was "
                                "never fsynced: the rename is atomic in the "
                                "namespace but a power loss can still surface "
                                "a truncated file; fsync the handle first",
                            )
                    elif (
                        is_opener(call)
                        and id(call) not in managed
                        and id(call) not in chained
                    ):
                        context.report(
                            rule,
                            call,
                            f"file handle from {opener_label(call)}(...) is "
                            "neither context-managed (with block) nor stored "
                            "on a self. attribute with owner-side close(); a "
                            "crash here leaks it un-flushed",
                        )

        return Visitor()


#: The default rule battery, in id order.
ALL_RULES: tuple[Rule, ...] = (
    VersionStampRule(),
    LockDisciplineRule(),
    DispatchOnlyRule(),
    DtypeContractRule(),
    SilentExceptRule(),
    WallClockRule(),
    MutableDefaultRule(),
    UnboundedBlockingRule(),
    SharedMemoryLifecycleRule(),
    SocketTimeoutRule(),
    DurabilityDisciplineRule(),
)
