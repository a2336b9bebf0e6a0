"""Flow-sensitive rules REP007-REP009.

These rules protect the *runtime* invariants PRs 6-8 introduced — shm
segment ownership, governance checkpoints on hot loops, and the
exception discipline of the pool and ladder paths — the concurrency
counterpart of the algebraic Tables 1-3 checks.  They are built on :mod:`repro.analysis.cfg` rather than on
single-node syntax because each one is a path property: "on every
path out of this function, including the exceptional ones, X happened
before the exit".

Scope notes live on each rule; every rule is calibrated against the
real tree (true positives are fixed or carry a justified
``# repro: noqa``) and pinned by a violating/clean fixture twin under
``tests/analysis/fixtures/repo/``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .cfg import build_cfg, functions, must_reach
from .framework import Finding, Rule, SourceModule, register_rule

# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
_FuncDef = "ast.FunctionDef | ast.AsyncFunctionDef"
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _local_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function/class
    scopes, so statements are attributed to their own function."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _SCOPE_NODES):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _keyword_true(call: ast.Call, name: str) -> bool:
    for kw in call.keywords:
        if kw.arg == name:
            return (
                isinstance(kw.value, ast.Constant) and kw.value.value is True
            )
    return False


def _is_bare_ref(expr: ast.expr, var: str) -> bool:
    """True when ``expr`` hands out the object itself (not a derived
    attribute/buffer): the bare name, possibly inside a container."""
    if isinstance(expr, ast.Name):
        return expr.id == var
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_bare_ref(elt, var) for elt in expr.elts)
    return False


def _escapes(func: ast.AST, var: str, binding: ast.stmt) -> bool:
    """Ownership of ``var`` leaves the function: returned, yielded,
    aliased, or passed *as itself* to another call.  Using a derived
    value (``var.buf``, ``var.size``) is not an escape."""
    for node in _local_walk(func):
        if node is binding:
            continue
        if isinstance(node, ast.Return):
            if node.value is not None and any(
                isinstance(n, ast.Name) and n.id == var
                for n in ast.walk(node.value)
            ):
                return True
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None and any(
                isinstance(n, ast.Name) and n.id == var
                for n in ast.walk(node.value)
            ):
                return True
        elif isinstance(node, ast.Assign):
            if _is_bare_ref(node.value, var):
                return True
        elif isinstance(node, ast.Call):
            args: List[ast.expr] = list(node.args) + [
                kw.value for kw in node.keywords
            ]
            if any(_is_bare_ref(arg, var) for arg in args):
                return True
    return False


def _method_call_on(stmt: ast.stmt, var: str, method: str) -> bool:
    for node in ast.walk(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == var
        ):
            return True
    return False


def _enclosing_function(
    module: SourceModule, node: ast.AST
) -> Optional[ast.AST]:
    current: Optional[ast.AST] = node
    while current is not None:
        current = module.parents.get(current)
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
    return None


# ----------------------------------------------------------------------
# REP007 — shared-memory segment lifecycle
# ----------------------------------------------------------------------
def _is_shm_create(call: ast.Call) -> bool:
    name = _call_name(call)
    if name == "create_segment":
        return True
    return name == "SharedMemory" and _keyword_true(call, "create")


def _is_shm_attach(call: ast.Call) -> bool:
    return _call_name(call) == "SharedMemory" and not _keyword_true(
        call, "create"
    )


@register_rule
class ShmSegmentLifecycle(Rule):
    """REP007: shm creates must close+unlink; attaches must not unlink."""

    id = "REP007"
    title = (
        "SharedMemory creates reach close()+unlink(); attach side "
        "never unlinks"
    )
    rationale = (
        "PR 6's zero-copy shard runtime works only under strict "
        "segment ownership: the creator closes on every path "
        "(exceptions included) and unlinks exactly once; workers that "
        "attach must never unlink or the resource tracker double-frees "
        "(bpo-38119 discipline)."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.in_dir("parallel"):
            return
        for func in functions(module.tree):
            yield from self._check_function(module, func)
        yield from self._check_owner_classes(module)

    def _bindings(
        self, func: ast.AST, want_create: bool
    ) -> Iterator[Tuple[ast.Assign, str]]:
        for node in _local_walk(func):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            matches = (
                _is_shm_create(node.value)
                if want_create
                else _is_shm_attach(node.value)
            )
            if not matches:
                continue
            if len(node.targets) == 1 and isinstance(
                node.targets[0], ast.Name
            ):
                yield node, node.targets[0].id

    def _check_function(
        self, module: SourceModule, func: ast.AST
    ) -> Iterator[Finding]:
        creations = list(self._bindings(func, want_create=True))
        attaches = list(self._bindings(func, want_create=False))
        # Creations whose value is dropped on the floor.
        for node in _local_walk(func):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and _is_shm_create(node.value)
            ):
                yield module.finding(
                    self,
                    node,
                    "SharedMemory segment created and immediately "
                    "dropped: nothing can ever close() or unlink() it",
                )
        if creations:
            exc_cfg = build_cfg(func, exception_edges=True)  # type: ignore[arg-type]
            norm_cfg = build_cfg(func, exception_edges=False)  # type: ignore[arg-type]
            for stmt, var in creations:
                if _escapes(func, var, stmt):
                    continue
                nid = exc_cfg.id_of(stmt)
                starts = exc_cfg.normal.get(nid, set()) if nid is not None else set()
                if not must_reach(
                    exc_cfg,
                    starts,
                    lambda s: _method_call_on(s, var, "close"),
                ):
                    yield module.finding(
                        self,
                        stmt,
                        f"segment {var!r} may exit this function without "
                        "close() — an exception path skips the unmap",
                    )
                nid = norm_cfg.id_of(stmt)
                starts = (
                    norm_cfg.normal.get(nid, set()) if nid is not None else set()
                )
                if not must_reach(
                    norm_cfg,
                    starts,
                    lambda s: _method_call_on(s, var, "unlink"),
                ):
                    yield module.finding(
                        self,
                        stmt,
                        f"segment {var!r} created here is not unlink()ed "
                        "on the normal path — the name leaks until "
                        "interpreter exit",
                    )
        for stmt, var in attaches:
            for node in _local_walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unlink"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == var
                ):
                    yield module.finding(
                        self,
                        node,
                        f"attach-side unlink() of segment {var!r}: only "
                        "the creating process may unlink (resource-"
                        "tracker discipline)",
                    )

    def _check_owner_classes(
        self, module: SourceModule
    ) -> Iterator[Finding]:
        """A class whose ``__init__`` stores a created segment on
        ``self`` must provide a method that both closes and unlinks
        it."""
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            init = next(
                (
                    f
                    for f in cls.body
                    if isinstance(f, ast.FunctionDef)
                    and f.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            for node in _local_walk(init):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and _is_shm_create(node.value)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id == "self"
                ):
                    attr = node.targets[0].attr
                    if not self._class_releases(cls, attr):
                        yield module.finding(
                            self,
                            node,
                            f"created segment stored on self.{attr} but "
                            f"no method of {cls.name} calls both "
                            f"self.{attr}.close() and self.{attr}."
                            "unlink()",
                        )

    @staticmethod
    def _class_releases(cls: ast.ClassDef, attr: str) -> bool:
        def _calls(method: ast.AST, op: str) -> bool:
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == op
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == attr
                ):
                    return True
            return False

        for method in cls.body:
            if isinstance(method, ast.FunctionDef):
                if _calls(method, "close") and _calls(method, "unlink"):
                    return True
        return False


# ----------------------------------------------------------------------
# REP008 — governance checkpoints on governed functions and raw loops
# ----------------------------------------------------------------------
_CHECKPOINTS = frozenset(
    {"check", "charge_pages", "charge_workspace", "charge_shm"}
)
#: Charging primitives: calling one of these *is* governed work that
#: carries its own checkpoint, so a loop built on them is fine.
_CHARGING_PRIMITIVES = frozenset(
    {
        "page",
        "get_page",
        "read_page",
        "scan",
        "drain",
        "advance",
        "insert",
        "note_batch_pass",
        "on_insert",
        "run_task",
    }
)
#: (module suffix, function names) that must contain a checkpoint.
#: This is the load-bearing hot-path inventory from PRs 1-9; removing
#: a checkpoint from (or deleting) one of these functions is exactly
#: the erosion this rule exists to catch.
_GOVERNED_FUNCTIONS: Sequence[Tuple[str, Tuple[str, ...]]] = (
    ("storage/heap_file.py", ("page", "scan")),
    ("streams/stream.py", ("_open", "note_batch_pass")),
    ("streams/workspace.py", ("on_insert",)),
    ("columnar/backend.py", ("_absorb", "_materialise")),
    ("parallel/pool.py", ("_completed",)),
    ("parallel/worker.py", ("run_shard",)),
    ("parallel/shm.py", ("write_result", "read_result")),
)


def _contains_checkpoint(node: ast.AST) -> bool:
    for child in _local_walk(node):
        if (
            isinstance(child, ast.Call)
            and _call_name(child) in _CHECKPOINTS
        ):
            return True
    return False


@register_rule
class GovernanceCheckpointCoverage(Rule):
    """REP008: hot loops and governed functions must checkpoint."""

    id = "REP008"
    title = (
        "page/batch/workspace hot paths carry a governance checkpoint"
    )
    rationale = (
        "Deadlines, budgets and cancellation (PR 7) are cooperative: "
        "they only fire at charge_pages/charge_workspace/check() "
        "call sites.  A loop that touches storage internals without "
        "one is invisible to governance — it can overrun any budget "
        "unkillably."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        yield from self._check_governed_functions(module)
        yield from self._check_raw_loops(module)

    def _check_governed_functions(
        self, module: SourceModule
    ) -> Iterator[Finding]:
        for suffix, names in _GOVERNED_FUNCTIONS:
            if not module.is_file(suffix):
                continue
            defined = {
                f.name: f
                for f in functions(module.tree)
            }
            for name in names:
                func = defined.get(name)
                if func is None:
                    yield module.finding(
                        self,
                        module.tree.body[0] if module.tree.body else module.tree,  # type: ignore[arg-type]
                        f"governed function {name}() is missing from "
                        f"{suffix}: the checkpoint inventory no longer "
                        "matches the code",
                    )
                elif not _contains_checkpoint(func):
                    yield module.finding(
                        self,
                        func,
                        f"governed function {name}() contains no "
                        "charge_pages/charge_workspace/charge_shm/"
                        "check() call — this hot path is ungovernable",
                    )

    def _check_raw_loops(self, module: SourceModule) -> Iterator[Finding]:
        if not (
            module.in_dir("storage")
            or module.in_dir("streams")
            or module.in_dir("columnar")
            or module.in_dir("parallel")
        ):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.For, ast.While)):
                continue
            if not self._is_raw_hot_loop(node):
                continue
            if self._is_governed_loop(node):
                continue
            yield module.finding(
                self,
                node,
                "loop reads storage internals (_pages/_source_factory) "
                "with no governance checkpoint and no charging "
                "primitive in its body",
            )

    @staticmethod
    def _is_raw_hot_loop(loop: ast.AST) -> bool:
        """Loops over raw storage internals — page lists and source
        factories — that bypass the charging primitives entirely."""
        for node in _local_walk(loop):
            if isinstance(node, ast.Attribute) and node.attr in (
                "_pages",
                "_source_factory",
            ):
                return True
        return False

    @staticmethod
    def _is_governed_loop(loop: ast.AST) -> bool:
        for node in _local_walk(loop):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in _CHECKPOINTS or name in _CHARGING_PRIMITIVES:
                    return True
        return False


# ----------------------------------------------------------------------
# REP009 — broad excepts must not swallow governance errors
# ----------------------------------------------------------------------
_GOVERNANCE_NAMES = frozenset(
    {
        "GovernanceError",
        "DeadlineExceededError",
        "QueryCancelledError",
        "BudgetExceededError",
        "ReproError",
    }
)
_TEARDOWN_NAMES = frozenset(
    {"shutdown", "close", "stop", "terminate", "__exit__", "__del__"}
)


def _exception_names(annotation: Optional[ast.expr]) -> Set[str]:
    if annotation is None:
        return set()
    names: Set[str] = set()
    targets = (
        annotation.elts
        if isinstance(annotation, ast.Tuple)
        else [annotation]
    )
    for target in targets:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


@register_rule
class GovernanceExceptHygiene(Rule):
    """REP009: ``except Exception`` may not swallow GovernanceError."""

    id = "REP009"
    title = "broad excepts re-raise or pre-filter governance errors"
    rationale = (
        "Deadline/budget/cancellation errors are terminal: a recovery "
        "ladder or pool path that catches Exception without re-raising "
        "turns a hard governance verdict into a silent fallback or "
        "re-dispatch."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not (
            module.in_dir("parallel")
            or module.in_dir("resilience")
            or module.in_dir("governance")
        ):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            governance_filtered = False
            for handler in node.handlers:
                names = _exception_names(handler.type)
                if names & _GOVERNANCE_NAMES:
                    governance_filtered = True
                    continue
                broad = handler.type is None or names & {
                    "Exception",
                    "BaseException",
                }
                if not broad or governance_filtered:
                    continue
                if self._reraises(handler):
                    continue
                enclosing = _enclosing_function(module, node)
                if (
                    enclosing is not None
                    and getattr(enclosing, "name", "") in _TEARDOWN_NAMES
                ):
                    # Teardown paths must proceed past any error —
                    # refusing to clean up because a deadline fired
                    # would leak the very resources REP007 guards.
                    continue
                yield module.finding(
                    self,
                    handler,
                    "broad except can swallow GovernanceError "
                    "(deadline/budget/cancel): name governance errors "
                    "in an earlier handler or re-raise",
                )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        for node in _local_walk(handler):
            if isinstance(node, ast.Raise) and node.exc is None:
                return True
        return False
