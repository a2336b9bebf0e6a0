"""The repo-specific lint rules (REP001, REP003-REP006).

Each rule protects one structural claim of the paper (or one
engineering invariant earlier PRs established to keep the
reproduction honest).  Rules are deliberately calibrated against the
real tree: they encode *which* constructs are sanctioned (e.g. the
tie-safe comparator vocabulary in ``model/interval.py``, seeded
``random.Random`` instances) and flag everything else.  Scope
decisions use forward-slash path fragments so the same rules run
unchanged over the fixture corpus in ``tests/analysis/fixtures/``,
which mirrors the repo layout.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from .framework import Finding, Rule, SourceModule, register_rule

#: Attributes that are unambiguously interval endpoints: a raw ordered
#: comparison against either side is always a tie-safety hazard.
_STRONG_ENDPOINTS = {"valid_from", "valid_to"}

#: Attributes that *may* be endpoints (``Interval.start``/``.end``) but
#: also appear on unrelated objects; both comparands must look like
#: endpoints before REP001 fires, to avoid false positives.
_WEAK_ENDPOINTS = {"start", "end"}

_ORDERED_CMPOPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _attr_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_strong(node: ast.AST) -> bool:
    return _attr_name(node) in _STRONG_ENDPOINTS


def _is_endpointish(node: ast.AST) -> bool:
    name = _attr_name(node)
    return name in _STRONG_ENDPOINTS or name in _WEAK_ENDPOINTS


@register_rule
class TieSafeComparators(Rule):
    """REP001: no raw ordered comparisons or sort keys on interval
    endpoints outside ``model/interval.py``."""

    id = "REP001"
    title = (
        "raw </<= on interval endpoints outside model/interval.py"
    )
    rationale = (
        "Section 2: with closed-open intervals the strict-vs-non-strict "
        "choice at an endpoint tie IS the operator semantics.  PR 1 fixed "
        "the tie bugs once; every ordered endpoint comparison must go "
        "through the named comparators in model/interval.py so the "
        "decision is made (and tested) in exactly one place."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.is_file("model/interval.py"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Compare):
                yield from self._check_compare(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_sort_call(module, node)

    def _check_compare(
        self, module: SourceModule, node: ast.Compare
    ) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, _ORDERED_CMPOPS):
                continue
            left, right = operands[index], operands[index + 1]
            strong = _is_strong(left) or _is_strong(right)
            weak_pair = _is_endpointish(left) and _is_endpointish(right)
            if strong or weak_pair:
                yield module.finding(
                    self,
                    node,
                    "ordered comparison on interval endpoint(s); use a "
                    "tie-safe comparator from repro.model.interval "
                    "(e.g. starts_no_later, ends_by_start, "
                    "contains_lifespan)",
                )
                return  # one finding per comparison chain

    def _check_sort_call(
        self, module: SourceModule, node: ast.Call
    ) -> Iterator[Finding]:
        func = node.func
        is_sort = (
            isinstance(func, ast.Name) and func.id in ("sorted", "min", "max")
        ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
        if not is_sort:
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            for sub in ast.walk(keyword.value):
                if _is_strong(sub):
                    yield module.finding(
                        self,
                        node,
                        "sort key built from raw interval endpoints; "
                        "use repro.model.interval.lifespan_key (or a "
                        "named comparator) so endpoint ordering stays "
                        "tie-safe in one place",
                    )
                    return


@register_rule
class SeededWorkerRandomness(Rule):
    """REP003: no wall-clock time or unseeded randomness in
    ``parallel/``, ``resilience/``, ``governance/`` or ``obs/``
    paths."""

    id = "REP003"
    title = "wall-clock time / unseeded randomness in worker paths"
    rationale = (
        "Parallel range-partitioned execution must be replayable: "
        "identical inputs must produce identical shard plans and "
        "identical merges, and "
        "governance deadlines/budgets must survive wall-clock steps "
        "(NTP slew).  time.time() and module-level random.* smuggle "
        "ambient state in; only injected random.Random(seed) "
        "instances and monotonic/perf counters are allowed "
        "(audit-record timestamps are the one exemption, via noqa)."
    )

    #: module -> banned attribute set (None = everything banned except
    #: the allowlist below).
    _BANNED_ATTRS = {
        "time": {"time", "time_ns"},
        "os": {"urandom"},
        "uuid": {"uuid4", "uuid1"},
    }
    #: random.* is banned wholesale except constructing a seeded
    #: generator (and the SystemRandom class is never acceptable).
    _RANDOM_ALLOWED = {"Random"}

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not (
            module.in_dir("parallel")
            or module.in_dir("resilience")
            or module.in_dir("governance")
            or module.in_dir("obs")
        ):
            return
        aliases = self._module_aliases(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(module, node)
            elif isinstance(node, ast.Attribute):
                yield from self._check_attribute(module, node, aliases)

    def _module_aliases(self, module: SourceModule) -> Dict[str, str]:
        """Local name -> stdlib module name for plain imports."""
        aliases: Dict[str, str] = {}
        watched = set(self._BANNED_ATTRS) | {"random"}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in watched:
                        aliases[alias.asname or alias.name] = alias.name
        return aliases

    def _check_import_from(
        self, module: SourceModule, node: ast.ImportFrom
    ) -> Iterator[Finding]:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in self._RANDOM_ALLOWED:
                    yield module.finding(
                        self,
                        node,
                        f"from random import {alias.name}: module-level "
                        "randomness is unseeded; inject a "
                        "random.Random(seed) instance instead",
                    )
            return
        banned = self._BANNED_ATTRS.get(node.module or "")
        if banned:
            for alias in node.names:
                if alias.name in banned:
                    yield module.finding(
                        self,
                        node,
                        f"from {node.module} import {alias.name} is "
                        "nondeterministic in worker paths; use "
                        "time.perf_counter / injected seeds",
                    )

    def _check_attribute(
        self,
        module: SourceModule,
        node: ast.Attribute,
        aliases: Dict[str, str],
    ) -> Iterator[Finding]:
        if not isinstance(node.value, ast.Name):
            return
        stdlib = aliases.get(node.value.id)
        if stdlib is None:
            return  # instance receivers (rng.random()) are sanctioned
        if stdlib == "random":
            if node.attr not in self._RANDOM_ALLOWED:
                yield module.finding(
                    self,
                    node,
                    f"random.{node.attr} uses the shared unseeded "
                    "generator; construct random.Random(seed) and pass "
                    "it in",
                )
        elif node.attr in self._BANNED_ATTRS.get(stdlib, set()):
            yield module.finding(
                self,
                node,
                f"{stdlib}.{node.attr} is wall-clock/ambient state; "
                "worker paths must be replayable (use "
                "time.perf_counter for durations, injected seeds for "
                "randomness)",
            )


@register_rule
class WorkspaceMeterAccounting(Rule):
    """REP004: kernels and workspaces must thread WorkspaceMeter /
    SweepStats accounting."""

    id = "REP004"
    title = "kernel or workspace without meter accounting"
    rationale = (
        "The paper's Figures 4-5 claims are about *state size over "
        "time*; a Workspace constructed without a meter, or a columnar "
        "kernel that does not report SweepStats, produces results whose "
        "workspace class (a/b/c/d) is unverifiable at runtime."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.is_file("streams/workspace.py"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_workspace_call(module, node)
        if module.is_file("columnar/kernels.py"):
            yield from self._check_kernels(module)

    def _check_workspace_call(
        self, module: SourceModule, node: ast.Call
    ) -> Iterator[Finding]:
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name != "Workspace":
            return
        has_meter = len(node.args) >= 2 or any(
            keyword.arg == "meter" for keyword in node.keywords
        )
        if not has_meter:
            yield module.finding(
                self,
                node,
                "Workspace(...) constructed without meter=; state-size "
                "accounting (Figure 5) is lost for this operator",
            )

    def _check_kernels(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("_"):
                continue
            references_stats = any(
                isinstance(sub, ast.Name) and sub.id == "SweepStats"
                for sub in ast.walk(node)
            )
            if not references_stats:
                yield module.finding(
                    self,
                    node,
                    f"kernel {node.name}() does not thread SweepStats; "
                    "every public kernel must return (output, "
                    "SweepStats) so the backend can mirror it into "
                    "WorkspaceMeter",
                )


@register_rule
class ContextManagedSpans(Rule):
    """REP005: tracer spans are opened via ``with`` only."""

    id = "REP005"
    title = "tracer span opened outside a with-statement"
    rationale = (
        "A span opened imperatively and closed manually leaks on any "
        "exception path, corrupting the span tree EXPLAIN ANALYZE "
        "renders; `with tracer.span(...)` guarantees balanced "
        "open/close."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "span"):
                continue
            receiver = ast.unparse(func.value)
            if "tracer" not in receiver.lower():
                continue  # e.g. Interval.span — not a tracing call
            parent = module.parents.get(node)
            if isinstance(parent, ast.withitem):
                continue
            yield module.finding(
                self,
                node,
                f"{receiver}.span(...) outside a with-statement; open "
                "spans only as context managers",
            )


@register_rule
class NoBareAssert(Rule):
    """REP006: no bare ``assert`` in library code."""

    id = "REP006"
    title = "bare assert in src/ (stripped under python -O)"
    rationale = (
        "python -O strips assert statements, silently removing the "
        "invariant; library invariants must raise typed exceptions "
        "(ProcessorStateError, StreamStateError, PlanStateError, ...) "
        "so they survive optimisation and are catchable."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield module.finding(
                    self,
                    node,
                    "bare assert is stripped under python -O; raise a "
                    "typed exception from repro.errors instead",
                )
