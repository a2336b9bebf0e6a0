"""Source rules over ``src/repro`` that no behavioural test can see.

Each rule is a plain function ``check(path, nodes)`` over a module's
nodes, each paired with the qualified name of the function or class
it sits in (``"<module>"`` at top level); it yields that name for
every node that breaks the rule.  Two directions per rule:

* over the real tree, the findings equal the rule's allow-list exactly
  — an exemption is keyed by (file, function), so one that no longer
  suppresses anything fails the build as surely as a new finding;
* over one inline snippet per kind of finding, the rule fires — no
  blind spot, without a fixture corpus.

``src/repro`` is parsed and walked once per session.
"""

from __future__ import annotations

import ast
import textwrap
from functools import cache
from pathlib import Path
from typing import Iterator

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: A module's nodes, each with the qualified name of its scope.
Nodes = list[tuple[str, ast.AST]]


def _scoped(node: ast.AST, scope: str = "<module>") -> Iterator[tuple[str, ast.AST]]:
    """Every node under ``node`` with the qualified name of the
    function or class it sits in."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope
        if isinstance(child, _SCOPES):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
        yield from _scoped(child, inner)


@cache
def _modules() -> dict[str, Nodes]:
    return {
        path.relative_to(SRC).as_posix(): list(_scoped(ast.parse(path.read_text(), str(path))))
        for path in sorted(SRC.rglob("*.py"))
    }


def _local_walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not enter nested functions or classes."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (*_SCOPES, ast.Lambda)):
            yield child
            yield from _local_walk(child)


def _callee(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _attr(node: ast.AST) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else None


def _package(path: str) -> str:
    return path.partition("/")[0]


# ----------------------------------------------------------------------
# REP001: ordered endpoint comparisons only in model/interval.py
# ----------------------------------------------------------------------
# Under closed-open [TS, TE) the choice of < or <= at an endpoint tie IS
# the operator's meaning, so it is made once, in the named comparators
# (and their bulk forms) of model/interval.py.  ``start``/``end`` name
# endpoints only when both sides of a comparison do.
_ENDPOINTS = {"valid_from", "valid_to"}
_MAYBE_ENDPOINTS = _ENDPOINTS | {"start", "end"}
_ORDERED = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _orders_endpoints(op: ast.cmpop, left: ast.expr, right: ast.expr) -> bool:
    names = {_attr(left), _attr(right)}
    return isinstance(op, _ORDERED) and bool(
        names & _ENDPOINTS or names <= _MAYBE_ENDPOINTS
    )


def raw_endpoint_ordering(path: str, nodes: Nodes) -> Iterator[str]:
    if path == "model/interval.py":
        return
    for scope, node in nodes:
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_orders_endpoints, node.ops, operands, operands[1:])):
                yield scope
        elif _callee(node) in ("sorted", "min", "max", "sort") and any(
            _attr(sub) in _ENDPOINTS
            for keyword in node.keywords
            if keyword.arg == "key"
            for sub in ast.walk(keyword.value)
        ):
            yield scope


# ----------------------------------------------------------------------
# REP003: no wall clock or ambient randomness on replayable paths
# ----------------------------------------------------------------------
# Shard plans, merges, fault targets and deadlines must come out the
# same from the same inputs and seeds, and survive wall-clock steps:
# durations use perf_counter/monotonic, randomness an injected
# random.Random(seed).
_AMBIENT = {"time": {"time", "time_ns"}, "os": {"urandom"}, "uuid": {"uuid1", "uuid4"}}


def _is_ambient(module: str | None, name: str) -> bool:
    if module == "random":
        return name != "Random"
    return name in _AMBIENT.get(module, ())


def ambient_state(path: str, nodes: Nodes) -> Iterator[str]:
    if _package(path) not in ("parallel", "resilience", "governance", "obs"):
        return
    imported = {
        alias.asname or alias.name: alias.name
        for _, node in nodes
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    for scope, node in nodes:
        if isinstance(node, ast.ImportFrom):
            uses = [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            uses = [(imported.get(node.value.id), node.attr)]
        else:
            continue
        for module, name in uses:
            if _is_ambient(module, name):
                yield scope


# ----------------------------------------------------------------------
# REP006: no bare assert in library code
# ----------------------------------------------------------------------
# python -O strips asserts; an invariant raises a typed repro.errors
# exception instead.
def bare_assert(path: str, nodes: Nodes) -> Iterator[str]:
    for scope, node in nodes:
        if isinstance(node, ast.Assert):
            yield scope


# ----------------------------------------------------------------------
# REP008: governed hot paths carry a governance checkpoint
# ----------------------------------------------------------------------
# Deadlines, budgets and cancellation are cooperative: they fire only
# where a checkpoint is called.  Each function below is a hot path that
# must call one; a loop over raw storage internals must call a
# checkpoint or a charging primitive (which checkpoints itself).
GOVERNED = {
    "storage/heap_file.py": ("page", "scan"),
    "streams/stream.py": ("_open", "note_batch_pass"),
    "streams/workspace.py": ("on_insert",),
    "columnar/backend.py": ("_absorb", "_materialise"),
    "parallel/pool.py": ("_completed",),
    "parallel/worker.py": ("run_shard",),
}
_CHECKPOINTS = {"check", "charge_pages", "charge_workspace"}
_CHARGING = {
    "page", "get_page", "read_page", "scan", "drain", "advance",
    "insert", "note_batch_pass", "on_insert", "run_task",
}


def _calls(node: ast.AST) -> set[str]:
    return {_callee(sub) for sub in _local_walk(node)} - {None}


def ungoverned(path: str, nodes: Nodes) -> Iterator[str]:
    defined = {
        node.name: node
        for _, node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for name in GOVERNED.get(path, ()):
        if name not in defined or not _calls(defined[name]) & _CHECKPOINTS:
            yield name
    if _package(path) not in ("storage", "streams", "columnar", "parallel"):
        return
    for scope, node in nodes:
        if (
            isinstance(node, (ast.For, ast.While))
            and any(
                _attr(sub) in ("_pages", "_source_factory")
                for sub in _local_walk(node)
            )
            and not _calls(node) & (_CHECKPOINTS | _CHARGING)
        ):
            yield scope


# ----------------------------------------------------------------------
# REP009: a broad except on a ladder or pool path lets governance out
# ----------------------------------------------------------------------
# A deadline, budget or cancellation error is terminal: caught by
# ``except Exception`` it turns into a fallback or a re-dispatch that
# spends more of what the caller bounded.  A broad handler re-raises or
# follows a handler that names a governance error.
_GOVERNANCE = {
    "GovernanceError", "DeadlineExceededError", "QueryCancelledError",
    "BudgetExceededError", "ReproError",
}


def _caught(handler: ast.ExceptHandler) -> set[str | None]:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {getattr(node, "attr", getattr(node, "id", None)) for node in types}


def swallowed_governance(path: str, nodes: Nodes) -> Iterator[str]:
    if _package(path) not in ("parallel", "resilience", "governance"):
        return
    for scope, node in nodes:
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            caught = _caught(handler)
            if caught & _GOVERNANCE:
                break
            broad = handler.type is None or caught & {"Exception", "BaseException"}
            if broad and not any(
                isinstance(sub, ast.Raise) and sub.exc is None
                for sub in _local_walk(handler)
            ):
                yield scope


# ----------------------------------------------------------------------
# One way to gather: a column read at many positions goes through
# repro.columns.gather
# ----------------------------------------------------------------------
# ``gather`` is one C-level ``itemgetter`` call and answers 0 and 1
# positions itself; a ``map(column.__getitem__, index)`` is a second
# spelling of the same read, lazy, one iterator step per entry.
def lazy_gather(path: str, nodes: Nodes) -> Iterator[str]:
    if path == "columns.py":
        return
    for scope, node in nodes:
        if (
            _callee(node) == "map"
            and node.args
            and _attr(node.args[0]) == "__getitem__"
        ):
            yield scope


# ----------------------------------------------------------------------
# Runs of one repeated index are emitted from a list
# ----------------------------------------------------------------------
# A kernel emitting one index ``w`` times extends its output column by
# ``[i] * w``, built in one C step; ``extend(repeat(i, w))`` steps a
# ``repeat`` iterator once per entry.
def repeat_emission(path: str, nodes: Nodes) -> Iterator[str]:
    for scope, node in nodes:
        callee = _callee(node)
        if (
            callee is not None
            and (callee == "extend" or callee.startswith("extend_"))
            and any(_callee(arg) == "repeat" for arg in node.args)
        ):
            yield scope


# ----------------------------------------------------------------------
# An input read in full is drained with run()
# ----------------------------------------------------------------------
# A conventional operator that reads a child whole before its first
# output row takes ``child.run()``: a scan, a plain projection and a
# selection of a relation answer it column-wise, with the charges
# iteration makes.  ``list(self.child)`` steps a generator and calls
# the predicate once per row instead.
_CHILDREN = {"left", "right", "child"}


def drain_by_iteration(path: str, nodes: Nodes) -> Iterator[str]:
    if not path.startswith("relational/operators/") or path.endswith("/base.py"):
        return
    for scope, node in nodes:
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "list"
            and node.args
            and _attr(node.args[0]) in _CHILDREN
            and getattr(node.args[0].value, "id", None) == "self"
        ):
            yield scope


# ----------------------------------------------------------------------
# Generated code is compiled through one memoised helper
# ----------------------------------------------------------------------
# A plan is built per query, and its predicates are the same text each
# time: ``relational/expressions.py::_code`` compiles a text once and
# keeps its code object in a bounded cache.  A bare ``compile(``
# anywhere else pays the compiler on every query.
def uncached_compile(path: str, nodes: Nodes) -> Iterator[str]:
    for scope, node in nodes:
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "compile"
            and (path, scope) != ("relational/expressions.py", "_code")
        ):
            yield scope


# ----------------------------------------------------------------------
# the rules against the real tree and against their snippets
# ----------------------------------------------------------------------
ALLOWED = {
    raw_endpoint_ordering: [],
    # Audit ids and timestamps are wall-clock by design: an id must be
    # unique across restarts, and a record is anchored to operator time.
    ambient_state: [
        ("obs/audit.py", "_next_query_id"),
        ("obs/audit.py", "build_record"),
    ],
    bare_assert: [],
    ungoverned: [],
    swallowed_governance: [],
    lazy_gather: [],
    repeat_emission: [],
    drain_by_iteration: [],
    uncached_compile: [],
}

#: (rule, path the snippet pretends to live at, snippet, findings).
VIOLATIONS = [
    (raw_endpoint_ordering, "streams/x.py", """
        def meets(a, b):
            return a.valid_to <= b.valid_from
    """, ["meets"]),
    (raw_endpoint_ordering, "streams/x.py", """
        class Span:
            def before(self, other):
                return self.end < other.start
    """, ["Span.before"]),
    (raw_endpoint_ordering, "columnar/x.py", """
        def order(rows):
            return sorted(rows, key=lambda row: (row.valid_from, 0))
    """, ["order"]),
    (ambient_state, "parallel/x.py", """
        import time as clock
        def stamp():
            return clock.time_ns()
    """, ["stamp"]),
    (ambient_state, "governance/x.py", """
        import random
        def jitter():
            return random.random()
    """, ["jitter"]),
    (ambient_state, "obs/x.py", """
        from os import urandom
    """, ["<module>"]),
    (bare_assert, "model/x.py", """
        def check(n):
            assert n >= 0
    """, ["check"]),
    (ungoverned, "storage/heap_file.py", """
        def page(self, index):
            return self._pages[index]
        def scan(self):
            self.token.check()
    """, ["page"]),
    (ungoverned, "streams/workspace.py", """
        def insert(self, item):
            self.token.check()
    """, ["on_insert"]),
    (ungoverned, "parallel/x.py", """
        def pages(self):
            for page in self._pages:
                yield page
    """, ["pages"]),
    (swallowed_governance, "resilience/x.py", """
        def attempt(run, fallback):
            try:
                return run()
            except Exception:
                return fallback()
    """, ["attempt"]),
    (lazy_gather, "optimizer/x.py", """
        def lookups(column, index):
            return list(map(column.__getitem__, index))
    """, ["lookups"]),
    (lazy_gather, "columnar/x.py", """
        class View:
            def rows(self, order):
                return zip(map(self.ts.__getitem__, order), order)
    """, ["View.rows"]),
    (repeat_emission, "columnar/x.py", """
        def tails(out, i, w):
            extend_x = out.extend
            extend_x(repeat(i, w))
    """, ["tails"]),
    (repeat_emission, "columnar/x.py", """
        class Sweep:
            def emit(self, j, cut):
                self.yj.extend(itertools.repeat(j, cut))
    """, ["Sweep.emit"]),
    (drain_by_iteration, "relational/operators/basic.py", """
        class Sort:
            def __iter__(self):
                rows = list(self.child)
                return iter(sorted(rows))
    """, ["Sort.__iter__"]),
    (drain_by_iteration, "relational/operators/joins.py", """
        class Cross:
            def __iter__(self):
                right_rows = list(self.right)
                for left_row in self.left:
                    yield from (left_row + row for row in right_rows)
    """, ["Cross.__iter__"]),
    (uncached_compile, "relational/expressions.py", """
        def _generate(text, constants):
            return eval(compile(text, "<predicate>", "eval"), constants)
    """, ["_generate"]),
    (uncached_compile, "query/x.py", """
        CODE = compile("lambda row: row[0]", "<row>", "eval")
    """, ["<module>"]),
    (swallowed_governance, "parallel/x.py", """
        class Pool:
            def dispatch(self, run):
                try:
                    run()
                except ValueError:
                    raise
                except:
                    self.retry()
    """, ["Pool.dispatch"]),
]


@pytest.mark.parametrize("rule", ALLOWED, ids=lambda rule: rule.__name__)
def test_real_tree_findings_are_exactly_the_allow_list(rule):
    found = sorted(
        (path, scope) for path, nodes in _modules().items() for scope in rule(path, nodes)
    )
    assert found == sorted(ALLOWED[rule])


@pytest.mark.parametrize(
    "rule, path, snippet, expected",
    VIOLATIONS,
    ids=[f"{rule.__name__}:{path}:{found[0]}" for rule, path, _, found in VIOLATIONS],
)
def test_rule_fires_on_its_violation(rule, path, snippet, expected):
    nodes = list(_scoped(ast.parse(textwrap.dedent(snippet))))
    assert list(rule(path, nodes)) == expected

