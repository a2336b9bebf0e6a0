"""Intraprocedural control-flow graphs for the flow-sensitive rules.

The AST rules in :mod:`repro.analysis.rules` are syntactic: they look
at one node at a time.  The shm segment lifecycle REP007 checks is a
*path* property ("``close()`` is reached on every path out of this
function, including the paths an exception takes"), so this module builds a small statement-granularity CFG per function
and runs all-paths ("must") and exists-a-path ("may") reachability
over it.

Design points, deliberately modest:

* **Statement granularity.**  Each simple statement is one node;
  compound statements contribute a header node (the ``if``/``while``
  test, the ``for`` iterable, the ``with`` items) plus the nodes of
  their bodies.  That is exactly the resolution the lifecycle rules
  need — they ask "which statements lie between the allocation and
  the exits".

* **Exception edges are opt-in.**  With ``exception_edges=True``
  (REP007's ``close()`` check) every statement that *can raise* — one
  containing a call or a subscript — gets an edge to the innermost
  enclosing handler, or to the synthetic ``RAISE`` exit when none
  encloses it.  With ``exception_edges=False`` (its ``unlink()``
  check) only explicit control flow is modelled, giving "normal-completion" path
  semantics.  An explicit ``raise`` statement transfers control in
  both modes; the flag only governs *implicit* raises.

* **``finally`` duplication.**  A ``finally`` suite is reached from
  three directions with three different continuations: normal fall-
  through (continues after the ``try``), an in-flight exception
  (continues at the outer handler/exit), and ``return`` (continues at
  the function exit).  The builder materialises up to three copies of
  the suite, one per continuation — the standard trick that keeps the
  graph acyclic in the common case and makes "the ``finally`` runs
  ``close()``" visible on every path that actually executes it.

Known, accepted imprecision: ``break``/``continue`` jump straight to
their loop targets without threading intervening ``finally`` suites,
and a handler is assumed able to catch anything (the unmatched-
exception edge is always present).  Both err on the side of *more*
paths, which for must-reach checks means false positives are possible
but missed violations are not introduced by the approximation.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: Synthetic exit reached by falling off the end or by ``return``.
EXIT = -1
#: Synthetic exit reached by an exception escaping the function.
RAISE = -2

_Predicate = Callable[[ast.AST], bool]


class CFG:
    """One function's control-flow graph.

    ``nodes`` maps node id -> the AST statement it models (compound
    statements appear once, as their header).  ``normal`` holds
    explicit control-flow successors; ``raising`` holds the implicit
    exception edges (empty when built with ``exception_edges=False``).
    """

    def __init__(self, exception_edges: bool) -> None:
        self.exception_edges = exception_edges
        self.entry: int = EXIT
        self.nodes: Dict[int, ast.stmt] = {}
        self.normal: Dict[int, Set[int]] = {}
        self.raising: Dict[int, Set[int]] = {}
        #: Node id -> the AST fragment reachability predicates match
        #: against.  For simple statements this is the statement; for
        #: compound statements it is the *header only* (the test, the
        #: iterable, the with-items) — body statements are their own
        #: nodes, and matching the whole subtree would let a predicate
        #: "see through" branching.
        self.match_targets: Dict[int, List[ast.AST]] = {}
        #: First node created for each statement object (``finally``
        #: copies register extra nodes but do not overwrite this).
        self._by_stmt: Dict[int, int] = {}

    def id_of(self, stmt: ast.stmt) -> Optional[int]:
        """Node id for ``stmt`` (its first copy), or ``None``."""
        return self._by_stmt.get(id(stmt))

    def successors(self, nid: int) -> Set[int]:
        """All successors: explicit plus (if built) exception edges."""
        return self.normal.get(nid, set()) | self.raising.get(nid, set())

    def statements(self) -> Iterator[Tuple[int, ast.stmt]]:
        yield from self.nodes.items()


class _Builder:
    """Recursive-descent CFG construction, continuation-passing style.

    Each ``_stmt`` call answers: "given that control continues at
    ``follow`` after this statement, at ``exc`` when it raises, and at
    ``ret`` when it returns — what is this statement's entry node?"
    Blocks fold right-to-left so each statement's continuation is the
    entry of its successor.
    """

    def __init__(self, exception_edges: bool) -> None:
        self.cfg = CFG(exception_edges)
        self._next = 0

    def _node(self, stmt: ast.stmt) -> int:
        nid = self._next
        self._next += 1
        self.cfg.nodes[nid] = stmt
        self.cfg.match_targets[nid] = _match_targets(stmt)
        self.cfg._by_stmt.setdefault(id(stmt), nid)
        return nid

    def _edge(self, src: int, dst: int) -> None:
        self.cfg.normal.setdefault(src, set()).add(dst)

    def _raise_edge(self, src: int, dst: int) -> None:
        if self.cfg.exception_edges:
            self.cfg.raising.setdefault(src, set()).add(dst)

    # -- blocks --------------------------------------------------------
    def _block(
        self,
        stmts: List[ast.stmt],
        follow: int,
        exc: int,
        ret: int,
        loops: List[Tuple[int, int]],
    ) -> int:
        entry = follow
        for stmt in reversed(stmts):
            entry = self._stmt(stmt, entry, exc, ret, loops)
        return entry

    # -- statements ----------------------------------------------------
    def _stmt(
        self,
        stmt: ast.stmt,
        follow: int,
        exc: int,
        ret: int,
        loops: List[Tuple[int, int]],
    ) -> int:
        if isinstance(stmt, ast.If):
            return self._if(stmt, follow, exc, ret, loops)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, follow, exc, ret, loops)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, follow, exc, ret, loops)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, follow, exc, ret, loops)

        nid = self._node(stmt)
        if isinstance(stmt, ast.Return):
            self._edge(nid, ret)
            if stmt.value is not None and _expr_can_raise(stmt.value):
                self._raise_edge(nid, exc)
        elif isinstance(stmt, ast.Raise):
            # Explicit transfer: present in both CFG modes.
            self._edge(nid, exc)
        elif isinstance(stmt, ast.Break):
            self._edge(nid, loops[-1][0] if loops else follow)
        elif isinstance(stmt, ast.Continue):
            self._edge(nid, loops[-1][1] if loops else follow)
        else:
            self._edge(nid, follow)
            if _stmt_can_raise(stmt):
                self._raise_edge(nid, exc)
        return nid

    def _if(
        self,
        stmt: ast.If,
        follow: int,
        exc: int,
        ret: int,
        loops: List[Tuple[int, int]],
    ) -> int:
        nid = self._node(stmt)
        self._edge(nid, self._block(stmt.body, follow, exc, ret, loops))
        if stmt.orelse:
            self._edge(
                nid, self._block(stmt.orelse, follow, exc, ret, loops)
            )
        else:
            self._edge(nid, follow)
        if _expr_can_raise(stmt.test):
            self._raise_edge(nid, exc)
        return nid

    def _loop(
        self,
        stmt: ast.stmt,
        follow: int,
        exc: int,
        ret: int,
        loops: List[Tuple[int, int]],
    ) -> int:
        # Header models the test (while) / the iterable step (for).
        nid = self._node(stmt)
        body = getattr(stmt, "body")
        orelse = getattr(stmt, "orelse")
        done = (
            self._block(orelse, follow, exc, ret, loops)
            if orelse
            else follow
        )
        entry = self._block(body, nid, exc, ret, loops + [(follow, nid)])
        self._edge(nid, entry)
        if not (
            isinstance(stmt, ast.While) and _is_constant_true(stmt.test)
        ):
            self._edge(nid, done)
        header_expr = (
            stmt.test if isinstance(stmt, ast.While) else getattr(stmt, "iter")
        )
        if isinstance(stmt, (ast.For, ast.AsyncFor)) or _expr_can_raise(
            header_expr
        ):
            self._raise_edge(nid, exc)
        return nid

    def _with(
        self,
        stmt: ast.stmt,
        follow: int,
        exc: int,
        ret: int,
        loops: List[Tuple[int, int]],
    ) -> int:
        nid = self._node(stmt)
        self._edge(
            nid,
            self._block(getattr(stmt, "body"), follow, exc, ret, loops),
        )
        self._raise_edge(nid, exc)
        return nid

    def _try(
        self,
        stmt: ast.Try,
        follow: int,
        exc: int,
        ret: int,
        loops: List[Tuple[int, int]],
    ) -> int:
        if stmt.finalbody:
            # One copy of the finally suite per continuation that can
            # traverse it.
            fin_norm = self._block(stmt.finalbody, follow, exc, ret, loops)
            fin_exc = self._block(stmt.finalbody, exc, exc, ret, loops)
            fin_ret = self._block(stmt.finalbody, ret, exc, ret, loops)
            after, on_exc, on_ret = fin_norm, fin_exc, fin_ret
        else:
            after, on_exc, on_ret = follow, exc, ret

        if stmt.handlers:
            # The dispatch node (modelled by the Try itself) fans out
            # to every handler body and to the unmatched-exception
            # continuation.
            dispatch = self._node(stmt)
            for handler in stmt.handlers:
                self._edge(
                    dispatch,
                    self._block(handler.body, after, on_exc, on_ret, loops),
                )
            self._edge(dispatch, on_exc)
            body_exc = dispatch
        else:
            body_exc = on_exc

        body_follow = (
            self._block(stmt.orelse, after, body_exc, on_ret, loops)
            if stmt.orelse
            else after
        )
        return self._block(stmt.body, body_follow, body_exc, on_ret, loops)


def _match_targets(stmt: ast.stmt) -> List[ast.AST]:
    """The fragment of ``stmt`` this node actually *executes* — the
    header for compound statements, the statement itself otherwise."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return list(stmt.items)
    if isinstance(stmt, ast.Try):
        # The handler-dispatch node executes nothing of its own.
        return []
    return [stmt]


def _is_constant_true(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is True


def _expr_can_raise(expr: ast.expr) -> bool:
    return any(
        isinstance(node, (ast.Call, ast.Subscript, ast.Await))
        for node in ast.walk(expr)
    )


def _stmt_can_raise(stmt: ast.stmt) -> bool:
    if isinstance(
        stmt,
        (
            ast.FunctionDef,
            ast.AsyncFunctionDef,
            ast.ClassDef,
            ast.Import,
            ast.ImportFrom,
            ast.Pass,
            ast.Global,
            ast.Nonlocal,
        ),
    ):
        return False
    if isinstance(stmt, ast.Assert):
        return True
    return any(
        isinstance(node, (ast.Call, ast.Subscript, ast.Await))
        for node in ast.walk(stmt)
    )


def build_cfg(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
    exception_edges: bool = True,
) -> CFG:
    """Build the CFG of one function body."""
    builder = _Builder(exception_edges)
    builder.cfg.entry = builder._block(func.body, EXIT, RAISE, EXIT, [])
    return builder.cfg


# ----------------------------------------------------------------------
# reachability queries
# ----------------------------------------------------------------------
def must_reach(
    cfg: CFG, starts: Iterable[int], predicate: _Predicate
) -> bool:
    """True when *every* path from every start node to an exit passes
    through a statement satisfying ``predicate``.

    Computed as a greatest fixpoint so loops that cannot terminate do
    not spuriously fail the check (a path that never reaches an exit
    is vacuously fine).
    """
    start_list = [s for s in starts if s not in (EXIT, RAISE)]
    ok: Dict[int, bool] = {nid: True for nid in cfg.nodes}
    ok[EXIT] = False
    ok[RAISE] = False
    hit = {
        nid
        for nid in cfg.nodes
        if any(
            predicate(target) for target in cfg.match_targets.get(nid, [])
        )
    }
    changed = True
    while changed:
        changed = False
        for nid in cfg.nodes:
            if nid in hit:
                continue
            succs = cfg.successors(nid)
            value = bool(succs) and all(ok.get(s, False) for s in succs)
            if value != ok[nid]:
                ok[nid] = value
                changed = True
    return all(ok.get(s, False) for s in start_list)


def may_reach(
    cfg: CFG, starts: Iterable[int], predicate: _Predicate
) -> bool:
    """True when *some* path from a start node reaches a statement
    satisfying ``predicate``."""
    seen: Set[int] = set()
    stack = [s for s in starts if s not in (EXIT, RAISE)]
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        if any(
            predicate(target) for target in cfg.match_targets.get(nid, [])
        ):
            return True
        stack.extend(cfg.successors(nid))
    return False


def functions(tree: ast.AST) -> Iterator["ast.FunctionDef | ast.AsyncFunctionDef"]:
    """Every function/method in ``tree``, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
