"""The CFG engine behind REP007: shapes and reachability.

Each test builds a tiny function, asks ``must_reach``/``may_reach``
the same questions the flow rules ask, and pins the documented
semantics: header-only match targets, opt-in exception edges,
``finally`` triplication, and greatest-fixpoint treatment of loops.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.cfg import (
    EXIT,
    RAISE,
    build_cfg,
    functions,
    may_reach,
    must_reach,
)


def _cfg_of(source: str, exception_edges: bool = True):
    tree = ast.parse(textwrap.dedent(source))
    func = next(functions(tree))
    return func, build_cfg(func, exception_edges=exception_edges)


def _calls(name: str):
    def predicate(node):
        return any(
            isinstance(sub, ast.Call)
            and (
                (isinstance(sub.func, ast.Attribute) and sub.func.attr == name)
                or (isinstance(sub.func, ast.Name) and sub.func.id == name)
            )
            for sub in ast.walk(node)
        )

    return predicate


_is_close = _calls("close")


def test_linear_close_is_must_reached():
    _, cfg = _cfg_of(
        """
        def f():
            seg = make()
            seg.close()
        """,
        exception_edges=False,
    )
    assert must_reach(cfg, [cfg.entry], _is_close)


def test_branch_skipping_close_breaks_must_reach():
    _, cfg = _cfg_of(
        """
        def f(flag):
            seg = make()
            if flag:
                seg.close()
        """,
        exception_edges=False,
    )
    assert not must_reach(cfg, [cfg.entry], _is_close)
    assert may_reach(cfg, [cfg.entry], _is_close)


def test_if_header_matches_only_its_test():
    # The If node must not let predicates "see through" to its body:
    # the body close() is a separate node, or branch misses would be
    # invisible to must_reach.
    func, cfg = _cfg_of(
        """
        def f(flag):
            seg = make()
            if flag:
                seg.close()
        """,
        exception_edges=False,
    )
    if_stmt = func.body[1]
    assert isinstance(if_stmt, ast.If)
    nid = cfg.id_of(if_stmt)
    assert cfg.match_targets[nid] == [if_stmt.test]


def test_exception_edge_escapes_past_late_close():
    source = """
        def f():
            seg = make()
            seg.work()
            seg.close()
        """
    _, with_exc = _cfg_of(source, exception_edges=True)
    starts = with_exc.normal[with_exc.entry]
    # work() may raise straight past the close() on the implicit edge.
    assert not must_reach(with_exc, starts, _is_close)

    _, without = _cfg_of(source, exception_edges=False)
    assert without.raising == {}
    starts = without.normal[without.entry]
    assert must_reach(without, starts, _is_close)


def test_finally_covers_normal_exception_and_return_paths():
    _, cfg = _cfg_of(
        """
        def f():
            seg = make()
            try:
                if use(seg):
                    return seg.stats()
                seg.work()
            finally:
                seg.close()
        """,
        exception_edges=True,
    )
    starts = cfg.normal[cfg.entry]
    assert must_reach(cfg, starts, _is_close)


def test_unmatched_exception_bypasses_handler():
    # A handler is conservatively assumed able to miss, so close()
    # placed after the try is not must-reached under exception edges.
    _, cfg = _cfg_of(
        """
        def f():
            seg = make()
            try:
                seg.work()
            except ValueError:
                log()
            seg.close()
        """,
        exception_edges=True,
    )
    starts = cfg.normal[cfg.entry]
    assert not must_reach(cfg, starts, _is_close)
    assert may_reach(cfg, starts, _calls("log"))


def test_explicit_raise_transfers_in_normal_mode():
    _, cfg = _cfg_of(
        """
        def f(flag):
            seg = make()
            if flag:
                raise ValueError("no")
            seg.close()
        """,
        exception_edges=False,
    )
    assert cfg.raising == {}
    assert not must_reach(cfg, [cfg.entry], _is_close)


def test_while_true_exits_only_through_break():
    _, cfg = _cfg_of(
        """
        def f(q):
            while True:
                task = q.get()
                if task is None:
                    break
                handle(task)
            finish()
        """,
        exception_edges=False,
    )
    assert must_reach(cfg, [cfg.entry], _calls("finish"))


def test_nonterminating_loop_is_vacuously_fine():
    # Greatest fixpoint: a path that never reaches an exit imposes no
    # obligation (the worker loop idiom).
    _, cfg = _cfg_of(
        """
        def f():
            while True:
                spin()
        """,
        exception_edges=False,
    )
    assert must_reach(cfg, [cfg.entry], _calls("never_called"))


def test_synthetic_exits_are_not_nodes():
    func, cfg = _cfg_of(
        """
        def f():
            seg = make()
            seg.close()
        """,
        exception_edges=True,
    )
    assert EXIT not in cfg.nodes and RAISE not in cfg.nodes
    last = func.body[-1]
    assert cfg.normal[cfg.id_of(last)] == {EXIT}
    assert cfg.raising[cfg.id_of(last)] == {RAISE}
    assert {nid for nid, _ in cfg.statements()} == set(cfg.nodes)
