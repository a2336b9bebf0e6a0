"""One answer to each limit, on every backend and transport.

The paper's finite local workspace (``workspace_budget``) is a
recovery-ladder event: STRICT raises ``WorkspaceOverflowError``,
DEGRADE spills and answers in extra passes.
A governance cap (``QueryBudget.workspace_tuple_cap`` under
``governed()``) is a resource limit: breaching it ends the query with
``BudgetExceededError`` whatever the policy.  Neither is ever answered
by a nested loop the plan did not choose.
"""

from collections import Counter

import pytest

from repro.algebra import optimize
from repro.errors import BudgetExceededError, WorkspaceOverflowError
from repro.governance import QueryBudget, governed
from repro.optimizer import TemporalJoinPlanner, execute_hybrid
from repro.query import parse_query, run_query, translate
from repro.resilience.recovery import ExecutionReport, RecoveryPolicy
from repro.streams.registry import BACKENDS
from repro.workload import PoissonWorkload, fixed_duration

DURING = (
    "range of a is X range of b is Y "
    "retrieve (A = a.Seq, B = b.Seq) where b during a"
)
TWO_JOINS = (
    "range of a is X range of b is Y range of c is Z "
    "retrieve (A = a.Seq, B = b.Seq, C = c.Seq) "
    "where b during a and c during b"
)
TRANSPORTS = {
    "serial": {},
    "inline-2": {"parallelism": 2, "parallel_mode": "inline"},
    "process-2": {"parallelism": 2, "parallel_mode": "process"},
}
#: A workspace of three state tuples: every shard of every plan below
#: holds more.
WORKSPACE = 3
LIMITS = {
    # A governance cap of one tuple, which every shard breaches; the
    # ladder's most forgiving policy must not absorb it.
    "governed-cap": (None, RecoveryPolicy.DEGRADE),
    "workspace-strict": (WORKSPACE, RecoveryPolicy.STRICT),
    "workspace-degrade": (WORKSPACE, RecoveryPolicy.DEGRADE),
}


def catalog(n=150):
    return {
        "X": PoissonWorkload(n, 0.5, fixed_duration(40), name="X").generate(1),
        "Y": PoissonWorkload(n, 0.5, fixed_duration(8), name="Y").generate(2),
        "Z": PoissonWorkload(n, 0.5, fixed_duration(2), name="Z").generate(3),
    }


def plan_for(text, cat):
    return optimize(translate(parse_query(text), cat))


def said_nested_loop(info):
    """Whether the join row says a nested loop answered it: as the
    winner, or as a detail of the run (the spill's event text names the
    block nested loop the spill itself is, and is not that)."""
    profile = info.profile
    details = profile.details
    return "nested-loop" in (profile.chosen.kind, *details.values()) or (
        "workspace_overflow" in details
    )


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_each_limit_has_one_answer(backend, transport, limit):
    workspace_budget, policy = LIMITS[limit]
    cat = catalog()
    planner = TemporalJoinPlanner(
        backend=backend,
        workspace_budget=workspace_budget,
        **TRANSPORTS[transport],
    )

    def run():
        return execute_hybrid(
            plan_for(DURING, cat), cat, planner=planner, recovery=policy
        )

    if limit == "governed-cap":
        with pytest.raises(BudgetExceededError):
            with governed(budget=QueryBudget(workspace_tuple_cap=1)):
                run()
        return
    if policy is not RecoveryPolicy.DEGRADE:
        with pytest.raises(WorkspaceOverflowError):
            run()
        return
    executed = run()
    assert Counter(executed.rows) == Counter(run_query(DURING, cat).rows)
    (info,) = executed.stream_joins
    assert info.recovery == "degrade"
    assert isinstance(info.execution_report, ExecutionReport)
    shards = len(info.profile.details.get("shard_runs", ())) or 1
    assert shards == (1 if transport == "serial" else 2)
    if transport != "serial":
        assert info.parallel["mode"] == TRANSPORTS[transport]["parallel_mode"]
    kinds = [event.kind for event in info.execution_report.fallbacks]
    assert kinds == ["spill"] * shards
    assert [f["kind"] for f in info.metrics.resilience["fallbacks"]] == kinds
    assert not said_nested_loop(info)


@pytest.mark.parametrize("backend", BACKENDS)
def test_each_join_reports_only_its_own_fallbacks(backend):
    cat = catalog()
    executed = execute_hybrid(
        plan_for(TWO_JOINS, cat),
        cat,
        planner=TemporalJoinPlanner(
            backend=backend, workspace_budget=WORKSPACE
        ),
        recovery=RecoveryPolicy.DEGRADE,
    )
    assert Counter(executed.rows) == Counter(run_query(TWO_JOINS, cat).rows)
    assert len(executed.stream_joins) == 2
    for info in executed.stream_joins:
        assert [e.kind for e in info.execution_report.fallbacks] == ["spill"]
        assert [f["kind"] for f in info.metrics.resilience["fallbacks"]] == [
            "spill"
        ]
        assert not said_nested_loop(info)
    # The query's report is the merge of the two, counted once each.
    merged = executed.execution_report
    assert [e.kind for e in merged.fallbacks] == ["spill", "spill"]
    assert merged.passes_added == sum(
        info.execution_report.passes_added for info in executed.stream_joins
    )


def test_the_front_door_runs_strict_by_default():
    cat = catalog(60)
    result = run_query(TWO_JOINS, cat, streams=True)
    assert [info.recovery for info in result.stream_joins] == ["strict"] * 2
    assert [j.as_dict()["recovery"] for j in result.stream_joins] == [
        "strict"
    ] * 2
    assert result.execution_report.as_dict() == ExecutionReport().as_dict()
