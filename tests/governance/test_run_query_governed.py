"""Governance through the query surface: ``run_query(deadline=...,
budget=...)`` — the acceptance path.  A deadline below
the query's runtime must raise :class:`DeadlineExceededError` within
the checkpoint interval; budget breaches must be typed and terminal;
the spend summary must ride back on the result."""

import time

import pytest

from repro.errors import BudgetExceededError, DeadlineExceededError
from repro.governance import QueryBudget, active_token
from repro.query import run_query
from repro.workload import PoissonWorkload, fixed_duration

DURING_QUERY = (
    "range of a is X range of b is Y "
    "retrieve (A = a.Seq, B = b.Seq) where a during b"
)

# Detection latency for a blown deadline is bounded by the checkpoint
# interval (one page read / pass boundary / poll tick), none of which
# exceeds a second on these inputs; 2x that is the acceptance bound.
CHECKPOINT_INTERVAL_BOUND = 1.0


def catalog(n=120):
    x = PoissonWorkload(n, 0.4, fixed_duration(4), name="X").generate(5)
    y = PoissonWorkload(n, 0.4, fixed_duration(30), name="Y").generate(6)
    return {"X": x, "Y": y}


class TestDeadline:
    def test_deadline_below_runtime_raises_promptly(self):
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError) as info:
            run_query(DURING_QUERY, catalog(), streams=True, deadline=0.0)
        wall = time.monotonic() - started
        # Raised at the first checkpoint after expiry: both the token's
        # own elapsed clock and the caller's wall clock stay within 2x
        # the checkpoint interval.
        assert info.value.elapsed <= 2 * CHECKPOINT_INTERVAL_BOUND
        assert wall <= 2 * CHECKPOINT_INTERVAL_BOUND

    def test_generous_deadline_is_invisible(self):
        cat = catalog()
        plain = run_query(DURING_QUERY, cat, streams=True)
        governed_run = run_query(
            DURING_QUERY, cat, streams=True, deadline=60.0
        )
        assert governed_run.rows == plain.rows

    def test_token_uninstalled_after_success_and_failure(self):
        run_query(DURING_QUERY, catalog(), streams=True, deadline=60.0)
        assert active_token() is None
        with pytest.raises(DeadlineExceededError):
            run_query(DURING_QUERY, catalog(), streams=True, deadline=0.0)
        assert active_token() is None


class TestBudget:
    def test_workspace_cap_breach_is_typed(self):
        with pytest.raises(BudgetExceededError) as info:
            run_query(
                DURING_QUERY,
                catalog(),
                streams=True,
                budget=QueryBudget(workspace_tuple_cap=1),
            )
        assert info.value.resource == "workspace"
        assert info.value.cap == 1

    def test_unbreached_budget_returns_spend_summary(self):
        result = run_query(
            DURING_QUERY,
            catalog(),
            streams=True,
            budget=QueryBudget(
                deadline_seconds=60.0, workspace_tuple_cap=100_000
            ),
        )
        governance = result.governance
        assert governance is not None
        assert governance["cancelled"] is False
        assert governance["workspace_peak"] >= 1
        assert governance["budget"]["workspace_tuple_cap"] == 100_000
        assert governance["elapsed_seconds"] >= 0

    def test_ungoverned_result_has_no_governance(self):
        result = run_query(DURING_QUERY, catalog(), streams=True)
        assert result.governance is None
