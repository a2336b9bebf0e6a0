"""The recovery ladder: STRICT fail-fast and DEGRADE's re-sort / spill
fallbacks checked against nested-loop oracles on tie-heavy workloads."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import IntervalColumns
from repro.errors import StreamOrderError, WorkspaceOverflowError
from repro.model import TemporalTuple, sort_tuples
from repro.model.sortorder import TE_DESC, TS_ASC
from repro.resilience import ExecutionReport, RecoveryPolicy
from repro.resilience import executor
from repro.resilience.executor import execute_entry
from repro.streams.processors.baseline import (
    contain_predicate,
    overlap_predicate,
)
from repro.streams.registry import TemporalOperator, lookup

from tests.backends import PHYSICAL_BACKENDS

#: Tie-heavy lifespans: a tiny endpoint domain with few durations, so
#: equal TS/TE values dominate.
tie_heavy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=1, max_value=6),
    ),
    max_size=40,
).map(
    lambda spans: [
        TemporalTuple(f"s{i}", i, a, a + d) for i, (a, d) in enumerate(spans)
    ]
)


def _key(tup):
    return (tup.valid_from, tup.valid_to, str(tup.surrogate), tup.value)


def canon(items):
    """Order-insensitive canonical form of semijoin/join outputs."""
    return sorted(
        items,
        key=lambda item: (
            (_key(item[0]), _key(item[1]))
            if isinstance(item, tuple)
            else _key(item)
        ),
    )


def join_oracle(xs, ys, predicate):
    return [(x, y) for x in xs for y in ys if predicate(x, y)]


def semi_oracle(xs, ys, predicate):
    return [x for x in xs if any(predicate(x, y) for y in ys)]


def self_oracle(xs, predicate):
    return [
        x
        for i, x in enumerate(xs)
        if any(i != j and predicate(x, u) for j, u in enumerate(xs))
    ]


CONTAIN_TS_TS = lookup(
    TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC
)
OVERLAP_SEMI = lookup(
    TemporalOperator.OVERLAP_SEMIJOIN, TS_ASC, TS_ASC
)
SELF_CONTAIN = lookup(TemporalOperator.SELF_CONTAIN_SEMIJOIN, TS_ASC)

#: A fixed workload dense enough that a budget of 2 always overflows
#: the contain-join state and an unsorted stream always violates.
DENSE_X = [TemporalTuple(f"x{i}", i, 0, 20 - i) for i in range(8)]
DENSE_Y = [TemporalTuple(f"y{i}", i, 2 + i, 3 + i) for i in range(8)]
UNSORTED_X = [
    TemporalTuple("a", 0, 9, 12),
    TemporalTuple("b", 1, 3, 5),
    TemporalTuple("c", 2, 6, 7),
]


class TestStrict:
    def test_order_violation_raises_original_type(self):
        with pytest.raises(StreamOrderError) as err:
            execute_entry(
                CONTAIN_TS_TS, UNSORTED_X, sort_tuples(DENSE_Y, TS_ASC)
            )
        assert err.value.stream_name == "X"

    def test_overflow_raises_original_type(self):
        report = ExecutionReport()
        with pytest.raises(WorkspaceOverflowError):
            execute_entry(
                CONTAIN_TS_TS,
                sort_tuples(DENSE_X, TS_ASC),
                sort_tuples(DENSE_Y, TS_ASC),
                workspace_budget=2,
                report=report,
            )
        assert report.workspace_overflows == 1
        assert report.passes_added == 0  # STRICT never degrades

    @pytest.mark.parametrize("backend", ["tuple", "columnar", "fused"])
    @pytest.mark.parametrize("side", ["X", "Y"])
    def test_violation_in_unread_tail_raises(self, side, backend):
        """The tuple processor stops reading once the other operand is
        exhausted; the executor checks each operand whole before the
        cell runs, so a misorder in the unread tail raises instead of
        dropping the rows it would have joined."""
        xs = [TemporalTuple("a", 0, 0, 10)]
        ys = [TemporalTuple("y", 0, 5, 6)]
        tail = [TemporalTuple("b", 1, 20, 30), TemporalTuple("c", 2, 1, 9)]
        if side == "X":
            xs += tail
        else:
            ys += tail
        report = ExecutionReport()
        with pytest.raises(StreamOrderError) as err:
            execute_entry(
                CONTAIN_TS_TS, xs, ys, backend=backend, report=report
            )
        assert err.value.stream_name == side
        assert report.order_violations == 1


@pytest.mark.parametrize("backend", PHYSICAL_BACKENDS)
@pytest.mark.parametrize(
    "policy", [RecoveryPolicy.STRICT, RecoveryPolicy.DEGRADE]
)
def test_clean_run_scans_each_operand_once(policy, backend, monkeypatch):
    """The executor checks each operand's order before the cell runs,
    without reading its stream: the run reads each operand once, in
    one pass, on every backend."""
    streams = []
    stream_over = executor.stream_over

    def recording(*args, **options):
        streams.append(stream_over(*args, **options))
        return streams[-1]

    monkeypatch.setattr(executor, "stream_over", recording)
    xs = sort_tuples(DENSE_X, TS_ASC)
    ys = sort_tuples(DENSE_Y, TS_ASC)
    outcome = execute_entry(
        CONTAIN_TS_TS, xs, ys, backend=backend, policy=policy
    )
    assert canon(outcome.results) == canon(
        join_oracle(xs, ys, contain_predicate)
    )
    assert [(s.name, s.passes, s.tuples_read) for s in streams] == [
        ("X", 1, len(xs)),
        ("Y", 1, len(ys)),
    ]
    assert (outcome.metrics.passes_x, outcome.metrics.passes_y) == (1, 1)


#: The lower-half twin of CONTAIN_TS_TS: the batch backends run it on
#: negated columns, reading the *original* streams.
CONTAIN_TE_DESC = lookup(TemporalOperator.CONTAIN_JOIN, TE_DESC, TE_DESC)


@pytest.mark.parametrize("backend", ["columnar", "fused"])
@pytest.mark.parametrize("side", ["X", "Y"])
class TestMirroredBatchCellTagsTheOffendingSide:
    def operands(self, side):
        xs = sort_tuples(DENSE_X, TE_DESC)
        ys = sort_tuples(DENSE_Y, TE_DESC)
        # The earliest-ending tuple moved to the front breaks TEv.
        if side == "X":
            xs = xs[-1:] + xs[:-1]
        else:
            ys = ys[-1:] + ys[:-1]
        return xs, ys

    def test_strict_names_the_stream(self, side, backend):
        xs, ys = self.operands(side)
        with pytest.raises(StreamOrderError) as err:
            execute_entry(CONTAIN_TE_DESC, xs, ys, backend=backend)
        assert err.value.stream_name == side

    def test_degrade_resorts_only_that_side(self, side, backend):
        xs, ys = self.operands(side)
        report = ExecutionReport()
        outcome = execute_entry(
            CONTAIN_TE_DESC,
            xs,
            ys,
            backend=backend,
            policy=RecoveryPolicy.DEGRADE,
            report=report,
        )
        (fallback,) = report.fallbacks
        assert fallback.kind == "re-sort"
        assert fallback.detail.startswith(f"re-sorted {side} ")
        assert canon(outcome.results) == canon(
            join_oracle(xs, ys, contain_predicate)
        )


class TestDegradeFixed:
    @pytest.mark.parametrize("backend", ["tuple", "columnar"])
    def test_resort_recovers_unsorted_input(self, backend):
        ys = sort_tuples(DENSE_Y, TS_ASC)
        report = ExecutionReport()
        outcome = execute_entry(
            CONTAIN_TS_TS,
            UNSORTED_X,
            ys,
            backend=backend,
            policy=RecoveryPolicy.DEGRADE,
            report=report,
        )
        assert canon(outcome.results) == canon(
            join_oracle(UNSORTED_X, ys, contain_predicate)
        )
        assert report.order_violations >= 1
        assert [e.kind for e in report.fallbacks] == ["re-sort"]
        assert report.passes_added > 0

    @pytest.mark.parametrize("backend", ["tuple", "columnar"])
    def test_spill_finishes_under_budget(self, backend):
        xs = sort_tuples(DENSE_X, TS_ASC)
        ys = sort_tuples(DENSE_Y, TS_ASC)
        report = ExecutionReport()
        outcome = execute_entry(
            CONTAIN_TS_TS,
            xs,
            ys,
            backend=backend,
            policy=RecoveryPolicy.DEGRADE,
            workspace_budget=2,
            report=report,
        )
        assert canon(outcome.results) == canon(
            join_oracle(xs, ys, contain_predicate)
        )
        assert report.workspace_overflows == 1
        assert [e.kind for e in report.fallbacks] == ["spill"]
        # 8 outer tuples in blocks of 2: one spill pass + 3 extra scans.
        assert report.passes_added == 4

    @pytest.mark.parametrize("backend", PHYSICAL_BACKENDS)
    def test_spill_over_columns_born_as_tuples_returns_those_tuples(
        self, backend
    ):
        """Columns built by ``IntervalColumns.from_tuples`` hand the
        spill the caller's own tuples, as the clean run returns them —
        not new tuples wrapping each one as a surrogate."""
        xs = sort_tuples(DENSE_X[:3], TS_ASC)
        ys = sort_tuples(DENSE_Y[:3], TS_ASC)
        report = ExecutionReport()
        operands = [
            IntervalColumns.from_tuples(side, TS_ASC) for side in (xs, ys)
        ]
        outcome = execute_entry(
            CONTAIN_TS_TS,
            *operands,
            backend=backend,
            policy=RecoveryPolicy.DEGRADE,
            workspace_budget=1,
            report=report,
        )
        assert [e.kind for e in report.fallbacks] == ["spill"]
        expected = join_oracle(xs, ys, contain_predicate)
        assert len(expected) == 9
        assert canon(outcome.results) == canon(expected)
        clean = execute_entry(CONTAIN_TS_TS, *operands, backend=backend)
        assert canon(clean.results) == canon(expected)
        assert sum(side.tuples_built for side in operands) == 0

    @pytest.mark.parametrize("backend", ["tuple", "columnar"])
    def test_zero_budget_overflows_the_spill_too(self, backend):
        """The spill's block is the budget: at 0 its first resident
        tuple overflows again, so DEGRADE raises the typed error with
        the overflow noted once and no fallback recorded."""
        report = ExecutionReport()
        with pytest.raises(WorkspaceOverflowError):
            execute_entry(
                CONTAIN_TS_TS,
                sort_tuples(DENSE_X, TS_ASC),
                sort_tuples(DENSE_Y, TS_ASC),
                backend=backend,
                policy=RecoveryPolicy.DEGRADE,
                workspace_budget=0,
                report=report,
            )
        assert report.workspace_overflows == 1
        assert report.fallbacks == []

    def test_resort_then_spill_compose(self):
        ys = sort_tuples(DENSE_Y, TS_ASC)
        # A late starter in front violates TS order; the re-sorted
        # input is then dense enough to overflow a budget of 2.
        xs = [TemporalTuple("z", 9, 10, 11)] + sort_tuples(DENSE_X, TS_ASC)
        report = ExecutionReport()
        outcome = execute_entry(
            CONTAIN_TS_TS,
            xs,
            ys,
            policy=RecoveryPolicy.DEGRADE,
            workspace_budget=2,
            report=report,
        )
        assert canon(outcome.results) == canon(
            join_oracle(xs, ys, contain_predicate)
        )
        assert [e.kind for e in report.fallbacks] == ["re-sort", "spill"]

    def test_metrics_carry_resilience_snapshot(self):
        report = ExecutionReport()
        outcome = execute_entry(
            CONTAIN_TS_TS,
            sort_tuples(DENSE_X, TS_ASC),
            sort_tuples(DENSE_Y, TS_ASC),
            policy=RecoveryPolicy.DEGRADE,
            workspace_budget=2,
            report=report,
        )
        assert outcome.metrics.resilience is not None
        assert outcome.metrics.resilience["passes_added"] > 0


class TestDegradeProperties:
    """DEGRADE is semantics-preserving, and ``passes_added`` is positive
    exactly when an assumption was actually violated."""

    @pytest.mark.parametrize("backend", ["tuple", "columnar"])
    @given(
        xs=tie_heavy,
        ys=tie_heavy,
        budget=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
        shuffle=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_contain_join_matches_oracle(self, backend, xs, ys, budget, shuffle):
        xs = sort_tuples(xs, CONTAIN_TS_TS.x_order)
        ys = sort_tuples(ys, CONTAIN_TS_TS.y_order)
        if shuffle:
            xs = list(xs)
            random.Random(0).shuffle(xs)
        report = ExecutionReport()
        outcome = execute_entry(
            CONTAIN_TS_TS,
            xs,
            ys,
            backend=backend,
            policy=RecoveryPolicy.DEGRADE,
            workspace_budget=budget,
            report=report,
        )
        assert canon(outcome.results) == canon(
            join_oracle(xs, ys, contain_predicate)
        )
        violated = (
            report.order_violations > 0 or report.workspace_overflows > 0
        )
        assert (report.passes_added > 0) == violated

    @pytest.mark.parametrize("backend", ["tuple", "columnar"])
    @given(
        xs=tie_heavy,
        ys=tie_heavy,
        budget=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    )
    @settings(max_examples=30, deadline=None)
    def test_overlap_semijoin_matches_oracle(self, backend, xs, ys, budget):
        xs = sort_tuples(xs, OVERLAP_SEMI.x_order)
        ys = sort_tuples(ys, OVERLAP_SEMI.y_order)
        report = ExecutionReport()
        outcome = execute_entry(
            OVERLAP_SEMI,
            xs,
            ys,
            backend=backend,
            policy=RecoveryPolicy.DEGRADE,
            workspace_budget=budget,
            report=report,
        )
        assert canon(outcome.results) == canon(
            semi_oracle(xs, ys, overlap_predicate)
        )
        violated = (
            report.order_violations > 0 or report.workspace_overflows > 0
        )
        assert (report.passes_added > 0) == violated

    @pytest.mark.parametrize("backend", ["tuple", "columnar"])
    @given(
        xs=tie_heavy,
        budget=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
        shuffle=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_self_contain_semijoin_matches_oracle(
        self, backend, xs, budget, shuffle
    ):
        xs = sort_tuples(xs, SELF_CONTAIN.x_order)
        if shuffle:
            xs = list(xs)
            random.Random(1).shuffle(xs)
        report = ExecutionReport()
        outcome = execute_entry(
            SELF_CONTAIN,
            xs,
            backend=backend,
            policy=RecoveryPolicy.DEGRADE,
            workspace_budget=budget,
            report=report,
        )
        assert canon(outcome.results) == canon(
            self_oracle(xs, contain_predicate)
        )
        violated = (
            report.order_violations > 0 or report.workspace_overflows > 0
        )
        assert (report.passes_added > 0) == violated
