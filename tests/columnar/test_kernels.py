"""Direct unit tests for the batch sweep kernels: hand-checked outputs,
accounting, the workspace budget, and the Figure-5 trace."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.columnar import kernels
from repro.errors import WorkspaceOverflowError

#: Spans on a small grid, so equal starts and shared endpoints are
#: common: ``(ts, te)`` with ``ts < te``.
spans = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(1, 15)).map(
        lambda span: (span[0], span[0] + span[1])
    ),
    max_size=40,
)


def cols(spans):
    """Split [(ts, te), ...] into parallel endpoint lists."""
    return [a for a, _ in spans], [b for _, b in spans]


def pairs(out):
    """Zip a join kernel's parallel (xi, yj) output columns."""
    return sorted(zip(out[0], out[1]))


class TestContainJoinTsTs:
    def test_hand_checked(self):
        x_ts, x_te = cols([(0, 10), (2, 6), (5, 12)])
        y_ts, y_te = cols([(1, 4), (3, 6), (6, 11), (11, 12)])
        out, stats = kernels.contain_join_ts_ts(x_ts, x_te, y_ts, y_te)
        # x0=[0,10) contains y0=[1,4), y1=[3,6); x2=[5,12) contains y2=[6,11)
        assert pairs(out) == [(0, 0), (0, 1), (2, 2)]
        assert stats.inserted == stats.discarded  # state fully retired
        assert stats.high_water >= 1

    def test_shared_endpoints_are_strict(self):
        x_ts, x_te = cols([(0, 9)])
        y_ts, y_te = cols([(0, 5), (4, 9), (0, 9)])
        out, _ = kernels.contain_join_ts_ts(x_ts, x_te, y_ts, y_te)
        assert pairs(out) == []  # shared start/end or identical: no pair

    def test_budget_overflow(self):
        x_ts, x_te = cols([(0, 100), (1, 100), (2, 100)])
        y_ts, y_te = cols([(50, 60)])
        with pytest.raises(WorkspaceOverflowError):
            kernels.contain_join_ts_ts(x_ts, x_te, y_ts, y_te, limit=2)
        # A sufficient budget passes.
        out, stats = kernels.contain_join_ts_ts(
            x_ts, x_te, y_ts, y_te, limit=3
        )
        assert len(pairs(out)) == 3
        assert stats.high_water == 3

    def test_trace_records_state_trajectory(self):
        x_ts, x_te = cols([(0, 10), (1, 3)])
        y_ts, y_te = cols([(2, 4), (5, 8)])
        trace = [0]
        kernels.contain_join_ts_ts(x_ts, x_te, y_ts, y_te, trace=trace)
        assert trace[0] == 0
        assert max(trace) == 2  # both X open at sweep position 2
        assert trace[-1] == 0  # everything retired by the end


class TestContainSemijoinTsTs:
    @given(spans, spans)
    def test_emits_the_joins_distinct_x(self, xs, ys):
        """Table 1: class (c) is class (a) with matched tuples emitted
        and retired at once.  On the same columns the semijoin emits
        exactly the join's distinct X positions, inserts the same X
        tuples, and never holds more state than the join."""
        columns = (*cols(sorted(xs)), *cols(sorted(ys)))
        (xi, _), join = kernels.contain_join_ts_ts(*columns)
        out, semi = kernels.contain_semijoin_ts_ts(*columns)
        assert sorted(out) == sorted(set(xi))
        assert len(out) == len(set(out))
        assert semi.inserted == join.inserted
        assert semi.high_water <= join.high_water


class TestContainJoinTsTe:
    def test_hand_checked(self):
        # X sorted by TS, Y sorted by TE.
        x_ts, x_te = cols([(0, 10), (2, 6), (5, 12)])
        y_ts, y_te = cols([(1, 4), (3, 6), (6, 11), (11, 12)])
        out, _ = kernels.contain_join_ts_te(x_ts, x_te, y_ts, y_te)
        assert pairs(out) == [(0, 0), (0, 1), (2, 2)]


class TestZeroStateSemijoins:
    def test_contain_semijoin_ts_te(self):
        x_ts, x_te = cols([(0, 10), (3, 5), (4, 12)])
        y_ts, y_te = cols([(3, 5), (6, 11)])
        out, stats = kernels.contain_semijoin_ts_te(x_ts, x_te, y_ts, y_te)
        assert out == [0, 2]  # [3,5) inside [0,10); [6,11) inside [4,12)
        assert stats.inserted == 0 and stats.high_water == 0

    def test_contained_semijoin_te_ts(self):
        # X sorted by TE, Y sorted by TS.
        x_ts, x_te = cols([(3, 5), (6, 8), (0, 10)])
        y_ts, y_te = cols([(0, 10), (2, 9)])
        out, stats = kernels.contained_semijoin_te_ts(x_ts, x_te, y_ts, y_te)
        assert sorted(out) == [0, 1]
        assert stats.high_water == 0

    def test_overlap_semijoin(self):
        x_ts, x_te = cols([(0, 2), (2, 4), (5, 7)])
        y_ts, y_te = cols([(2, 5)])
        out, stats = kernels.overlap_semijoin_ts_ts(x_ts, x_te, y_ts, y_te)
        assert out == [1]  # zero-gap neighbours do not overlap
        assert stats.high_water == 0


class TestOverlapJoin:
    def test_each_pair_once(self):
        x_ts, x_te = cols([(0, 5), (3, 8)])
        y_ts, y_te = cols([(1, 4), (4, 9)])
        out, _ = kernels.overlap_join_ts_ts(x_ts, x_te, y_ts, y_te)
        assert pairs(out) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        # zero-gap neighbours do not pair up
        out2, _ = kernels.overlap_join_ts_ts([0], [5], [5], [9])
        assert pairs(out2) == []
        # identical operands: every tuple overlaps itself exactly once
        s_ts, s_te = cols([(0, 4), (2, 6)])
        out3, _ = kernels.overlap_join_ts_ts(s_ts, s_te, s_ts, s_te)
        assert pairs(out3) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_budget_and_trace(self):
        x_ts, x_te = cols([(0, 10), (1, 10), (2, 10)])
        y_ts, y_te = cols([(3, 4)])
        with pytest.raises(WorkspaceOverflowError):
            kernels.overlap_join_ts_ts(x_ts, x_te, y_ts, y_te, limit=2)
        trace = [0]
        out, stats = kernels.overlap_join_ts_ts(
            x_ts, x_te, y_ts, y_te, trace=trace
        )
        assert len(pairs(out)) == 3
        assert max(trace) == stats.high_water == 3


class TestBeforeSemijoin:
    def test_strict_gap_required(self):
        x_ts, x_te = cols([(0, 3), (0, 5), (0, 6)])
        y_ts, y_te = cols([(5, 9)])
        out, stats = kernels.before_semijoin(x_ts, x_te, y_ts, y_te)
        assert out == [0]  # TE == max(Y.TS) is not before
        assert stats.high_water == 0

    def test_empty_y(self):
        out, _ = kernels.before_semijoin([0], [5], [], [])
        assert out == []


class TestSelfSemijoins:
    def test_contained_one_state_tuple(self):
        # sorted (TS^, TE^)
        x_ts, x_te = cols([(0, 10), (1, 4), (1, 9), (2, 6)])
        out, stats = kernels.self_contained_semijoin_ts_te(x_ts, x_te)
        assert sorted(out) == [1, 2, 3]
        assert stats.high_water == 1

    def test_contained_equal_ts_never_contains(self):
        x_ts, x_te = cols([(2, 6), (2, 6), (2, 8)])
        out, _ = kernels.self_contained_semijoin_ts_te(x_ts, x_te)
        assert out == []

    def test_contain_desc_one_state_tuple(self):
        # sorted (TSv, TEv)
        x_ts, x_te = cols([(5, 9), (2, 6), (1, 7), (0, 10)])
        out, stats = kernels.self_contain_semijoin_ts_te_desc(x_ts, x_te)
        assert sorted(out) == [2, 3]  # [1,7) and [0,10) contain [2,6)
        assert stats.high_water == 1

    def test_contain_ts_candidates(self):
        x_ts, x_te = cols([(0, 10), (1, 4), (5, 9), (6, 8)])
        out, stats = kernels.self_contain_semijoin_ts(x_ts, x_te)
        assert sorted(out) == [0, 2]
        # retire-on-match keeps the candidate set at one entry here
        assert stats.high_water == 1
        # overlapping non-containing runs do grow the candidate set
        ts2, te2 = cols([(0, 10), (1, 11), (2, 12)])
        _, stats2 = kernels.self_contain_semijoin_ts(ts2, te2)
        assert stats2.high_water == 3

    def test_zero_budget_rejected_on_nonempty(self):
        with pytest.raises(WorkspaceOverflowError):
            kernels.self_contained_semijoin_ts_te([0], [1], limit=0)
        out, _ = kernels.self_contained_semijoin_ts_te([], [], limit=0)
        assert out == []
