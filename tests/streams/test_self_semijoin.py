"""Tests for the self semijoins (Section 4.2.3, Figure 7, Table 3)."""

import pytest
from hypothesis import given, settings

from repro.errors import UnsupportedSortOrderError
from repro.model import (
    TS_ASC,
    TS_TE_ASC,
    Direction,
    SortOrder,
    TemporalTuple,
)
from repro.streams import (
    NestedLoopSelfSemijoin,
    SelfContainedSemijoin,
    SelfContainSemijoin,
    SelfContainSemijoinDesc,
    contain_predicate,
    contained_predicate,
)

from .conftest import make_stream, tuple_lists, values

TS_TE_DESC_ORDER = SortOrder.by_ts(Direction.DESC, secondary_te=True)


def contained_oracle(xs):
    return values(
        NestedLoopSelfSemijoin(
            make_stream(xs, TS_ASC), contained_predicate
        ).run()
    )


def contain_oracle(xs):
    return values(
        NestedLoopSelfSemijoin(make_stream(xs, TS_ASC), contain_predicate).run()
    )


class TestSelfContainedSemijoin:
    def test_figure7_trace(self):
        """The paper's worked example: x1, x2, x3 each become the state
        tuple in turn; x4 (inside x3) is output; x3 stays."""
        xs = [
            TemporalTuple("x1", "x1", 0, 4),
            TemporalTuple("x2", "x2", 2, 8),
            TemporalTuple("x3", "x3", 5, 20),
            TemporalTuple("x4", "x4", 7, 12),
        ]
        semi = SelfContainedSemijoin(make_stream(xs, TS_TE_ASC))
        out = semi.run()
        assert values(out) == ["x4"]
        assert semi.metrics.workspace_high_water == 1
        assert semi.state.peek().value == "x3"  # the final state tuple

    def test_one_state_tuple_and_single_scan(self, random_tuples):
        """Table 3 (a): the workspace is one state tuple plus the input
        buffer, and the operand is scanned once."""
        xs = random_tuples(300, seed=20)
        semi = SelfContainedSemijoin(make_stream(xs, TS_TE_ASC))
        semi.run()
        assert semi.metrics.workspace_high_water == 1
        assert semi.metrics.passes_x == 1
        assert semi.metrics.buffers == 1

    def test_requires_secondary_sort(self, random_tuples):
        xs = random_tuples(5)
        with pytest.raises(UnsupportedSortOrderError):
            SelfContainedSemijoin(make_stream(xs, TS_ASC))

    def test_equal_start_tuples(self):
        """Tuples sharing ValidFrom cannot contain one another; the
        TS-equality branch must replace the state, not emit."""
        xs = [
            TemporalTuple("a", "a", 0, 5),
            TemporalTuple("b", "b", 0, 9),
            TemporalTuple("c", "c", 0, 12),
        ]
        semi = SelfContainedSemijoin(make_stream(xs, TS_TE_ASC))
        assert semi.run() == []

    def test_identical_intervals_do_not_match(self):
        xs = [
            TemporalTuple("a", "a", 3, 7),
            TemporalTuple("b", "b", 3, 7),
        ]
        semi = SelfContainedSemijoin(make_stream(xs, TS_TE_ASC))
        assert semi.run() == []

    def test_nested_chain(self):
        """Strictly nested intervals: all inner ones are emitted."""
        xs = [TemporalTuple(f"x{i}", i, i, 100 - i) for i in range(10)]
        semi = SelfContainedSemijoin(make_stream(xs, TS_TE_ASC))
        assert values(semi.run()) == list(range(1, 10))

    def test_empty_and_singleton(self):
        assert SelfContainedSemijoin(make_stream([], TS_TE_ASC)).run() == []
        one = [TemporalTuple("a", "a", 0, 5)]
        assert SelfContainedSemijoin(make_stream(one, TS_TE_ASC)).run() == []

    @settings(max_examples=80, deadline=None)
    @given(tuple_lists)
    def test_matches_nested_loop(self, xs):
        semi = SelfContainedSemijoin(make_stream(xs, TS_TE_ASC))
        assert values(semi.run()) == contained_oracle(xs)

    @settings(max_examples=40, deadline=None)
    @given(tuple_lists)
    def test_state_never_exceeds_one(self, xs):
        semi = SelfContainedSemijoin(make_stream(xs, TS_TE_ASC))
        semi.run()
        assert semi.metrics.workspace_high_water <= 1


class TestSelfContainSemijoin:
    def test_containers_emitted_once(self):
        xs = [
            TemporalTuple("big", "big", 0, 100),
            TemporalTuple("a", "a", 10, 20),
            TemporalTuple("b", "b", 30, 40),
        ]
        semi = SelfContainSemijoin(make_stream(xs, TS_ASC))
        assert values(semi.run()) == ["big"]

    def test_state_bounded_by_overlap_depth(self):
        """Table 3 (b): candidates are open overlapping successors."""
        xs = [TemporalTuple(f"x{i}", i, 10 * i, 10 * i + 15) for i in range(100)]
        semi = SelfContainSemijoin(make_stream(xs, TS_ASC))
        semi.run()
        assert semi.metrics.workspace_high_water <= 4

    @settings(max_examples=80, deadline=None)
    @given(tuple_lists)
    def test_matches_nested_loop(self, xs):
        semi = SelfContainSemijoin(make_stream(xs, TS_ASC))
        assert values(semi.run()) == contain_oracle(xs)


class TestSelfContainSemijoinDesc:
    def test_one_state_tuple(self, random_tuples):
        xs = random_tuples(300, seed=21)
        semi = SelfContainSemijoinDesc(make_stream(xs, TS_TE_DESC_ORDER))
        semi.run()
        assert semi.metrics.workspace_high_water == 1
        assert semi.metrics.passes_x == 1

    def test_requires_descending_orders(self, random_tuples):
        xs = random_tuples(5)
        with pytest.raises(UnsupportedSortOrderError):
            SelfContainSemijoinDesc(make_stream(xs, TS_TE_ASC))

    @settings(max_examples=80, deadline=None)
    @given(tuple_lists)
    def test_matches_nested_loop(self, xs):
        semi = SelfContainSemijoinDesc(make_stream(xs, TS_TE_DESC_ORDER))
        assert values(semi.run()) == contain_oracle(xs)

    @settings(max_examples=40, deadline=None)
    @given(tuple_lists)
    def test_agrees_with_ascending_variant(self, xs):
        asc = SelfContainSemijoin(make_stream(xs, TS_ASC))
        desc = SelfContainSemijoinDesc(make_stream(xs, TS_TE_DESC_ORDER))
        assert values(asc.run()) == values(desc.run())
