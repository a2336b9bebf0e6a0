"""Tests for the Contain-join stream processors (Section 4.2.1)."""

import pytest
from hypothesis import given, settings

from repro.errors import UnsupportedSortOrderError
from repro.model import TE_ASC, TS_ASC, TS_DESC, TemporalTuple
from repro.streams import (
    ContainJoinTsTe,
    ContainJoinTsTs,
    NestedLoopJoin,
    contain_predicate,
)

from repro.streams.processors import StreamProcessor

from .conftest import make_stream, pair_values, tuple_lists


def oracle(xs, ys):
    return pair_values(
        NestedLoopJoin(
            make_stream(xs, TS_ASC),
            make_stream(ys, TS_ASC),
            contain_predicate,
        ).run()
    )


class TestContainJoinTsTs:
    def test_figure5_style_example(self):
        xs = [
            TemporalTuple("x1", "x1", 0, 20),
            TemporalTuple("x2", "x2", 5, 9),
            TemporalTuple("x3", "x3", 12, 30),
        ]
        ys = [
            TemporalTuple("y1", "y1", 2, 10),
            TemporalTuple("y2", "y2", 6, 8),
            TemporalTuple("y3", "y3", 14, 25),
        ]
        join = ContainJoinTsTs(make_stream(xs, TS_ASC), make_stream(ys, TS_ASC))
        assert pair_values(join.run()) == [
            ("x1", "y1"),
            ("x1", "y2"),
            ("x2", "y2"),
            ("x3", "y3"),
        ]

    def test_single_pass(self, random_tuples):
        xs, ys = random_tuples(80, seed=1), random_tuples(80, seed=2)
        join = ContainJoinTsTs(make_stream(xs, TS_ASC), make_stream(ys, TS_ASC))
        join.run()
        assert join.metrics.passes_x == 1
        assert join.metrics.passes_y == 1

    def test_rejects_wrong_orders(self, random_tuples):
        xs = random_tuples(5)
        with pytest.raises(UnsupportedSortOrderError):
            ContainJoinTsTs(make_stream(xs, TS_ASC), make_stream(xs, TE_ASC))
        with pytest.raises(UnsupportedSortOrderError):
            ContainJoinTsTs(make_stream(xs, TS_DESC), make_stream(xs, TS_DESC))

    def test_empty_inputs(self):
        some = [TemporalTuple("a", 1, 0, 5)]
        for xs, ys in (([], some), (some, []), ([], [])):
            join = ContainJoinTsTs(
                make_stream(xs, TS_ASC), make_stream(ys, TS_ASC)
            )
            assert join.run() == []

    def test_early_termination_when_y_exhausts(self):
        """Once Y is drained and Y's state is empty, remaining X tuples
        are not even read (Section 4.2.1, step 5)."""
        xs = [TemporalTuple(f"x{i}", i, 100 + i, 200 + i) for i in range(50)]
        ys = [TemporalTuple("y", "y", 0, 3)]
        join = ContainJoinTsTs(make_stream(xs, TS_ASC), make_stream(ys, TS_ASC))
        assert join.run() == []
        assert join.metrics.tuples_read_x < len(xs)

    def test_workspace_bounded_by_overlap_depth(self):
        """Disjoint staircase intervals keep the state tiny even for a
        long stream — the bounded-workspace claim of Table 1 (a)."""
        xs = [TemporalTuple(f"x{i}", i, 10 * i, 10 * i + 8) for i in range(200)]
        ys = [
            TemporalTuple(f"y{i}", i, 10 * i + 2, 10 * i + 6) for i in range(200)
        ]
        join = ContainJoinTsTs(make_stream(xs, TS_ASC), make_stream(ys, TS_ASC))
        result = join.run()
        assert len(result) == 200
        assert join.metrics.workspace_high_water <= 4

    def test_duplicate_intervals(self):
        xs = [TemporalTuple("x1", "x1", 0, 10), TemporalTuple("x2", "x2", 0, 10)]
        ys = [TemporalTuple("y1", "y1", 2, 5), TemporalTuple("y2", "y2", 2, 5)]
        join = ContainJoinTsTs(make_stream(xs, TS_ASC), make_stream(ys, TS_ASC))
        assert len(join.run()) == 4

    def test_boundary_touching_is_not_containment(self):
        # Shared endpoints violate the strict during relationship.
        xs = [TemporalTuple("x", "x", 0, 10)]
        ys = [
            TemporalTuple("y1", "y1", 0, 5),   # starts
            TemporalTuple("y2", "y2", 5, 10),  # finishes
            TemporalTuple("y3", "y3", 0, 10),  # equal
        ]
        join = ContainJoinTsTs(make_stream(xs, TS_ASC), make_stream(ys, TS_ASC))
        assert join.run() == []

    @settings(max_examples=60, deadline=None)
    @given(tuple_lists, tuple_lists)
    def test_matches_nested_loop(self, xs, ys):
        join = ContainJoinTsTs(make_stream(xs, TS_ASC), make_stream(ys, TS_ASC))
        assert pair_values(join.run()) == oracle(xs, ys)


class TestContainJoinTsTe:
    def test_rejects_wrong_orders(self, random_tuples):
        xs = random_tuples(5)
        with pytest.raises(UnsupportedSortOrderError):
            ContainJoinTsTe(make_stream(xs, TS_ASC), make_stream(xs, TS_ASC))

    def test_single_pass(self, random_tuples):
        xs, ys = random_tuples(80, seed=3), random_tuples(80, seed=4)
        join = ContainJoinTsTe(make_stream(xs, TS_ASC), make_stream(ys, TE_ASC))
        join.run()
        assert join.metrics.passes_x == 1
        assert join.metrics.passes_y == 1

    @settings(max_examples=60, deadline=None)
    @given(tuple_lists, tuple_lists)
    def test_matches_nested_loop(self, xs, ys):
        join = ContainJoinTsTe(make_stream(xs, TS_ASC), make_stream(ys, TE_ASC))
        assert pair_values(join.run()) == oracle(xs, ys)

    def test_agrees_with_ts_ts_variant(self, random_tuples):
        xs, ys = random_tuples(120, seed=5), random_tuples(120, seed=6)
        a = ContainJoinTsTs(make_stream(xs, TS_ASC), make_stream(ys, TS_ASC))
        b = ContainJoinTsTe(make_stream(xs, TS_ASC), make_stream(ys, TE_ASC))
        assert pair_values(a.run()) == pair_values(b.run())


class TestProcessorLifecycle:
    def test_single_use(self, random_tuples):
        xs = random_tuples(10)
        join = ContainJoinTsTs(make_stream(xs, TS_ASC), make_stream(xs, TS_ASC))
        join.run()
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            join.run()

    def test_output_count_metric(self, random_tuples):
        xs, ys = random_tuples(50, seed=8), random_tuples(50, seed=9)
        join = ContainJoinTsTs(make_stream(xs, TS_ASC), make_stream(ys, TS_ASC))
        out = join.run()
        assert join.metrics.output_count == len(out)

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("drain", ["run", "iterate"])
    def test_a_raise_mid_run_keeps_the_emitted_count(self, k, drain):
        class RaisesAfterK(StreamProcessor):
            operator = "raises-after-k"

            def _execute(self):
                yield from range(k)
                raise RuntimeError("boom")

        processor = RaisesAfterK(make_stream([], TS_ASC))
        with pytest.raises(RuntimeError, match="boom"):
            processor.run() if drain == "run" else list(processor)
        assert processor.metrics.output_count == k
