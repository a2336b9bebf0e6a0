"""Unit tests for the time-domain range partitioner
(:mod:`repro.parallel.shards`): positional X ownership, the necessity
window each operator's atoms select, the before-semijoin
representative, self-semijoin context hulls and the plan accounting."""

import pytest

from .conftest import make_tuples, plan_for, tie_heavy_tuples

from repro.errors import ExecutionError
from repro.model import TS_ASC, TS_TE_ASC, sort_tuples
from repro.model.tuples import TemporalTuple
from repro.parallel import slice_bounds
from repro.streams import TemporalOperator, lookup
from repro.streams.registry import supported_entries


def T(name, ts, te):
    return TemporalTuple(name, name, ts, te)


class TestSliceBounds:
    def test_even_split(self):
        assert slice_bounds(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_remainder_spread(self):
        bounds = slice_bounds(10, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        assert all(hi > lo for lo, hi in bounds)
        assert [lo for lo, _ in bounds[1:]] == [hi for _, hi in bounds[:-1]]
        assert sum(hi - lo for lo, hi in bounds) == 10

    def test_more_shards_than_tuples_drops_empties(self):
        bounds = slice_bounds(2, 5)
        assert sum(hi - lo for lo, hi in bounds) == 2
        assert all(hi > lo for lo, hi in bounds)
        assert len(bounds) <= 2

    def test_single_shard(self):
        assert slice_bounds(7, 1) == [(0, 7)]

    def test_zero_shards_rejected(self):
        with pytest.raises(ExecutionError):
            slice_bounds(4, 0)


class TestNecessityWindows:
    """One shard owning X with aggregates minTS=10, maxTS=20, minTE=15,
    maxTE=40.  Each Y below is TS-sorted with the tuples the window
    rejects at the ends, so the planned range must name exactly the
    tuples the window admits."""

    XS = [T("x1", 10, 15), T("x2", 20, 40)]

    def window(self, operator, ys):
        entry = lookup(operator, TS_ASC, TS_ASC)
        (shard_range,) = plan_for(entry, self.XS, ys, 1).ranges
        return [t.surrogate for t in ys[shard_range.y_lo : shard_range.y_hi]]

    def test_contain_window_is_superset_of_predicate(self):
        # x contains y needs x.ts < y.ts and y.te < x.te: any y inside
        # some owned lifespan satisfies ts >= minTS and te <= maxTE.
        ys = [
            T("early", 9, 30),
            T("edge", 10, 40),  # non-strict at the boundary
            T("in", 12, 30),
            T("late", 12, 41),
        ]
        assert self.window(TemporalOperator.CONTAIN_JOIN, ys) == [
            "edge",
            "in",
        ]

    def test_contained_window_mirrors(self):
        ys = [
            T("ends-before-owned", 5, 14),
            T("edge-end", 5, 15),  # non-strict at min_te
            T("covers", 5, 50),
            T("edge-start", 20, 50),  # non-strict at max_ts
            T("starts-after-owned", 21, 50),
        ]
        assert self.window(TemporalOperator.CONTAINED_SEMIJOIN, ys) == [
            "edge-end",
            "covers",
            "edge-start",
        ]

    def test_overlap_window(self):
        ys = [
            T("before", 1, 9),
            T("touch-left", 5, 10),  # non-strict supersets
            T("spans", 5, 50),
            T("touch-right", 40, 50),
            T("after", 41, 50),
        ]
        assert self.window(TemporalOperator.OVERLAP_JOIN, ys) == [
            "touch-left",
            "spans",
            "touch-right",
        ]

    def test_unknown_operator_rejected(self):
        entry = lookup(TemporalOperator.BEFORE_JOIN, TS_ASC, TS_ASC)
        with pytest.raises(ExecutionError):
            plan_for(entry, self.XS, [T("y", 1, 2)], 1)


class TestWindowedPartition:
    def entry(self):
        return lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)

    def test_x_owned_exactly_once(self):
        xs = sort_tuples(make_tuples("x", 50, seed=1), TS_ASC)
        ys = sort_tuples(make_tuples("y", 60, seed=2), TS_ASC)
        plan = plan_for(self.entry(), xs, ys, 4)
        rebuilt = [
            t for r in plan.ranges for t in xs[r.owned_lo : r.owned_hi]
        ]
        assert rebuilt == xs
        assert plan.cuts == [r.owned_lo for r in plan.ranges[1:]]

    def test_shard_y_is_sorted_subsequence(self):
        xs = sort_tuples(make_tuples("x", 50, seed=1), TS_ASC)
        ys = sort_tuples(make_tuples("y", 60, seed=2), TS_ASC)
        plan = plan_for(self.entry(), xs, ys, 3)
        for r in plan.ranges:
            assert 0 <= r.y_lo <= r.y_hi <= len(ys)
            assert TS_ASC.is_sorted(ys[r.y_lo : r.y_hi])

    def test_replication_accounting(self):
        xs = sort_tuples(make_tuples("x", 40, seed=3), TS_ASC)
        ys = sort_tuples(make_tuples("y", 40, seed=4), TS_ASC)
        plan = plan_for(self.entry(), xs, ys, 4)
        shipped = sum(r.context_count for r in plan.ranges)
        assert plan.shipped_total == shipped
        # shipped = distinct-needed + replicated copies
        distinct_needed = len(
            {j for r in plan.ranges for j in range(r.y_lo, r.y_hi)}
        )
        assert plan.replicated_total == shipped - distinct_needed
        assert plan.boundary_spanning <= distinct_needed
        assert plan.skew_ratio >= 1.0

    def test_missing_y_rejected(self):
        xs = sort_tuples(make_tuples("x", 10, seed=1), TS_ASC)
        with pytest.raises(ExecutionError):
            plan_for(self.entry(), xs, None, 2)

    def test_tie_heavy_cuts_keep_single_ownership(self):
        # Many tuples share TS exactly where positional cuts land.
        xs = sort_tuples(tie_heavy_tuples("x", 64, seed=9), TS_ASC)
        ys = sort_tuples(tie_heavy_tuples("y", 64, seed=10), TS_ASC)
        plan = plan_for(self.entry(), xs, ys, 7)
        assert plan.effective_shards == 7
        seen = []
        for r in plan.ranges:
            assert r.owned_lo == len(seen)
            seen.extend(xs[r.owned_lo : r.owned_hi])
        assert seen == xs


class TestBeforePartition:
    def entry(self):
        return next(
            e
            for e in supported_entries(TemporalOperator.BEFORE_SEMIJOIN)
        )

    def test_single_representative(self):
        entry = self.entry()
        xs = sort_tuples(make_tuples("x", 30, seed=1), entry.x_order)
        ys = sort_tuples(make_tuples("y", 30, seed=2), entry.y_order)
        plan = plan_for(entry, xs, ys, 3)
        latest = max(ys, key=lambda t: (t.valid_from, t.valid_to))
        for r in plan.ranges:
            assert ys[r.y_lo : r.y_hi] == [latest]
        assert plan.replicated_total == plan.effective_shards - 1
        assert plan.boundary_spanning == 1

    def test_empty_y(self):
        entry = self.entry()
        xs = sort_tuples(make_tuples("x", 10, seed=1), entry.x_order)
        plan = plan_for(entry, xs, [], 2)
        for r in plan.ranges:
            assert r.context_count == 0
        assert plan.replicated_total == 0


class TestSelfPartition:
    def test_tags_and_owner_coverage(self):
        """The kernel input of a self-semijoin shard is one index range
        of the relation; it must contain every owned position (outputs
        are owner-filtered by index, so a missing owner is a lost
        result)."""
        entry = lookup(
            TemporalOperator.SELF_CONTAINED_SEMIJOIN, TS_TE_ASC, None
        )
        xs = sort_tuples(make_tuples("x", 40, seed=7), TS_TE_ASC)
        plan = plan_for(entry, xs, None, 4)
        assert plan.y_total == 0
        for r in plan.ranges:
            assert 0 <= r.y_lo <= r.owned_lo
            assert r.owned_hi <= r.y_hi <= len(xs)

    def test_k1_is_whole_relation(self):
        entry = lookup(
            TemporalOperator.SELF_CONTAIN_SEMIJOIN, TS_TE_ASC, None
        )
        xs = sort_tuples(make_tuples("x", 25, seed=8), TS_TE_ASC)
        plan = plan_for(entry, xs, None, 1)
        assert plan.effective_shards == 1
        (whole,) = plan.ranges
        assert (whole.y_lo, whole.y_hi) == (0, len(xs))
        assert plan.replicated_total == 0


class TestPlanDict:
    def test_as_dict_round_trips(self):
        entry = lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)
        xs = sort_tuples(make_tuples("x", 30, seed=1), TS_ASC)
        ys = sort_tuples(make_tuples("y", 30, seed=2), TS_ASC)
        plan = plan_for(entry, xs, ys, 3)
        d = plan.as_dict()
        assert d["operator"] == "contain-join"
        assert d["effective_shards"] == len(plan.ranges)
        assert len(d["shard_sizes"]) == len(plan.ranges)
        assert d["shard_sizes"] == [
            {"x": r.owned_count, "y": r.context_count}
            for r in plan.ranges
        ]
        assert d["cuts"] == plan.cuts
