"""Range shard planning: the contiguous index ranges every shard is
handed must cover everything its owned X slice could match, on every
operator — checked against a nested-loop necessity oracle."""

import pytest

from repro.model import sort_tuples
from repro.parallel import plan_ranges
from repro.parallel.shards import SELF_OPERATORS
from repro.streams import TemporalOperator
from repro.streams.processors.baseline import (
    before_predicate,
    contain_predicate,
    contained_predicate,
    overlap_predicate,
)

from .conftest import (
    all_supported_cells,
    cell_id,
    make_tuples,
    plan_for,
    tie_heavy_tuples,
)

CELLS = all_supported_cells()

#: operator -> strict Section-4.2 match predicate (x, y-or-context).
PREDICATES = {
    TemporalOperator.CONTAIN_JOIN: contain_predicate,
    TemporalOperator.CONTAIN_SEMIJOIN: contain_predicate,
    TemporalOperator.CONTAINED_SEMIJOIN: contained_predicate,
    TemporalOperator.OVERLAP_JOIN: overlap_predicate,
    TemporalOperator.OVERLAP_SEMIJOIN: overlap_predicate,
    TemporalOperator.BEFORE_SEMIJOIN: before_predicate,
    TemporalOperator.SELF_CONTAINED_SEMIJOIN: contained_predicate,
    TemporalOperator.SELF_CONTAIN_SEMIJOIN: contain_predicate,
}


def binary_entry():
    return next(
        e for e in CELLS if e.operator is TemporalOperator.CONTAIN_JOIN
    )


def inputs_for(entry, generate=make_tuples, n=160):
    xs = sort_tuples(generate("x", n, seed=41), entry.x_order)
    ys = (
        sort_tuples(generate("y", n, seed=42), entry.y_order)
        if entry.y_order is not None
        else None
    )
    return xs, ys


@pytest.mark.parametrize("entry", CELLS, ids=cell_id)
@pytest.mark.parametrize("shards", [2, 3, 5])
class TestRangeGeometry:
    def test_owned_ranges_partition_x(self, entry, shards):
        xs, ys = inputs_for(entry)
        plan = plan_for(entry, xs, ys, shards)
        cursor = 0
        for shard_range in plan.ranges:
            assert shard_range.owned_lo == cursor
            assert shard_range.owned_hi > shard_range.owned_lo
            cursor = shard_range.owned_hi
        assert cursor == len(xs)

    def test_range_covers_windowed_partition(self, entry, shards):
        """Every context position that strictly matches some X tuple
        owned by shard i must fall inside shard i's planned index
        range — the range is allowed to be a superset (the kernels
        re-check the exact predicates) but never to miss a necessary
        tuple.  Tie-grid inputs put equal endpoints on every cut.

        Before-semijoin is the one cell that ships a witness instead
        of the window: there, every owned X with any match must find
        one in the range."""
        xs, ys = inputs_for(entry, generate=tie_heavy_tuples, n=96)
        plan = plan_for(entry, xs, ys, shards)
        matches = PREDICATES[entry.operator]
        context = xs if entry.operator in SELF_OPERATORS else ys
        for shard_range in plan.ranges:
            owned = xs[shard_range.owned_lo : shard_range.owned_hi]
            in_range = range(shard_range.y_lo, shard_range.y_hi)
            if entry.operator is TemporalOperator.BEFORE_SEMIJOIN:
                for x in owned:
                    if any(matches(x, y) for y in context):
                        assert any(matches(x, context[j]) for j in in_range)
                continue
            for position, candidate in enumerate(context):
                if any(matches(x, candidate) for x in owned):
                    assert position in in_range

    def test_self_context_contains_owned(self, entry, shards):
        if entry.operator not in SELF_OPERATORS:
            pytest.skip("binary cell")
        xs, ys = inputs_for(entry)
        plan = plan_for(entry, xs, ys, shards)
        for shard_range in plan.ranges:
            assert shard_range.y_lo <= shard_range.owned_lo
            assert shard_range.y_hi >= shard_range.owned_hi


class TestBeforeRepresentative:
    def test_single_argmax_representative(self):
        entry = next(
            e
            for e in CELLS
            if e.operator is TemporalOperator.BEFORE_SEMIJOIN
        )
        xs, ys = inputs_for(entry)
        plan = plan_for(entry, xs, ys, 3)
        best = max(
            range(len(ys)),
            key=lambda i: (ys[i].valid_from, ys[i].valid_to),
        )
        for shard_range in plan.ranges:
            assert shard_range.context_count == 1
            assert shard_range.y_lo == best


class TestAccounting:
    def test_as_dict_reports_partition_plan_surface(self):
        entry = binary_entry()
        xs, ys = inputs_for(entry)
        plan = plan_for(entry, xs, ys, 3)
        payload = plan.as_dict()
        assert payload["strategy"] == "range"
        for key in (
            "operator",
            "requested_shards",
            "effective_shards",
            "x_total",
            "shipped_total",
            "replicated_total",
            "boundary_spanning",
            "cuts",
            "skew_ratio",
            "shard_sizes",
        ):
            assert key in payload
        assert len(payload["shard_sizes"]) == plan.effective_shards
        assert plan.skew_ratio >= 1.0

    def test_empty_input_plans_no_ranges(self):
        entry = binary_entry()
        plan = plan_ranges(entry, [], [], [], [], shards=4)
        assert plan.effective_shards == 0
        assert plan.replicated_total == 0

    def test_more_shards_than_tuples_degrades_gracefully(self):
        entry = binary_entry()
        xs = sort_tuples(make_tuples("x", 3, seed=9), entry.x_order)
        ys = sort_tuples(make_tuples("y", 3, seed=10), entry.y_order)
        plan = plan_for(entry, xs, ys, 10)
        assert 1 <= plan.effective_shards <= 3
