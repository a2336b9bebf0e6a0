"""TAB2 — Table 2: sort orders for Overlap-join and Overlap-semijoin.

Claims reproduced:

* only both-ValidFrom-ascending (or the ValidTo-descending mirror) is
  stream-appropriate; every other combination has no registered
  algorithm;
* the join's state is the set of open intervals (class (a)), matching
  the lambda * E[duration] prediction;
* the semijoin needs only the two input buffers (class (b));
* results equal nested-loop baselines.
"""

import pytest

from repro.model import TE_ASC, TE_DESC, TS_ASC, TS_DESC
from repro.stats import collect_statistics, estimate_overlap_join_workspace
from repro.streams import (
    NestedLoopJoin,
    NestedLoopSemijoin,
    TemporalOperator,
    TupleStream,
    lookup,
    overlap_predicate,
)

from ..streams.conftest import make_stream, pair_values, values
from tests.backends import PHYSICAL_BACKENDS

from .conftest import print_table


def run_join(x, y, backend="tuple"):
    entry = lookup(TemporalOperator.OVERLAP_JOIN, TS_ASC, TS_ASC)
    join = entry.build(
        make_stream(x.tuples, TS_ASC, "X"),
        make_stream(y.tuples, TS_ASC, "Y"),
        backend=backend,
    )
    return join.run(), join.metrics


def run_semijoin(x, y, backend="tuple"):
    entry = lookup(TemporalOperator.OVERLAP_SEMIJOIN, TS_ASC, TS_ASC)
    semi = entry.build(
        make_stream(x.tuples, TS_ASC, "X"),
        make_stream(y.tuples, TS_ASC, "Y"),
        backend=backend,
    )
    return semi.run(), semi.metrics


def test_table2_support_pattern(poisson_pair):
    """Regenerate the table: which combinations carry an algorithm."""
    rows = []
    for x_order, y_order in (
        (TS_ASC, TS_ASC),
        (TS_ASC, TE_ASC),
        (TE_ASC, TS_ASC),
        (TE_ASC, TE_ASC),
        (TE_DESC, TE_DESC),
        (TS_DESC, TS_DESC),
    ):
        join_entry = lookup(TemporalOperator.OVERLAP_JOIN, x_order, y_order)
        semi_entry = lookup(
            TemporalOperator.OVERLAP_SEMIJOIN, x_order, y_order
        )
        rows.append(
            f"{str(x_order):12s} {str(y_order):12s} | "
            f"{join_entry.state_class:>6s} | {semi_entry.state_class:>6s}"
        )
        expected_supported = (x_order, y_order) in (
            (TS_ASC, TS_ASC),
            (TE_DESC, TE_DESC),
        )
        assert join_entry.supported == expected_supported
        assert semi_entry.supported == expected_supported
    print_table(
        "Table 2 reproduced: Overlap operator support by sort order",
        f"{'X order':12s} {'Y order':12s} | {'join':>6s} | {'semi':>6s}",
        rows,
    )


@pytest.fixture(scope="module")
def references(poisson_pair):
    """Nested-loop Overlap-join and Overlap-semijoin outputs, computed
    once for every backend to be compared against."""
    x, y = poisson_pair
    join = NestedLoopJoin(
        make_stream(x.tuples, TS_ASC, "X"),
        make_stream(y.tuples, TS_ASC, "Y"),
        overlap_predicate,
    ).run()
    semijoin = NestedLoopSemijoin(
        make_stream(x.tuples, TS_ASC, "X"),
        make_stream(y.tuples, TS_ASC, "Y"),
        overlap_predicate,
    ).run()
    return pair_values(join), values(semijoin)


@pytest.mark.parametrize("backend", PHYSICAL_BACKENDS)
def test_table2_correctness(poisson_pair, references, backend):
    x, y = poisson_pair
    join_reference, semi_reference = references

    join_out, join_metrics = run_join(x, y, backend)
    assert pair_values(join_out) == join_reference
    assert join_metrics.passes_x == 1 and join_metrics.passes_y == 1
    predicted = estimate_overlap_join_workspace(
        collect_statistics(x), collect_statistics(y)
    )
    # The columnar backend's lazy eviction can hold up to one extra
    # probe-window of dead entries; the 4x margin covers both backends.
    assert join_metrics.workspace_high_water <= predicted * 4

    semi_out, semi_metrics = run_semijoin(x, y, backend)
    assert values(semi_out) == semi_reference
    assert semi_metrics.workspace_high_water == 0
    assert semi_metrics.total_footprint == 2


@pytest.mark.parametrize("backend", PHYSICAL_BACKENDS)
def test_table2_mirror_execution(poisson_pair, backend):
    """The ValidTo-descending mirror row actually executes and agrees."""
    x, y = poisson_pair
    entry = lookup(TemporalOperator.OVERLAP_JOIN, TE_DESC, TE_DESC)
    processor = entry.build(
        TupleStream.from_relation(x.sorted_by(TE_DESC), name="X"),
        TupleStream.from_relation(y.sorted_by(TE_DESC), name="Y"),
        backend=backend,
    )
    mirrored_out = processor.run()
    direct_out, _ = run_join(x, y, backend)
    assert pair_values(mirrored_out) == pair_values(direct_out)
