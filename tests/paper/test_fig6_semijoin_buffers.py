"""FIG6 — Figure 6 / Section 4.2.2: one-buffer semijoins.

Claims reproduced:

* Contain-semijoin(X,Y) on TS^/TE^ and Contained-semijoin(X,Y) on
  TE^/TS^ run with *zero state tuples* — just the two input buffers —
  in a single pass of each stream;
* outputs equal the nested-loop semijoin;
* the semijoin output preserves the X stream's order
  (order-preserving, Section 4.2.3's remark).
"""

from repro.model import TE_ASC, TS_ASC
from repro.streams import (
    ContainedSemijoinTeTs,
    ContainSemijoinTsTe,
    NestedLoopSemijoin,
    contain_predicate,
    contained_predicate,
)

from ..streams.conftest import make_stream, values
from .conftest import print_table


def figure6_contain(x, y):
    semi = ContainSemijoinTsTe(
        make_stream(x.tuples, TS_ASC, "X"), make_stream(y.tuples, TE_ASC, "Y")
    )
    return semi.run(), semi.metrics


def figure6_contained(x, y):
    semi = ContainedSemijoinTeTs(
        make_stream(x.tuples, TE_ASC, "X"), make_stream(y.tuples, TS_ASC, "Y")
    )
    return semi.run(), semi.metrics


def nested_semijoin(x, y, predicate):
    semi = NestedLoopSemijoin(
        make_stream(x.tuples, TS_ASC, "X"),
        make_stream(y.tuples, TS_ASC, "Y"),
        predicate,
    )
    return semi.run(), semi.metrics


def test_fig6_shape(poisson_pair):
    x, y = poisson_pair

    contain_out, contain_metrics = figure6_contain(x, y)
    contain_ref, ref_metrics = nested_semijoin(x, y, contain_predicate)
    assert values(contain_out) == values(contain_ref)
    assert contain_metrics.workspace_high_water == 0
    assert contain_metrics.total_footprint == 2
    assert contain_metrics.passes_x == 1 and contain_metrics.passes_y == 1
    assert TS_ASC.is_sorted(contain_out)  # order-preserving
    assert ref_metrics.passes_y == len(x)

    contained_out, contained_metrics = figure6_contained(x, y)
    contained_ref, _ = nested_semijoin(x, y, contained_predicate)
    assert values(contained_out) == values(contained_ref)
    assert contained_metrics.workspace_high_water == 0
    assert TE_ASC.is_sorted(contained_out)

    print_table(
        "Figure 6 reproduced: one-buffer semijoins vs nested loop",
        f"{'algorithm':30s} {'comparisons':>12s} {'peak state':>10s} "
        f"{'footprint':>9s}",
        [
            f"{'contain-sj TS^/TE^ (d)':30s} "
            f"{contain_metrics.comparisons:12d} "
            f"{contain_metrics.workspace_high_water:10d} "
            f"{contain_metrics.total_footprint:9d}",
            f"{'contained-sj TE^/TS^ (d)':30s} "
            f"{contained_metrics.comparisons:12d} "
            f"{contained_metrics.workspace_high_water:10d} "
            f"{contained_metrics.total_footprint:9d}",
            f"{'nested-loop semijoin':30s} "
            f"{ref_metrics.comparisons:12d} "
            f"{ref_metrics.workspace_high_water:10d} "
            f"{'n/a':>9s}",
        ],
    )
    assert contain_metrics.comparisons * 5 < ref_metrics.comparisons
