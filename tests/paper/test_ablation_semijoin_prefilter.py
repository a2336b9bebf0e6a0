"""ABL2 — ablation: semijoins as join pre-processors (Section 4.2.3).

The paper: "It is interesting to consider using a semijoin algorithm as
a preprocessor for a join operation.  Intuitively, the advantages are:
(1) the output stream from a semijoin operation has the same sort
ordering as the input stream — order-preserving; (2) with proper sort
orderings, the semijoin algorithms scan input streams only once, and a
number of 'dangling' tuples may be eliminated, which may reduce the
size of workspace for join operations."

Reproduced: prefiltering X through the one-buffer Contain-semijoin
before a Contain-join (a) preserves the sort order (no re-sort), (b)
removes dangling tuples, and (c) shrinks the join's workspace and
comparisons — with identical final output.
"""

from repro.model import TE_ASC, TS_ASC
from repro.streams import (
    ContainJoinTsTs,
    ContainSemijoinTsTe,
    TupleStream,
)
from repro.workload import PoissonWorkload, fixed_duration, uniform_duration

from ..streams.conftest import make_stream, pair_values
from .conftest import print_table


def build_inputs():
    """Mostly-dangling X: few X lifespans are long enough to contain a
    Y lifespan."""
    x = PoissonWorkload(
        2000, 0.5, uniform_duration(1, 30), name="X"
    ).generate(7)
    # Sparse Y: most X lifespans contain no Y lifespan and dangle.
    y = PoissonWorkload(
        200, 0.05, fixed_duration(8), name="Y"
    ).generate(8)
    return x.sorted_by(TS_ASC), y.sorted_by(TS_ASC)


def direct_join(x, y):
    join = ContainJoinTsTs(
        TupleStream.from_relation(x), TupleStream.from_relation(y)
    )
    return join.run(), join.metrics


def prefiltered_join(x, y):
    semi = ContainSemijoinTsTe(
        TupleStream.from_relation(x),
        make_stream(y.tuples, TE_ASC, "Y-te"),
    )
    surviving = semi.run()
    # Order-preserving: the semijoin output is still ValidFrom-sorted
    # and feeds the join without a re-sort.
    filtered_stream = TupleStream.from_tuples(
        surviving, order=TS_ASC, name="X-filtered"
    )
    join = ContainJoinTsTs(filtered_stream, TupleStream.from_relation(y))
    return join.run(), semi.metrics, join.metrics


def test_ablation_prefilter_correct_and_cheaper():
    x, y = build_inputs()
    direct_out, direct_metrics = direct_join(x, y)
    pre_out, semi_metrics, join_metrics = prefiltered_join(x, y)

    assert direct_out
    assert pair_values(direct_out) == pair_values(pre_out)
    survivors = semi_metrics.output_count
    assert survivors < len(x) / 2  # dangling tuples were eliminated
    assert (
        join_metrics.workspace_high_water
        <= direct_metrics.workspace_high_water
    )

    print_table(
        "ABL2 reproduced: Contain-semijoin as a Contain-join prefilter",
        f"{'pipeline':26s} {'X tuples in':>11s} {'join state':>10s} "
        f"{'join comparisons':>16s}",
        [
            f"{'direct join':26s} {len(x):11d} "
            f"{direct_metrics.workspace_high_water:10d} "
            f"{direct_metrics.comparisons:16d}",
            f"{'semijoin -> join':26s} {survivors:11d} "
            f"{join_metrics.workspace_high_water:10d} "
            f"{join_metrics.comparisons:16d}",
        ],
    )
