"""Section 4.2.4 — Before-join and Before-semijoin.

Claims reproduced:

* no sort ordering bounds the Before-join's stream state: the sweep
  implementation's workspace grows linearly with |X| while the bounded
  operators' workspaces stay flat on the same data;
* with the inner relation ValidFrom-descending, nested-loop Before-join
  avoids scanning the inner relation in its entirety (early
  termination), reading far fewer inner tuples;
* Before-semijoin runs in a single pass of each input with constant
  workspace, independent of sort order.
"""

from repro.model import TS_ASC, TS_DESC
from repro.streams import (
    BeforeJoinSortedInner,
    BeforeJoinSweep,
    BeforeSemijoin,
    NestedLoopJoin,
    OverlapJoin,
    before_predicate,
)
from repro.workload import PoissonWorkload, fixed_duration

from ..streams.conftest import make_stream, pair_values
from .conftest import print_table


def inputs(n, seed_offset=0):
    x = PoissonWorkload(n, 0.5, fixed_duration(10), name="X").generate(
        1 + seed_offset
    )
    y = PoissonWorkload(n, 0.5, fixed_duration(10), name="Y").generate(
        2 + seed_offset
    )
    return x, y


def test_before_join_state_grows_linearly():
    """The negative result, quantified: Before-join sweep state ~ |X|,
    Overlap-join state ~ constant, on identical inputs."""
    rows = []
    for n in (250, 500, 1000):
        x, y = inputs(n)
        before = BeforeJoinSweep(
            make_stream(x.tuples, TS_ASC, "X"),
            make_stream(y.tuples, TS_ASC, "Y"),
        )
        before.run()
        overlap = OverlapJoin(
            make_stream(x.tuples, TS_ASC, "X"),
            make_stream(y.tuples, TS_ASC, "Y"),
        )
        overlap.run()
        rows.append(
            f"{n:6d} {before.metrics.workspace_high_water:14d} "
            f"{overlap.metrics.workspace_high_water:15d}"
        )
        assert before.metrics.workspace_high_water >= n * 0.9
        assert overlap.metrics.workspace_high_water < n / 5
    print_table(
        "Section 4.2.4 reproduced: Before-join state is unbounded",
        f"{'|X|':>6s} {'before state':>14s} {'overlap state':>15s}",
        rows,
    )


def test_before_join_early_termination():
    x, y = inputs(400)
    join = BeforeJoinSortedInner(
        make_stream(x.tuples, TS_ASC, "X"),
        make_stream(y.tuples, TS_DESC, "Y"),
    )
    out = join.run()
    assert join.metrics.tuples_read_y < len(x) * len(y)
    # Early termination reads exactly |output| + one stopper per probe.
    assert join.metrics.tuples_read_y <= len(out) + len(x)


def test_before_semijoin_constant_state():
    x, y = inputs(2000)
    semi = BeforeSemijoin(
        make_stream(x.tuples, TS_ASC, "X"),
        make_stream(y.tuples, TS_ASC, "Y"),
    )
    semi.run()
    assert semi.metrics.workspace_high_water == 0
    assert semi.metrics.passes_x == 1 and semi.metrics.passes_y == 1


def test_before_correctness():
    x, y = inputs(250, seed_offset=10)
    reference = NestedLoopJoin(
        make_stream(x.tuples, TS_ASC, "X"),
        make_stream(y.tuples, TS_ASC, "Y"),
        before_predicate,
    ).run()

    sweep = BeforeJoinSweep(
        make_stream(x.tuples, TS_ASC, "X"),
        make_stream(y.tuples, TS_ASC, "Y"),
    ).run()
    sorted_inner = BeforeJoinSortedInner(
        make_stream(x.tuples, TS_ASC, "X"),
        make_stream(y.tuples, TS_DESC, "Y"),
    ).run()

    assert pair_values(sweep) == pair_values(reference)
    assert pair_values(sorted_inner) == pair_values(reference)
