"""FIG5 — Figure 5 / Section 4.2.1: the Contain-join stream algorithm.

Claims reproduced:

* the stream algorithm (both TS^/TS^ and TS^/TE^ variants) equals the
  nested-loop baseline on the same data;
* it reads each input exactly once, with workspace bounded by the
  interval-overlap statistics, while the nested loop re-reads the inner
  input per outer tuple;
* the stream variant makes an order of magnitude fewer comparisons.
"""

from repro.model import TE_ASC, TS_ASC
from repro.streams import (
    ContainJoinTsTe,
    ContainJoinTsTs,
    NestedLoopJoin,
    contain_predicate,
)

from ..streams.conftest import make_stream
from .conftest import print_table


def stream_ts_ts(x, y):
    join = ContainJoinTsTs(
        make_stream(x.tuples, TS_ASC, "X"), make_stream(y.tuples, TS_ASC, "Y")
    )
    return join.run(), join.metrics


def stream_ts_te(x, y):
    join = ContainJoinTsTe(
        make_stream(x.tuples, TS_ASC, "X"), make_stream(y.tuples, TE_ASC, "Y")
    )
    return join.run(), join.metrics


def nested(x, y):
    join = NestedLoopJoin(
        make_stream(x.tuples, TS_ASC, "X"),
        make_stream(y.tuples, TS_ASC, "Y"),
        contain_predicate,
    )
    return join.run(), join.metrics


def test_fig5_workspace_trajectory(poisson_pair):
    """Figure 5's picture, measured: the workspace rises and falls with
    the sweep (garbage collection keeps reclaiming state) instead of
    growing monotonically.  Rendered as a text sparkline."""
    x, y = poisson_pair
    join = ContainJoinTsTs(
        make_stream(x.tuples, TS_ASC, "X"), make_stream(y.tuples, TS_ASC, "Y")
    )
    join.meter.enable_trace()
    join.run()
    trace = join.meter.trace
    assert trace is not None and len(trace) > 100
    peak = max(trace)
    # GC reclaims state: the trajectory returns near zero many times.
    dips = sum(
        1
        for i in range(1, len(trace) - 1)
        if trace[i] <= peak / 4 and trace[i - 1] > trace[i]
    )
    assert dips > 10
    assert trace[-1] == 0  # everything reclaimed at end of sweep

    # Down-sample to an 80-column sparkline.
    blocks = " .:-=+*#%@"
    step = max(1, len(trace) // 80)
    sampled = [
        max(trace[i : i + step]) for i in range(0, len(trace), step)
    ]
    line = "".join(
        blocks[min(len(blocks) - 1, v * (len(blocks) - 1) // max(1, peak))]
        for v in sampled
    )
    print(f"\nFigure 5 workspace trajectory (peak={peak}):\n[{line}]")


def test_fig5_shape(poisson_pair):
    x, y = poisson_pair
    out_a, metrics_a = stream_ts_ts(x, y)
    out_b, metrics_b = stream_ts_te(x, y)
    out_n, metrics_n = nested(x, y)

    def canonical(pairs):
        return sorted((a.value, b.value) for a, b in pairs)

    assert canonical(out_a) == canonical(out_b) == canonical(out_n)
    for metrics in (metrics_a, metrics_b):
        assert metrics.passes_x == 1 and metrics.passes_y == 1
    assert metrics_a.workspace_high_water < len(x) / 10
    # The conventional strategy's signature: one pass of Y per X tuple.
    assert metrics_n.passes_y == len(x)
    assert metrics_a.comparisons * 10 < metrics_n.comparisons

    print_table(
        "Figure 5 / Section 4.2.1 reproduced: Contain-join",
        f"{'algorithm':22s} {'comparisons':>12s} {'peak state':>10s} "
        f"{'passes x/y':>10s} {'output':>8s}",
        [
            f"{'stream TS^/TS^ (a)':22s} {metrics_a.comparisons:12d} "
            f"{metrics_a.workspace_high_water:10d} "
            f"{metrics_a.passes_x:6d}/{metrics_a.passes_y:d} "
            f"{metrics_a.output_count:8d}",
            f"{'stream TS^/TE^ (b)':22s} {metrics_b.comparisons:12d} "
            f"{metrics_b.workspace_high_water:10d} "
            f"{metrics_b.passes_x:6d}/{metrics_b.passes_y:d} "
            f"{metrics_b.output_count:8d}",
            f"{'nested loop':22s} {metrics_n.comparisons:12d} "
            f"{metrics_n.workspace_high_water:10d} "
            f"{metrics_n.passes_x:6d}/{metrics_n.passes_y:d} "
            f"{metrics_n.output_count:8d}",
        ],
    )
