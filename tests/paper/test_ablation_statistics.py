"""ABL1 — ablation: "the optimal sort ordering may depend on the
statistics of data instances" (Sections 4.1/4.2 and 6).

Three studies:

* workspace vs lifespan duration — the measured state of the bounded
  operators tracks the lambda * E[duration] estimator as durations
  sweep over an order of magnitude;
* workspace vs arrival-rate ratio — skewing lambda_x / lambda_y moves
  state between the X and Y sides, changing which sort-order variant
  is cheaper;
* advancement policy — the paper's 1/lambda read-phase heuristic vs
  the plain sweep order, measured on skewed inputs.
"""

from repro.model import TS_ASC
from repro.stats import collect_statistics, estimate_overlap_join_workspace
from repro.streams import (
    ContainJoinTsTs,
    OverlapJoin,
    TupleStream,
)
from repro.workload import PoissonWorkload, fixed_duration

from ..streams.conftest import pair_values
from .conftest import print_table


def poisson(n, rate, duration, seed, name):
    return PoissonWorkload(
        n, rate, fixed_duration(duration), name=name
    ).generate(seed)


def test_ablation_workspace_tracks_duration():
    rows = []
    previous = 0
    for duration in (5, 20, 80):
        x = poisson(2000, 0.5, duration, 1, "X").sorted_by(TS_ASC)
        y = poisson(2000, 0.5, duration, 2, "Y").sorted_by(TS_ASC)
        predicted = estimate_overlap_join_workspace(
            collect_statistics(x), collect_statistics(y)
        )
        join = OverlapJoin(
            TupleStream.from_relation(x), TupleStream.from_relation(y)
        )
        join.run()
        measured = join.metrics.workspace_high_water
        rows.append(
            f"{duration:8d} {predicted:10.1f} {measured:9d}"
        )
        assert measured > previous  # monotone in duration
        assert predicted * 0.4 <= measured <= predicted * 4
        previous = measured
    print_table(
        "ABL1 reproduced: overlap-join workspace vs lifespan duration "
        "(lambda=0.5)",
        f"{'duration':>8s} {'predicted':>10s} {'measured':>9s}",
        rows,
    )


def test_ablation_rate_ratio_shifts_state():
    """With fast X arrivals and slow Y arrivals the X state dominates,
    and vice versa — the statistic the optimizer needs per Section 6."""
    rows = []
    for rate_x, rate_y in ((1.0, 0.1), (0.1, 1.0)):
        x = poisson(1500, rate_x, 30, 3, "X").sorted_by(TS_ASC)
        y = poisson(1500, rate_y, 30, 4, "Y").sorted_by(TS_ASC)
        join = OverlapJoin(
            TupleStream.from_relation(x), TupleStream.from_relation(y)
        )
        join.run()
        x_state = join.metrics.state_high_water["x-state"]
        y_state = join.metrics.state_high_water["y-state"]
        rows.append(
            f"{rate_x:6.1f} {rate_y:6.1f} {x_state:9d} {y_state:9d}"
        )
        if rate_x > rate_y:
            assert x_state > y_state
        else:
            assert y_state > x_state
    print_table(
        "ABL1 reproduced: per-side state vs arrival-rate skew",
        f"{'l_x':>6s} {'l_y':>6s} {'x-state':>9s} {'y-state':>9s}",
        rows,
    )


def test_ablation_lambda_policy():
    """The 1/lambda advancement heuristic on rate-skewed inputs: same
    results as the sweep policy, comparable or better workspace."""
    x = poisson(1200, 1.0, 25, 5, "X").sorted_by(TS_ASC)
    y = poisson(1200, 0.2, 25, 6, "Y").sorted_by(TS_ASC)
    x_stats = collect_statistics(x)
    y_stats = collect_statistics(y)

    lambda_join = ContainJoinTsTs(
        TupleStream.from_relation(x),
        TupleStream.from_relation(y),
        policy=ContainJoinTsTs.lambda_policy(
            x_stats.mean_inter_arrival, y_stats.mean_inter_arrival
        ),
    )
    out_lambda = lambda_join.run()

    sweep = ContainJoinTsTs(
        TupleStream.from_relation(x), TupleStream.from_relation(y)
    )
    out_sweep = sweep.run()
    assert pair_values(out_lambda) == pair_values(out_sweep)

    print_table(
        "ABL1 reproduced: advancement policy comparison (skewed rates)",
        f"{'policy':12s} {'peak state':>10s} {'comparisons':>12s}",
        [
            f"{'1/lambda':12s} "
            f"{lambda_join.metrics.workspace_high_water:10d} "
            f"{lambda_join.metrics.comparisons:12d}",
            f"{'min-key':12s} "
            f"{sweep.metrics.workspace_high_water:10d} "
            f"{sweep.metrics.comparisons:12d}",
        ],
    )


def test_ablation_histogram_vs_stationary_on_bursts():
    """Section 6's 'suitable form for the optimizer': on bursty data
    the stationary lambda * E[duration] model underestimates the
    workspace badly; an equi-width histogram localises the burst."""
    from repro.model import TemporalRelation, TemporalSchema, TemporalTuple
    from repro.stats import (
        build_histogram,
        estimate_peak_workspace,
    )

    def bursty(name):
        burst = [
            TemporalTuple(f"{name}b{i}", i, 5000 + i, 5000 + i + 60)
            for i in range(250)
        ]
        tail = [
            TemporalTuple(f"{name}t{i}", 1000 + i, 50 * i, 50 * i + 5)
            for i in range(250)
        ]
        return TemporalRelation(
            TemporalSchema(name, "Id", "Seq"), burst + tail
        ).sorted_by(TS_ASC)

    x, y = bursty("X"), bursty("Y")
    join = OverlapJoin(
        TupleStream.from_relation(x), TupleStream.from_relation(y)
    )
    join.run()
    measured = join.metrics.workspace_high_water

    stationary = estimate_overlap_join_workspace(
        collect_statistics(x), collect_statistics(y)
    )
    histogram = estimate_peak_workspace(
        build_histogram(x, 64), build_histogram(y, 64)
    )
    print_table(
        "ABL1 reproduced: workspace prediction on bursty data",
        f"{'predictor':22s} {'estimate':>9s} {'measured':>9s}",
        [
            f"{'stationary l*E[dur]':22s} {stationary:9.1f} {measured:9d}",
            f"{'equi-width histogram':22s} {histogram:9.1f} {measured:9d}",
        ],
    )
    assert stationary < measured / 3  # the flat model misses the burst
    assert measured / 2 <= histogram <= measured * 2
