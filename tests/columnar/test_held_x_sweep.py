"""The held-X sweep of Table 1's classes (a) and (c) keeps its
accounting: ``contain_join_ts_ts`` and ``contain_semijoin_ts_ts`` emit
what the tuple processors emit, in their order, and their five
``SweepStats`` counts, their Figure-5 trace and the insertion at which a
workspace limit raises are those of the charge the kernel documents,
replayed below one probe at a time over a plain active list.

The tuple processors keep Y state as well as X state, so their own
workspace counts differ from the kernel's by design; what they share
with it is the output sequence and the comparison-parity law of
``tests/streams/test_differential_backends.py``."""

import bisect
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar import kernels
from repro.columnar.kernels import SweepStats, _overflow
from repro.errors import WorkspaceOverflowError
from repro.model import TS_ASC, TemporalTuple
from repro.streams import TemporalOperator, TupleStream, lookup

from .test_tie_groups import c_calls

KERNELS = {
    False: (kernels.contain_join_ts_ts, TemporalOperator.CONTAIN_JOIN),
    True: (kernels.contain_semijoin_ts_ts, TemporalOperator.CONTAIN_SEMIJOIN),
}


def charged(x_spans, y_spans, retire, limit=None, trace=None, paths=None):
    """The held-X sweep's documented charge, one probe at a time: one
    comparison per X row consumed, one per live or held entry per
    probe, one eviction check per entry evicted.  ``paths`` counts the
    held-back and dead-on-arrival admissions."""
    stored, held = [], []
    xi, yj = [], []
    counts = dict.fromkeys(SweepStats.__slots__, 0)
    retired = 0
    i = 0
    for j, (yts, yte) in enumerate(y_spans):
        promoted = [row for row in held if x_spans[row][0] < yts]
        stored += promoted
        held = [row for row in held if row not in promoted]
        while i < len(x_spans) and x_spans[i][0] <= yts:
            counts["comparisons"] += 1
            xts, xte = x_spans[i]
            if xte <= yts:
                if paths is not None:
                    paths["dead on arrival"] += 1
            else:
                if xts == yts:
                    held.append(i)
                    if paths is not None:
                        paths["held back"] += 1
                else:
                    stored.append(i)
                counts["inserted"] += 1
                size = len(stored) + len(held)
                counts["high_water"] = max(counts["high_water"], size)
                if limit is not None and counts["high_water"] > limit:
                    raise _overflow(limit)
                if trace is not None:
                    trace.append(size)
            i += 1
        dead = [row for row in stored if x_spans[row][1] <= yts]
        stored = [row for row in stored if row not in dead]
        counts["eviction_checks"] += len(dead)
        counts["comparisons"] += len(stored) + len(held)
        run = sorted(row for row in stored if x_spans[row][1] > yte)
        xi += run
        if retire:
            stored = [row for row in stored if row not in run]
            retired += len(run)
        else:
            yj += [j] * len(run)
        if trace is not None and (dead or (retire and run)):
            trace.append(len(stored) + len(held))
    residue = len(stored) + len(held)
    if trace is not None and residue:
        trace.append(0)
    counts["discarded"] = counts["eviction_checks"] + retired + residue
    return (xi if retire else list(zip(xi, yj))), counts


def observed(function, limit=None):
    """Everything a caller sees of one sweep: output, the five counts
    and the trace — or the raise and the trace up to it."""
    trace = []
    try:
        out, counts = function(limit, trace)
    except WorkspaceOverflowError as error:
        return "overflow", str(error), trace
    return out, counts, trace


def kernel_run(x_spans, y_spans, retire):
    kernel = KERNELS[retire][0]
    columns = [
        [span[k] for span in spans]
        for spans in (x_spans, y_spans)
        for k in (0, 1)
    ]

    def run(limit, trace):
        out, stats = kernel(*columns, limit=limit, trace=trace)
        if not retire:
            out = list(zip(*out))
        return out, {name: getattr(stats, name) for name in SweepStats.__slots__}

    return run


def tuple_run(x_spans, y_spans, retire):
    """The tuple processor's output as positions, and its comparisons."""
    entry = lookup(KERNELS[retire][1], TS_ASC, TS_ASC)
    xs, ys = (
        [TemporalTuple(i, None, *span) for i, span in enumerate(spans)]
        for spans in (x_spans, y_spans)
    )
    processor = entry.build(
        TupleStream.from_tuples(xs, order=TS_ASC, name="X"),
        TupleStream.from_tuples(ys, order=TS_ASC, name="Y"),
        backend="tuple",
    )
    out = processor.run()
    if retire:
        out = [x.surrogate for x in out]
    else:
        out = [(x.surrogate, y.surrogate) for x, y in out]
    return out, processor.metrics.comparisons


def assert_keeps_its_accounting(x_spans, y_spans, retire, paths=None):
    x_spans, y_spans = sorted(x_spans), sorted(y_spans)
    swept = kernel_run(x_spans, y_spans, retire)
    expected = observed(
        lambda limit, trace: charged(
            x_spans, y_spans, retire, limit, trace, paths
        )
    )
    got = observed(swept)
    assert got == expected
    out, counts, _ = got
    tuple_out, tuple_comparisons = tuple_run(x_spans, y_spans, retire)
    assert out == tuple_out  # element for element, in order
    assert (
        0
        <= counts["comparisons"] - tuple_comparisons
        <= len(x_spans) + len(y_spans)
    )
    # The limit: exactly at the high-water mark nothing raises; below
    # it the same insertion raises, after the same trace prefix, whether
    # it falls first, inside or last in one probe's admissions.
    high_water = counts["high_water"]
    assert observed(swept, high_water) == expected
    for limit in range(high_water):
        breached = observed(
            lambda limit, trace: charged(
                x_spans, y_spans, retire, limit, trace
            ),
            limit,
        )
        assert breached[0] == "overflow"
        assert breached[2] == expected[2][: len(breached[2])]
        assert observed(swept, limit) == breached


#: Tie-dense spans: starts on a 6-point grid, durations 1-4, so X
#: starts meet probe timestamps (held back) and X rows end at or before
#: the probe that consumes them (dead on arrival).
tie_dense = st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 4)).map(
        lambda span: (span[0], span[0] + span[1])
    ),
    max_size=25,
)

#: Each path the sweep can take, forced.
HELD_BACK = ([(2, 5), (2, 9), (0, 9)], [(2, 3), (3, 4), (4, 5)])
DEAD_ON_ARRIVAL = ([(0, 1), (0, 2), (1, 2), (1, 8)], [(2, 3), (3, 4)])
BOTH = (
    [(0, 1), (1, 3), (3, 4), (3, 9), (3, 9)],
    [(3, 4), (3, 5), (5, 6), (6, 8)],
)
#: Three X admitted between the two probes, onto a store of one: the
#: join's limit of 2 is crossed by the second of them, and the
#: semijoin's (which retires X0 first) limit of 1 likewise.
MID_BATCH = ([(0, 9), (2, 9), (3, 9), (4, 9)], [(1, 2), (5, 6)])


@pytest.mark.parametrize("retire", [False, True], ids=["join", "semijoin"])
class TestHeldXSweep:
    @settings(max_examples=300, deadline=None)
    @given(tie_dense, tie_dense)
    @example(*HELD_BACK)
    @example(*DEAD_ON_ARRIVAL)
    @example(*BOTH)
    @example(*MID_BATCH)
    def test_keeps_its_accounting(self, retire, x_spans, y_spans):
        assert_keeps_its_accounting(x_spans, y_spans, retire)

    @pytest.mark.parametrize(
        "sides, path",
        [
            (HELD_BACK, "held back"),
            (DEAD_ON_ARRIVAL, "dead on arrival"),
            (BOTH, "held back"),
            (BOTH, "dead on arrival"),
        ],
    )
    def test_the_forced_cases_take_their_path(self, retire, sides, path):
        paths = dict.fromkeys(("held back", "dead on arrival"), 0)
        assert_keeps_its_accounting(*sides, retire, paths)
        assert paths[path] > 0

    def test_a_limit_of_zero_raises_at_the_first_insertion(self, retire):
        swept = kernel_run(*HELD_BACK, retire)
        assert observed(swept, 0) == ("overflow", str(_overflow(0)), [])

    def test_a_limit_crossed_inside_one_probes_admissions(self, retire):
        """The trace holds the sizes the admissions reached up to the
        limit, and nothing after."""
        swept = kernel_run(*MID_BATCH, retire)
        if retire:  # X0 retired by Y0; Y1 admits 3, retires them
            limit, full, cut = 1, [1, 0, 1, 2, 3, 0], [1, 0, 1]
        else:  # X0..X3 all contain Y1, and stay until the end
            limit, full, cut = 2, [1, 2, 3, 4, 0], [1, 2]
        assert observed(swept)[2] == full
        assert observed(swept, limit) == (
            "overflow",
            str(_overflow(limit)),
            cut,
        )


def deep_spans(seed, n=300):
    """Deep-state-shaped sides: one arrival per 2 chronons, X on even
    chronons lasting 400-500, Y on odd ones lasting 480 — a couple of
    hundred X live at once, no start shared (nothing held back), and
    the last X starting after the last Y, so every probe runs."""
    rng = random.Random(seed)
    x_spans = [(2 * k, 2 * k + rng.randint(400, 500)) for k in range(n)]
    y_spans = [(2 * k + 1, 2 * k + 481) for k in range(n - 1)]
    return x_spans, y_spans


class TestTheSweepDoesItsWorkPerProbe:
    """What the held-X join calls, counted with the profiler: one
    ``bisect_right`` per stored X and per probe's cut, one more only at
    a probe whose store head is dead, and a sort only for a run of two
    or more."""

    @pytest.fixture(scope="class")
    def sweep(self):
        x_spans, y_spans = deep_spans(2008)
        swept, calls = c_calls(kernel_run(x_spans, y_spans, False), None, None)
        pairs, counts = charged(x_spans, y_spans, retire=False)
        assert swept == (pairs, counts)
        return x_spans, y_spans, pairs, counts, calls

    def test_the_input_is_deep(self, sweep):
        x_spans, y_spans, pairs, counts, _ = sweep
        assert counts["high_water"] > 200
        assert len(pairs) > len(y_spans)

    def test_bisects_once_per_store_and_cut_and_dead_head(self, sweep):
        x_spans, y_spans, _, counts, calls = sweep
        y_ts = [yts for yts, _ in y_spans]
        stored = sum(
            1
            for xts, xte in x_spans
            if (at := bisect.bisect_right(y_ts, xts)) < len(y_ts)
            and xte > y_ts[at]
        )
        # A stored X dies at probe j when ``y[j-1].TS < X.TE <= y[j].TS``
        # (it was alive at the probe before, and admitted by then).
        dead_heads = sum(
            any(
                xts < y_ts[j - 1] < xte <= y_ts[j]
                for xts, xte in x_spans
            )
            for j in range(1, len(y_ts))
        )
        probes = len(y_ts)
        assert stored == counts["inserted"]
        assert 0 < dead_heads < probes
        assert calls["bisect_right"] == stored + probes + dead_heads

    def test_sorts_only_runs_of_two_or_more(self, sweep):
        _, _, pairs, _, calls = sweep
        runs = [
            len(list(run))
            for _, run in itertools.groupby(pairs, key=lambda pair: pair[1])
        ]
        assert runs.count(1) and len(runs) > runs.count(1)
        assert calls["list.sort"] == len(runs) - runs.count(1)
