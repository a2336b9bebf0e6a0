"""The batch kernels' endpoint-event sweep: the two-column slot store's
ordering laws, every slot-store sweep's counts and the tuple oracle's
on the same fixtures frozen in golden tables, the whole int64 range
against an independent implementation, one kernel per cell in the
cell table, lazy payload materialisation, endpoint-only column
execution, and the slot-store bound declarations."""

from array import array
from bisect import bisect_right
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tables import FUSED_BOUNDS, derive_fused_bound
from repro.columnar import ColumnarProcessor, SweepStats, fused, kernels
from repro.columnar.backend import CELLS, LazyPairs
from repro.errors import WorkspaceOverflowError
from repro.model import (
    TE_ASC,
    TE_DESC,
    TS_ASC,
    TemporalTuple,
    sort_tuples,
)
from repro.streams import (
    TemporalOperator,
    TupleStream,
    lookup,
    supported_entries,
)
from repro.streams.processors import (
    BeforeJoinSweep,
    ContainJoinTsTe,
    ContainJoinTsTs,
    UnboundedStateJoin,
    contain_predicate,
)
from repro.streams.registry import _registry

#: Endpoints cover negatives: the time-reversal mirrors feed negated
#: columns through the same kernels.
times = st.integers(min_value=-(10**6), max_value=10**6)

#: Random interval workloads as parallel sorted endpoint columns.
interval_columns = st.lists(
    st.tuples(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=1, max_value=40),
    ),
    max_size=50,
).map(
    lambda spans: (
        [a for a, _ in sorted(spans)],
        [a + d for a, d in sorted(spans)],
    )
)


def by_ts(spans):
    """``(ts, te)`` spans as columns in ValidFrom^ order."""
    rows = sorted(spans)
    return [ts for ts, _ in rows], [te for _, te in rows]


def by_te(spans):
    """``(ts, te)`` spans as columns in ValidTo^ order."""
    rows = sorted(spans, key=lambda span: (span[1], span[0]))
    return [ts for ts, _ in rows], [te for _, te in rows]


def mirrored(spans):
    """Time reversal, ``[ts, te)`` to ``[-te, -ts)``."""
    return [(-te, -ts) for ts, te in spans]


#: Every kernel with a slot store -> the order each operand arrives in
#: (``None``: the kernel is unary).
STORING_KERNELS = {
    "contain_join_ts_ts": (by_ts, by_ts),
    "contain_join_ts_te": (by_ts, by_te),
    "contain_semijoin_ts_ts": (by_ts, by_ts),
    "contained_semijoin_ts_ts": (by_ts, by_ts),
    "overlap_join_ts_ts": (by_ts, by_ts),
    "self_contain_semijoin_ts": (by_ts, None),
}


def sweep(name, xs, ys):
    """One storing kernel on spans: ``(output, the five SweepStats
    counts, the trace)``."""
    x_order, y_order = STORING_KERNELS[name]
    columns = list(x_order(xs))
    if y_order is not None:
        columns += y_order(ys)
    trace = []
    out, stats = getattr(kernels, name)(*columns, trace=trace)
    counts = tuple(getattr(stats, field) for field in SweepStats.__slots__)
    return out, counts, trace


def tuple_positions(name, xs, ys):
    """The tuple processor of ``name``'s cell on the columns
    :func:`sweep` hands the kernel, its output as column positions:
    an implementation that shares no code with the batch kernels."""
    (cell,) = [c for c in CELLS.values() if c.kernel.__name__ == name]
    x_order, y_order = STORING_KERNELS[name]
    entry = lookup(cell.operator, cell.x_order, cell.y_order)
    streams = [
        TupleStream.from_tuples(
            [
                TemporalTuple(row, row, ts, te)
                for row, (ts, te) in enumerate(zip(*order(spans)))
            ],
            order=declared,
            name=role,
        )
        for order, spans, declared, role in (
            (x_order, xs, cell.x_order, "X"),
            (y_order, ys, cell.y_order, "Y"),
        )
        if order is not None
    ]
    out = entry.build(*streams, backend="tuple").run()
    if cell.shape == "join":
        return [x.surrogate for x, _ in out], [y.surrogate for _, y in out]
    return [x.surrogate for x in out]


class TestEntryKeys:
    """The slot store is two columns, disposal endpoints and row
    positions, with nothing packed: these are the two ordering laws the
    kernels' ``bisect_right`` inserts, evictions and probes rest on."""

    @staticmethod
    def store_of(endpoints):
        """Rows ``0..n-1`` inserted in position order the way every
        storing kernel inserts: ``bisect_right`` on the endpoint."""
        ends, rows = [], []
        for row, end in enumerate(endpoints):
            at = bisect_right(ends, end)
            ends.insert(at, end)
            rows.insert(at, row)
        return ends, rows

    @given(
        st.lists(
            st.integers(-3, 3) | st.integers(-(2**63), 2**63 - 1),
            max_size=40,
        )
    )
    def test_order_preserving(self, endpoints):
        """Searching the endpoint alone keeps the store sorted exactly
        like ``(endpoint, position)`` tuples — equal endpoints sit in
        insertion order, which is position order — over the whole
        int64 range, negative (mirrored) endpoints included."""
        ends, rows = self.store_of(endpoints)
        assert list(zip(ends, rows)) == sorted(
            (end, row) for row, end in enumerate(endpoints)
        )

    @given(st.lists(times, max_size=40), times)
    def test_disposal_bound_splits_store(self, endpoints, t):
        """bisect at ``t`` == count of entries with endpoint <= t — the
        Section-4.2 disposal prefix — and the rows above it are exactly
        the entries a probe at ``t`` still sees."""
        ends, rows = self.store_of(endpoints)
        k = bisect_right(ends, t)
        assert k == sum(1 for end in endpoints if end <= t)
        assert sorted(rows[:k]) == [
            row for row, end in enumerate(endpoints) if end <= t
        ]
        assert all(end > t for end in ends[k:])


# ----------------------------------------------------------------------
# counts frozen across commits
# ----------------------------------------------------------------------
#: One adversarial workload: X and Y starts that tie with each other
#: (the holdback fires at 5, 10 and 20), entries dead on arrival
#: ((0, 3), (2, 4) before the first Y start they could meet), equal end
#: times on both sides (8, 15, 30), ends equal to a later start (30, 40),
#: and one interval per side spanning everything.
GOLDEN_X = [
    (-10, 200), (0, 3), (0, 100), (2, 4), (5, 8), (5, 9), (5, 30), (7, 8),
    (10, 12), (10, 15), (11, 15), (20, 21), (20, 40), (26, 30), (30, 45),
    (41, 42), (60, 61),
]
GOLDEN_Y = [
    (-5, 150), (5, 8), (5, 8), (5, 20), (6, 7), (10, 12), (10, 15),
    (12, 15), (20, 25), (20, 30), (27, 30), (30, 40), (40, 41), (50, 99),
]
GOLDEN_FIXTURES = {
    "adversarial": (GOLDEN_X, GOLDEN_Y),
    "reversed": (mirrored(GOLDEN_X), mirrored(GOLDEN_Y)),
    "empty-x": ([], GOLDEN_Y),
    "empty-y": (GOLDEN_X, []),
}

#: (kernel, fixture) -> (SweepStats counts, Figure-5 trace, output): what
#: "no pinned count moving" means between commits, where the benchmark
#: only checks that counts repeat between rounds.  Traces and outputs
#: are as the packed-key kernels of commit a0c234f produced them.  The
#: counts are the probe-scan charge: the Contain family's as the
#: columnar probe-scan kernels (active lists compacted by the scan)
#: produced them before that family shared one slot-store sweep; the
#: Overlap-join's as its probe scan charges them, which the deleted
#: slot-store Overlap-join matched in everything but eviction checks.
GOLDEN = {
    ("contain_join_ts_ts", "adversarial"): (
        (76, 10, 12, 12, 7),
        [1, 2, 3, 4, 5, 6, 7, 5, 6, 5, 6, 7, 5, 6, 5, 6, 4, 3, 2, 0],
        (
            [0, 0, 2, 0, 2, 0, 2, 0, 2, 4, 5, 6, 0, 2, 6, 0, 2, 6, 0, 2, 6,
             0, 2, 6, 0, 2, 0, 2, 12, 0, 2, 0, 2, 14, 0, 2],
            [0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7,
             8, 8, 8, 9, 9, 10, 10, 10, 11, 11, 12, 12, 12, 13, 13],
        ),
    ),
    ("contain_join_ts_ts", "reversed"): (
        (75, 7, 12, 12, 9),
        [1, 2, 3, 4, 5, 6, 5, 4, 3, 4, 5, 6, 7, 8, 9, 6, 5, 0],
        (
            [0, 0, 1, 0, 1, 3, 0, 1, 0, 1, 5, 0, 1, 0, 1, 7, 0, 1, 0, 1, 7,
             0, 1, 7, 0, 1, 7, 0, 1, 0, 1, 0, 1, 7, 12, 14],
            [0, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6, 6, 6, 7, 7, 8, 8, 8,
             9, 9, 9, 10, 10, 10, 11, 11, 12, 12, 13, 13, 13, 13, 13],
        ),
    ),
    ("contain_join_ts_ts", "empty-x"): (
        (0, 0, 0, 0, 0), [], ([], []),
    ),
    ("contain_join_ts_ts", "empty-y"): (
        (0, 0, 0, 0, 0), [], ([], []),
    ),
    ("contain_join_ts_te", "adversarial"): (
        (69, 11, 12, 12, 6),
        [1, 2, 3, 4, 5, 6, 4, 5, 6, 5, 3, 4, 5, 4, 5, 4, 3, 4, 2, 1, 0],
        (
            [0, 2, 4, 5, 6, 0, 2, 0, 2, 0, 2, 6, 0, 2, 6, 0, 2, 6, 0, 2, 0,
             2, 6, 0, 2, 0, 2, 12, 0, 2, 0, 2, 14, 0, 2, 0],
            [0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7,
             7, 7, 8, 8, 9, 9, 9, 10, 10, 11, 11, 11, 12, 12, 13],
        ),
    ),
    ("contain_join_ts_te", "reversed"): (
        (63, 10, 11, 11, 6),
        [1, 2, 3, 4, 5, 6, 5, 3, 4, 5, 6, 3, 4, 5, 2, 1, 0],
        (
            [0, 1, 0, 1, 3, 0, 1, 0, 1, 5, 0, 1, 0, 1, 7, 0, 1, 7, 0, 1, 7,
             0, 1, 7, 0, 1, 7, 12, 14, 0, 1, 0, 1, 0, 1, 0],
            [0, 0, 1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7,
             8, 8, 8, 9, 9, 9, 9, 9, 10, 10, 11, 11, 12, 12, 13],
        ),
    ),
    ("contain_join_ts_te", "empty-x"): (
        (0, 0, 0, 0, 0), [], ([], []),
    ),
    ("contain_join_ts_te", "empty-y"): (
        (0, 0, 0, 0, 0), [], ([], []),
    ),
    ("contain_semijoin_ts_ts", "adversarial"): (
        (44, 5, 12, 12, 4),
        [1, 0, 1, 2, 3, 4, 3, 0, 1, 2, 3, 2, 3, 4, 2, 3, 1, 2, 1, 0],
        [0, 2, 4, 5, 6, 12, 14],
    ),
    ("contain_semijoin_ts_ts", "reversed"): (
        (40, 5, 12, 12, 6),
        [1, 0, 1, 0, 1, 0, 1, 2, 3, 2, 0, 1, 2, 3, 4, 5, 6, 3, 0],
        [0, 1, 3, 5, 7, 12, 14],
    ),
    ("contain_semijoin_ts_ts", "empty-x"): (
        (0, 0, 0, 0, 0), [], [],
    ),
    ("contain_semijoin_ts_ts", "empty-y"): (
        (0, 0, 0, 0, 0), [], [],
    ),
    ("contained_semijoin_ts_ts", "adversarial"): (
        (40, 6, 8, 8, 4),
        [1, 2, 3, 4, 2, 3, 4, 1, 2, 1, 2, 0],
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    ),
    ("contained_semijoin_ts_ts", "reversed"): (
        (40, 5, 6, 6, 4),
        [1, 2, 1, 2, 3, 4, 2, 3, 2, 1, 0],
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    ),
    ("contained_semijoin_ts_ts", "empty-x"): (
        (0, 0, 0, 0, 0), [], [],
    ),
    ("contained_semijoin_ts_ts", "empty-y"): (
        (0, 0, 0, 0, 0), [], [],
    ),
    ("overlap_join_ts_ts", "adversarial"): (
        (86, 26, 30, 30, 10),
        [1, 2, 3, 4, 5, 6, 7, 8, 6, 7, 8, 9, 10, 9, 10, 8, 9, 10, 7, 8, 9,
         10, 9, 10, 6, 7, 8, 6, 7, 8, 7, 8, 7, 8, 6, 7, 5, 6, 5, 6, 4, 5, 3,
         4, 0],
        (
            [0, 1, 2, 3, 4, 5, 6, 0, 2, 4, 5, 6, 0, 2, 4, 5, 6, 0, 2, 4, 5,
             6, 0, 2, 4, 5, 6, 7, 7, 7, 7, 8, 8, 9, 9, 0, 2, 6, 8, 9, 0, 2,
             6, 8, 9, 10, 10, 10, 10, 0, 2, 6, 9, 10, 11, 12, 0, 2, 6, 11,
             12, 0, 2, 6, 11, 12, 13, 13, 0, 2, 6, 12, 13, 14, 0, 2, 12, 14,
             0, 2, 14, 15, 0, 2, 16, 16],
            [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3,
             3, 4, 4, 4, 4, 4, 0, 1, 2, 3, 0, 3, 0, 3, 5, 5, 5, 5, 5, 6, 6,
             6, 6, 6, 0, 3, 5, 6, 7, 7, 7, 7, 7, 0, 0, 8, 8, 8, 8, 8, 9, 9,
             9, 9, 9, 0, 9, 10, 10, 10, 10, 10, 0, 11, 11, 11, 11, 12, 12,
             12, 0, 13, 13, 0, 13],
        ),
    ),
    ("overlap_join_ts_ts", "reversed"): (
        (86, 23, 29, 29, 11),
        [1, 2, 3, 4, 5, 4, 5, 6, 4, 5, 4, 5, 6, 5, 6, 7, 6, 7, 8, 7, 8, 7,
         8, 6, 7, 5, 6, 7, 8, 9, 8, 9, 10, 8, 9, 10, 11, 8, 9, 10, 9, 10, 6,
         0],
        (
            [0, 1, 0, 1, 2, 2, 3, 4, 0, 1, 3, 5, 0, 1, 3, 5, 6, 7, 0, 1, 5,
             6, 7, 0, 1, 5, 6, 7, 0, 1, 5, 7, 8, 8, 8, 0, 1, 7, 9, 9, 10,
             10, 0, 1, 7, 9, 10, 0, 1, 7, 9, 10, 11, 11, 11, 0, 1, 7, 9, 10,
             11, 12, 12, 13, 13, 14, 14, 0, 1, 7, 12, 13, 14, 0, 1, 7, 12,
             13, 14, 0, 1, 7, 12, 14, 15, 16],
            [0, 0, 1, 1, 0, 1, 0, 0, 2, 2, 2, 0, 3, 3, 3, 3, 0, 0, 4, 4, 4,
             4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 6, 0, 5, 6, 7, 7, 7, 0, 7, 0, 7,
             8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 0, 7, 9, 10, 10, 10, 10, 10, 10,
             0, 7, 0, 7, 0, 7, 11, 11, 11, 11, 11, 11, 12, 12, 12, 12, 12,
             12, 13, 13, 13, 13, 13, 0, 0],
        ),
    ),
    ("overlap_join_ts_ts", "empty-x"): (
        (0, 0, 0, 0, 0), [], ([], []),
    ),
    ("overlap_join_ts_ts", "empty-y"): (
        (0, 0, 0, 0, 0), [], ([], []),
    ),
    ("self_contain_semijoin_ts", "adversarial"): (
        (16, 10, 17, 17, 3),
        [1, 0, 1, 2, 1, 2, 0, 1, 2, 3, 1, 2, 0, 1, 2, 3, 0, 1, 2, 0, 1, 0,
         1, 0, 1, 0, 1, 0],
        [0, 2, 5, 6, 12, 14],
    ),
    ("self_contain_semijoin_ts", "reversed"): (
        (12, 9, 17, 17, 3),
        [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 0, 1, 0, 1, 2, 3, 0, 1,
         0, 1, 2, 0, 1, 2, 0],
        [0, 1, 3, 5, 7, 12],
    ),
    ("self_contain_semijoin_ts", "empty-x"): (
        (0, 0, 0, 0, 0), [], [],
    ),
    ("self_contain_semijoin_ts", "empty-y"): (
        (16, 10, 17, 17, 3),
        [1, 0, 1, 2, 1, 2, 0, 1, 2, 3, 1, 2, 0, 1, 2, 3, 0, 1, 2, 0, 1, 0,
         1, 0, 1, 0, 1, 0],
        [0, 2, 5, 6, 12, 14],
    ),
}


def _tuple_cases():
    """label -> (factory, x order, y order or ``None``) for every tuple
    processor cell: each supported registry entry (a mirrored one as
    ``mirror(<label>)``; the order-free Before-semijoin under its own
    row's orders only), the Contain-join cells under their 1/lambda
    policy, and the two sweeps no cell runs."""
    cases = {}
    for operator in TemporalOperator:
        for entry in supported_entries(operator):
            cell = entry.cell
            orders = (entry.x_order, entry.y_order)
            if entry.order_free and orders != (cell.x_order, cell.y_order):
                continue
            label = f"mirror({cell.label})" if entry.mirrored else cell.label
            cases[label] = (entry.build, entry.x_order, entry.y_order)
    for processor, y_order in (
        (ContainJoinTsTs, TS_ASC), (ContainJoinTsTe, TE_ASC)
    ):
        cases[f"{processor.operator} lambda"] = (
            lambda x, y, cls=processor: cls(
                x, y, policy=cls.lambda_policy(3.0, 1.5)
            ),
            TS_ASC,
            y_order,
        )
    cases[BeforeJoinSweep.operator] = (BeforeJoinSweep, TS_ASC, TS_ASC)
    cases[UnboundedStateJoin.operator] = (
        lambda x, y: UnboundedStateJoin(x, y, contain_predicate),
        TS_ASC,
        TE_ASC,
    )
    return cases


TUPLE_CASES = _tuple_cases()


def tuple_run(label, xs, ys):
    """One tuple processor on spans (a tuple's surrogate is its span's
    position in the fixture): ``(comparisons, inserted, discarded,
    high water)``, the meter's Figure-5 trace and the output in
    emission order — X surrogates, or X and Y surrogate columns."""
    factory, x_order, y_order = TUPLE_CASES[label]
    streams = [
        TupleStream.from_tuples(
            sort_tuples(
                [
                    TemporalTuple(row, row, ts, te)
                    for row, (ts, te) in enumerate(spans)
                ],
                order,
            ),
            order=order,
            name=role,
        )
        for spans, order, role in ((xs, x_order, "X"), (ys, y_order, "Y"))
        if order is not None
    ]
    processor = factory(*streams)
    processor.meter.enable_trace()
    out = processor.run()
    metrics = processor.metrics
    workspace = metrics.workspace
    counts = (
        metrics.comparisons,
        workspace.total_inserted,
        workspace.total_discarded,
        workspace.high_water,
    )
    if out and isinstance(out[0], tuple):
        out = ([x.surrogate for x, _ in out], [y.surrogate for _, y in out])
    else:
        out = [x.surrogate for x in out]
    return counts, processor.meter.trace, out


#: (tuple processor label, fixture) -> (counts, Figure-5 trace, output)
#: as :func:`tuple_run` reads them: the paper's own counts, frozen at the
#: tuple-at-a-time sweep that probed and evicted one tuple per call.
TUPLE_GOLDEN = {
    ("contain-join[TS^,TS^]", "adversarial"): (
        (60, 30, 30, 6),
        [0, 1, 2, 1, 2, 1, 2, 3, 2, 3, 4, 5, 6, 5, 6, 5, 6, 5, 6, 4, 3, 4, 3,
         4, 5, 6, 5, 6, 5, 4, 5, 6, 4, 3, 4, 5, 6, 5, 6, 5, 4, 5, 6, 4, 3, 4,
         5, 4, 3, 4, 3, 2, 3, 2, 3, 1, 0],
        (
            [0, 0, 2, 0, 2, 0, 2, 0, 2, 4, 5, 6, 0, 2, 6, 0, 2, 6, 0, 2, 6, 0,
             2, 6, 0, 2, 0, 2, 12, 0, 2, 0, 2, 14, 0, 2],
            [0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8,
             8, 8, 9, 9, 10, 10, 10, 11, 11, 12, 12, 12, 13, 13],
        ),
    ),
    ("contain-join[TS^,TS^]", "reversed"): (
        (60, 29, 29, 7),
        [0, 1, 2, 1, 2, 3, 2, 3, 2, 3, 4, 3, 4, 3, 4, 5, 4, 3, 4, 5, 6, 5, 6,
         5, 4, 5, 4, 3, 4, 3, 4, 3, 4, 5, 6, 5, 6, 5, 6, 7, 4, 3, 4, 5, 6, 7,
         6, 7, 6, 5, 6, 1, 0],
        (
            [0, 0, 2, 0, 2, 14, 0, 2, 0, 2, 0, 2, 12, 0, 2, 6, 0, 2, 0, 2, 6,
             0, 2, 6, 0, 2, 6, 0, 2, 0, 2, 0, 2, 6, 5, 4],
            [0, 13, 13, 12, 12, 12, 11, 11, 9, 9, 10, 10, 10, 8, 8, 8, 3, 3, 6,
             6, 6, 7, 7, 7, 5, 5, 5, 1, 1, 2, 2, 4, 4, 4, 4, 4],
        ),
    ),
    ("contain-join[TS^,TS^]", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("contain-join[TS^,TS^]", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("contain-join[TS^,TE^]", "adversarial"): (
        (52, 29, 29, 7),
        [0, 1, 2, 1, 2, 3, 2, 3, 4, 5, 6, 7, 5, 4, 5, 4, 5, 4, 3, 4, 3, 4, 5,
         6, 4, 3, 4, 3, 4, 3, 4, 5, 6, 5, 4, 5, 4, 3, 4, 3, 4, 5, 4, 5, 4, 3,
         4, 3, 4, 5, 3, 2, 3, 2, 1, 0],
        (
            [0, 2, 4, 5, 6, 0, 2, 0, 2, 0, 2, 6, 0, 2, 6, 0, 2, 6, 0, 2, 0, 2,
             6, 0, 2, 0, 2, 12, 0, 2, 0, 2, 14, 0, 2, 0],
            [4, 4, 4, 4, 4, 1, 1, 2, 2, 5, 5, 5, 6, 6, 6, 7, 7, 7, 3, 3, 8, 8,
             8, 9, 9, 10, 10, 10, 11, 11, 12, 12, 12, 13, 13, 0],
        ),
    ),
    ("contain-join[TS^,TE^]", "reversed"): (
        (46, 30, 30, 7),
        [0, 1, 2, 3, 2, 3, 2, 3, 4, 3, 4, 5, 4, 3, 4, 5, 6, 5, 6, 4, 3, 4, 3,
         4, 3, 4, 3, 4, 5, 6, 7, 4, 3, 4, 3, 4, 3, 4, 5, 6, 5, 6, 3, 2, 3, 2,
         3, 2, 3, 2, 1, 2, 1, 2, 1, 0],
        (
            [0, 2, 0, 2, 14, 0, 2, 0, 2, 12, 0, 2, 6, 0, 2, 0, 2, 6, 0, 2, 6,
             0, 2, 6, 0, 2, 6, 5, 4, 0, 2, 0, 2, 0, 2, 0],
            [13, 13, 12, 12, 12, 11, 11, 10, 10, 10, 8, 8, 8, 9, 9, 7, 7, 7, 5,
             5, 5, 6, 6, 6, 4, 4, 4, 4, 4, 1, 1, 2, 2, 3, 3, 0],
        ),
    ),
    ("contain-join[TS^,TE^]", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("contain-join[TS^,TE^]", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("mirror(contain-join[TS^,TE^])", "adversarial"): (
        (46, 30, 30, 7),
        [0, 1, 2, 3, 2, 3, 2, 3, 4, 3, 4, 5, 4, 3, 4, 5, 6, 5, 6, 4, 3, 4, 3,
         4, 3, 4, 3, 4, 5, 6, 7, 4, 3, 4, 3, 4, 3, 4, 5, 6, 5, 6, 3, 2, 3, 2,
         3, 2, 3, 2, 1, 2, 1, 2, 1, 0],
        (
            [0, 2, 0, 2, 14, 0, 2, 0, 2, 12, 0, 2, 6, 0, 2, 0, 2, 6, 0, 2, 6,
             0, 2, 6, 0, 2, 6, 5, 4, 0, 2, 0, 2, 0, 2, 0],
            [13, 13, 12, 12, 12, 11, 11, 10, 10, 10, 8, 8, 8, 9, 9, 7, 7, 7, 5,
             5, 5, 6, 6, 6, 4, 4, 4, 4, 4, 1, 1, 2, 2, 3, 3, 0],
        ),
    ),
    ("mirror(contain-join[TS^,TE^])", "reversed"): (
        (52, 29, 29, 7),
        [0, 1, 2, 1, 2, 3, 2, 3, 4, 5, 6, 7, 5, 4, 5, 4, 5, 4, 3, 4, 3, 4, 5,
         6, 4, 3, 4, 3, 4, 3, 4, 5, 6, 5, 4, 5, 4, 3, 4, 3, 4, 5, 4, 5, 4, 3,
         4, 3, 4, 5, 3, 2, 3, 2, 1, 0],
        (
            [0, 2, 4, 5, 6, 0, 2, 0, 2, 0, 2, 6, 0, 2, 6, 0, 2, 6, 0, 2, 0, 2,
             6, 0, 2, 0, 2, 12, 0, 2, 0, 2, 14, 0, 2, 0],
            [4, 4, 4, 4, 4, 1, 1, 2, 2, 5, 5, 5, 6, 6, 6, 7, 7, 7, 3, 3, 8, 8,
             8, 9, 9, 10, 10, 10, 11, 11, 12, 12, 12, 13, 13, 0],
        ),
    ),
    ("mirror(contain-join[TS^,TE^])", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("mirror(contain-join[TS^,TE^])", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("mirror(contain-join[TS^,TS^])", "adversarial"): (
        (60, 29, 29, 7),
        [0, 1, 2, 1, 2, 3, 2, 3, 2, 3, 4, 3, 4, 3, 4, 5, 4, 3, 4, 5, 6, 5, 6,
         5, 4, 5, 4, 3, 4, 3, 4, 3, 4, 5, 6, 5, 6, 5, 6, 7, 4, 3, 4, 5, 6, 7,
         6, 7, 6, 5, 6, 1, 0],
        (
            [0, 0, 2, 0, 2, 14, 0, 2, 0, 2, 0, 2, 12, 0, 2, 6, 0, 2, 0, 2, 6,
             0, 2, 6, 0, 2, 6, 0, 2, 0, 2, 0, 2, 6, 5, 4],
            [0, 13, 13, 12, 12, 12, 11, 11, 9, 9, 10, 10, 10, 8, 8, 8, 3, 3, 6,
             6, 6, 7, 7, 7, 5, 5, 5, 1, 1, 2, 2, 4, 4, 4, 4, 4],
        ),
    ),
    ("mirror(contain-join[TS^,TS^])", "reversed"): (
        (60, 30, 30, 6),
        [0, 1, 2, 1, 2, 1, 2, 3, 2, 3, 4, 5, 6, 5, 6, 5, 6, 5, 6, 4, 3, 4, 3,
         4, 5, 6, 5, 6, 5, 4, 5, 6, 4, 3, 4, 5, 6, 5, 6, 5, 4, 5, 6, 4, 3, 4,
         5, 4, 3, 4, 3, 2, 3, 2, 3, 1, 0],
        (
            [0, 0, 2, 0, 2, 0, 2, 0, 2, 4, 5, 6, 0, 2, 6, 0, 2, 6, 0, 2, 6, 0,
             2, 6, 0, 2, 0, 2, 12, 0, 2, 0, 2, 14, 0, 2],
            [0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8,
             8, 8, 9, 9, 10, 10, 10, 11, 11, 12, 12, 12, 13, 13],
        ),
    ),
    ("mirror(contain-join[TS^,TS^])", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("mirror(contain-join[TS^,TS^])", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("contain-semijoin[TS^,TS^]", "adversarial"): (
        (28, 16, 16, 4),
        [0, 1, 0, 1, 0, 1, 2, 1, 2, 3, 4, 3, 2, 1, 0, 1, 0, 1, 2, 1, 2, 0, 1,
         2, 1, 2, 1, 0, 1, 0, 1, 0],
        [0, 2, 4, 5, 6, 12, 14],
    ),
    ("contain-semijoin[TS^,TS^]", "reversed"): (
        (26, 15, 15, 3),
        [0, 1, 0, 1, 0, 1, 0, 1, 2, 1, 0, 1, 2, 3, 2, 1, 0, 1, 0, 1, 2, 3, 0,
         1, 2, 3, 2, 1, 0],
        [0, 2, 14, 12, 6, 5, 4],
    ),
    ("contain-semijoin[TS^,TS^]", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("contain-semijoin[TS^,TS^]", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("contain-semijoin[TS^,TE^]", "adversarial"): (
        (30, 0, 0, 0),
        [0],
        [0, 2, 4, 5, 6, 12, 14],
    ),
    ("contain-semijoin[TS^,TE^]", "reversed"): (
        (29, 0, 0, 0),
        [0],
        [0, 2, 14, 12, 6, 5, 4],
    ),
    ("contain-semijoin[TS^,TE^]", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("contain-semijoin[TS^,TE^]", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("mirror(contain-semijoin[TS^,TE^])", "adversarial"): (
        (29, 0, 0, 0),
        [0],
        [0, 2, 14, 12, 6, 5, 4],
    ),
    ("mirror(contain-semijoin[TS^,TE^])", "reversed"): (
        (30, 0, 0, 0),
        [0],
        [0, 2, 4, 5, 6, 12, 14],
    ),
    ("mirror(contain-semijoin[TS^,TE^])", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("mirror(contain-semijoin[TS^,TE^])", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("mirror(contain-semijoin[TS^,TS^])", "adversarial"): (
        (26, 15, 15, 3),
        [0, 1, 0, 1, 0, 1, 0, 1, 2, 1, 0, 1, 2, 3, 2, 1, 0, 1, 0, 1, 2, 3, 0,
         1, 2, 3, 2, 1, 0],
        [0, 2, 14, 12, 6, 5, 4],
    ),
    ("mirror(contain-semijoin[TS^,TS^])", "reversed"): (
        (28, 16, 16, 4),
        [0, 1, 0, 1, 0, 1, 2, 1, 2, 3, 4, 3, 2, 1, 0, 1, 0, 1, 2, 1, 2, 0, 1,
         2, 1, 2, 1, 0, 1, 0, 1, 0],
        [0, 2, 4, 5, 6, 12, 14],
    ),
    ("mirror(contain-semijoin[TS^,TS^])", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("mirror(contain-semijoin[TS^,TS^])", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("contained-semijoin[TS^,TS^]", "adversarial"): (
        (16, 14, 12, 5),
        [0, 1, 2, 3, 4, 5, 2, 3, 4, 1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 1, 2],
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    ),
    ("contained-semijoin[TS^,TS^]", "reversed"): (
        (16, 14, 13, 4),
        [0, 1, 2, 1, 2, 1, 2, 1, 2, 3, 4, 1, 2, 3, 4, 2, 3, 2, 1, 2, 3, 4, 1],
        [2, 16, 14, 15, 12, 6, 13, 11, 9, 10, 8, 5, 4, 7, 3, 1],
    ),
    ("contained-semijoin[TS^,TS^]", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("contained-semijoin[TS^,TS^]", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("mirror(contained-semijoin[TE^,TS^])", "adversarial"): (
        (17, 0, 0, 0),
        [0],
        [16, 15, 14, 13, 11, 12, 10, 8, 9, 7, 4, 5, 6, 3, 1, 2],
    ),
    ("mirror(contained-semijoin[TE^,TS^])", "reversed"): (
        (17, 0, 0, 0),
        [0],
        [1, 3, 4, 7, 5, 8, 9, 10, 11, 6, 13, 12, 15, 14, 16, 2],
    ),
    ("mirror(contained-semijoin[TE^,TS^])", "empty-x"): (
        (0, 0, 0, 0),
        [0],
        [],
    ),
    ("mirror(contained-semijoin[TE^,TS^])", "empty-y"): (
        (0, 0, 0, 0),
        [0],
        [],
    ),
    ("contained-semijoin[TE^,TS^]", "adversarial"): (
        (17, 0, 0, 0),
        [0],
        [1, 3, 4, 7, 5, 8, 9, 10, 11, 6, 13, 12, 15, 14, 16, 2],
    ),
    ("contained-semijoin[TE^,TS^]", "reversed"): (
        (17, 0, 0, 0),
        [0],
        [16, 15, 14, 13, 11, 12, 10, 8, 9, 7, 4, 5, 6, 3, 1, 2],
    ),
    ("contained-semijoin[TE^,TS^]", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("contained-semijoin[TE^,TS^]", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("mirror(contained-semijoin[TS^,TS^])", "adversarial"): (
        (16, 14, 13, 4),
        [0, 1, 2, 1, 2, 1, 2, 1, 2, 3, 4, 1, 2, 3, 4, 2, 3, 2, 1, 2, 3, 4, 1],
        [2, 16, 14, 15, 12, 6, 13, 11, 9, 10, 8, 5, 4, 7, 3, 1],
    ),
    ("mirror(contained-semijoin[TS^,TS^])", "reversed"): (
        (16, 14, 12, 5),
        [0, 1, 2, 3, 4, 5, 2, 3, 4, 1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 1, 2],
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    ),
    ("mirror(contained-semijoin[TS^,TS^])", "empty-x"): (
        (0, 0, 0, 0),
        [0],
        [],
    ),
    ("mirror(contained-semijoin[TS^,TS^])", "empty-y"): (
        (0, 0, 0, 0),
        [0],
        [],
    ),
    ("overlap-join[TS^,TS^]", "adversarial"): (
        (86, 30, 30, 10),
        [0, 1, 2, 3, 2, 3, 4, 3, 4, 5, 6, 7, 8, 9, 10, 8, 7, 8, 7, 5, 6, 7, 8,
         9, 8, 9, 6, 7, 5, 4, 5, 6, 7, 6, 7, 6, 7, 6, 7, 5, 4, 5, 6, 5, 4, 5,
         4, 3, 4, 3, 4, 2, 0],
        (
            [0, 1, 2, 3, 4, 5, 6, 0, 2, 4, 5, 6, 0, 2, 4, 5, 6, 0, 2, 4, 5, 6,
             0, 2, 4, 5, 6, 7, 7, 7, 7, 8, 8, 9, 9, 0, 2, 6, 8, 9, 0, 2, 6, 8,
             9, 10, 10, 10, 10, 0, 2, 6, 9, 10, 11, 12, 0, 2, 6, 11, 12, 0, 2,
             6, 11, 12, 13, 13, 0, 2, 6, 12, 13, 14, 0, 2, 12, 14, 0, 2, 14,
             15, 0, 2, 16, 16],
            [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3,
             4, 4, 4, 4, 4, 0, 1, 2, 3, 0, 3, 0, 3, 5, 5, 5, 5, 5, 6, 6, 6, 6,
             6, 0, 3, 5, 6, 7, 7, 7, 7, 7, 0, 0, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9,
             0, 9, 10, 10, 10, 10, 10, 0, 11, 11, 11, 11, 12, 12, 12, 0, 13,
             13, 0, 13],
        ),
    ),
    ("overlap-join[TS^,TS^]", "reversed"): (
        (86, 29, 29, 9),
        [0, 1, 2, 3, 4, 5, 4, 3, 4, 5, 4, 5, 4, 5, 6, 5, 4, 5, 6, 7, 8, 7, 6,
         7, 6, 7, 6, 4, 5, 6, 7, 8, 9, 8, 9, 8, 9, 6, 5, 6, 7, 8, 7, 8, 7, 8,
         7, 6, 7, 2, 1, 0],
        (
            [0, 2, 0, 2, 16, 16, 14, 15, 0, 2, 14, 12, 0, 2, 14, 12, 6, 13, 0,
             2, 12, 6, 13, 0, 2, 12, 6, 13, 0, 2, 12, 6, 11, 11, 11, 0, 2, 6,
             9, 9, 10, 10, 0, 2, 6, 9, 10, 0, 2, 6, 9, 10, 8, 8, 8, 0, 2, 6, 9,
             10, 8, 5, 5, 4, 4, 7, 7, 0, 2, 6, 5, 4, 7, 0, 2, 6, 5, 4, 7, 0, 2,
             6, 5, 4, 3, 1],
            [0, 0, 13, 13, 0, 13, 0, 0, 12, 12, 12, 0, 11, 11, 11, 11, 0, 0, 9,
             9, 9, 9, 9, 10, 10, 10, 10, 10, 8, 8, 8, 8, 0, 9, 8, 3, 3, 3, 0,
             3, 0, 3, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 0, 3, 6, 5, 5, 5, 5, 5, 5,
             0, 3, 0, 3, 0, 3, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4,
             4, 0, 0],
        ),
    ),
    ("overlap-join[TS^,TS^]", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("overlap-join[TS^,TS^]", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("mirror(overlap-join[TS^,TS^])", "adversarial"): (
        (86, 29, 29, 9),
        [0, 1, 2, 3, 4, 5, 4, 3, 4, 5, 4, 5, 4, 5, 6, 5, 4, 5, 6, 7, 8, 7, 6,
         7, 6, 7, 6, 4, 5, 6, 7, 8, 9, 8, 9, 8, 9, 6, 5, 6, 7, 8, 7, 8, 7, 8,
         7, 6, 7, 2, 1, 0],
        (
            [0, 2, 0, 2, 16, 16, 14, 15, 0, 2, 14, 12, 0, 2, 14, 12, 6, 13, 0,
             2, 12, 6, 13, 0, 2, 12, 6, 13, 0, 2, 12, 6, 11, 11, 11, 0, 2, 6,
             9, 9, 10, 10, 0, 2, 6, 9, 10, 0, 2, 6, 9, 10, 8, 8, 8, 0, 2, 6, 9,
             10, 8, 5, 5, 4, 4, 7, 7, 0, 2, 6, 5, 4, 7, 0, 2, 6, 5, 4, 7, 0, 2,
             6, 5, 4, 3, 1],
            [0, 0, 13, 13, 0, 13, 0, 0, 12, 12, 12, 0, 11, 11, 11, 11, 0, 0, 9,
             9, 9, 9, 9, 10, 10, 10, 10, 10, 8, 8, 8, 8, 0, 9, 8, 3, 3, 3, 0,
             3, 0, 3, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 0, 3, 6, 5, 5, 5, 5, 5, 5,
             0, 3, 0, 3, 0, 3, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4,
             4, 0, 0],
        ),
    ),
    ("mirror(overlap-join[TS^,TS^])", "reversed"): (
        (86, 30, 30, 10),
        [0, 1, 2, 3, 2, 3, 4, 3, 4, 5, 6, 7, 8, 9, 10, 8, 7, 8, 7, 5, 6, 7, 8,
         9, 8, 9, 6, 7, 5, 4, 5, 6, 7, 6, 7, 6, 7, 6, 7, 5, 4, 5, 6, 5, 4, 5,
         4, 3, 4, 3, 4, 2, 0],
        (
            [0, 1, 2, 3, 4, 5, 6, 0, 2, 4, 5, 6, 0, 2, 4, 5, 6, 0, 2, 4, 5, 6,
             0, 2, 4, 5, 6, 7, 7, 7, 7, 8, 8, 9, 9, 0, 2, 6, 8, 9, 0, 2, 6, 8,
             9, 10, 10, 10, 10, 0, 2, 6, 9, 10, 11, 12, 0, 2, 6, 11, 12, 0, 2,
             6, 11, 12, 13, 13, 0, 2, 6, 12, 13, 14, 0, 2, 12, 14, 0, 2, 14,
             15, 0, 2, 16, 16],
            [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3,
             4, 4, 4, 4, 4, 0, 1, 2, 3, 0, 3, 0, 3, 5, 5, 5, 5, 5, 6, 6, 6, 6,
             6, 0, 3, 5, 6, 7, 7, 7, 7, 7, 0, 0, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9,
             0, 9, 10, 10, 10, 10, 10, 0, 11, 11, 11, 11, 12, 12, 12, 0, 13,
             13, 0, 13],
        ),
    ),
    ("mirror(overlap-join[TS^,TS^])", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("mirror(overlap-join[TS^,TS^])", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("overlap-semijoin[TS^,TS^]", "adversarial"): (
        (17, 0, 0, 0),
        [0],
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    ),
    ("overlap-semijoin[TS^,TS^]", "reversed"): (
        (17, 0, 0, 0),
        [0],
        [0, 2, 16, 14, 15, 12, 6, 13, 11, 9, 10, 8, 5, 4, 7, 3, 1],
    ),
    ("overlap-semijoin[TS^,TS^]", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("overlap-semijoin[TS^,TS^]", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("mirror(overlap-semijoin[TS^,TS^])", "adversarial"): (
        (17, 0, 0, 0),
        [0],
        [0, 2, 16, 14, 15, 12, 6, 13, 11, 9, 10, 8, 5, 4, 7, 3, 1],
    ),
    ("mirror(overlap-semijoin[TS^,TS^])", "reversed"): (
        (17, 0, 0, 0),
        [0],
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    ),
    ("mirror(overlap-semijoin[TS^,TS^])", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("mirror(overlap-semijoin[TS^,TS^])", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("before-semijoin", "adversarial"): (
        (31, 0, 0, 0),
        [0],
        [1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    ),
    ("before-semijoin", "reversed"): (
        (31, 0, 0, 0),
        [0],
        [16, 14, 15, 12, 13, 11, 9, 10, 8],
    ),
    ("before-semijoin", "empty-x"): ((14, 0, 0, 0), [0], []),
    ("before-semijoin", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("contained-semijoin[X,X][TS^,TE^]", "adversarial"): (
        (16, 1, 0, 1),
        [0, 1],
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    ),
    ("contained-semijoin[X,X][TS^,TE^]", "reversed"): (
        (16, 1, 0, 1),
        [0, 1],
        [2, 16, 14, 15, 12, 13, 6, 11, 10, 9, 8, 5, 7, 4, 3, 1],
    ),
    ("contained-semijoin[X,X][TS^,TE^]", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("contained-semijoin[X,X][TS^,TE^]", "empty-y"): (
        (16, 1, 0, 1),
        [0, 1],
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    ),
    ("mirror(contained-semijoin[X,X][TS^,TE^])", "adversarial"): (
        (16, 1, 0, 1),
        [0, 1],
        [2, 16, 14, 15, 12, 13, 6, 11, 10, 9, 8, 5, 7, 4, 3, 1],
    ),
    ("mirror(contained-semijoin[X,X][TS^,TE^])", "reversed"): (
        (16, 1, 0, 1),
        [0, 1],
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    ),
    ("mirror(contained-semijoin[X,X][TS^,TE^])", "empty-x"): (
        (0, 0, 0, 0),
        [0],
        [],
    ),
    ("mirror(contained-semijoin[X,X][TS^,TE^])", "empty-y"): (
        (16, 1, 0, 1),
        [0, 1],
        [2, 16, 14, 15, 12, 13, 6, 11, 10, 9, 8, 5, 7, 4, 3, 1],
    ),
    ("contain-semijoin[X,X][TS^]", "adversarial"): (
        (16, 17, 16, 3),
        [0, 1, 0, 1, 2, 1, 2, 0, 1, 2, 3, 2, 1, 2, 0, 1, 2, 3, 0, 1, 2, 1, 0,
         1, 0, 1, 0, 1, 0, 1],
        [0, 2, 5, 6, 12, 14],
    ),
    ("contain-semijoin[X,X][TS^]", "reversed"): (
        (14, 17, 15, 3),
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 1, 2, 1, 0, 1, 0, 1, 2, 3, 0,
         1, 2, 1, 2, 0, 1, 2],
        [0, 2, 14, 12, 6, 5],
    ),
    ("contain-semijoin[X,X][TS^]", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("contain-semijoin[X,X][TS^]", "empty-y"): (
        (16, 17, 16, 3),
        [0, 1, 0, 1, 2, 1, 2, 0, 1, 2, 3, 2, 1, 2, 0, 1, 2, 3, 0, 1, 2, 1, 0,
         1, 0, 1, 0, 1, 0, 1],
        [0, 2, 5, 6, 12, 14],
    ),
    ("contain-semijoin[X,X][TSv,TEv]", "adversarial"): (
        (16, 9, 8, 1),
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
        [14, 12, 6, 5, 2, 0],
    ),
    ("contain-semijoin[X,X][TSv,TEv]", "reversed"): (
        (16, 10, 9, 1),
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
        [5, 6, 12, 14, 2, 0],
    ),
    ("contain-semijoin[X,X][TSv,TEv]", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("contain-semijoin[X,X][TSv,TEv]", "empty-y"): (
        (16, 9, 8, 1),
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
        [14, 12, 6, 5, 2, 0],
    ),
    ("mirror(contain-semijoin[X,X][TSv,TEv])", "adversarial"): (
        (16, 10, 9, 1),
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
        [5, 6, 12, 14, 2, 0],
    ),
    ("mirror(contain-semijoin[X,X][TSv,TEv])", "reversed"): (
        (16, 9, 8, 1),
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
        [14, 12, 6, 5, 2, 0],
    ),
    ("mirror(contain-semijoin[X,X][TSv,TEv])", "empty-x"): (
        (0, 0, 0, 0),
        [0],
        [],
    ),
    ("mirror(contain-semijoin[X,X][TSv,TEv])", "empty-y"): (
        (16, 10, 9, 1),
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
        [5, 6, 12, 14, 2, 0],
    ),
    ("mirror(contain-semijoin[X,X][TS^])", "adversarial"): (
        (14, 17, 15, 3),
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 1, 2, 1, 0, 1, 0, 1, 2, 3, 0,
         1, 2, 1, 2, 0, 1, 2],
        [0, 2, 14, 12, 6, 5],
    ),
    ("mirror(contain-semijoin[X,X][TS^])", "reversed"): (
        (16, 17, 16, 3),
        [0, 1, 0, 1, 2, 1, 2, 0, 1, 2, 3, 2, 1, 2, 0, 1, 2, 3, 0, 1, 2, 1, 0,
         1, 0, 1, 0, 1, 0, 1],
        [0, 2, 5, 6, 12, 14],
    ),
    ("mirror(contain-semijoin[X,X][TS^])", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("mirror(contain-semijoin[X,X][TS^])", "empty-y"): (
        (14, 17, 15, 3),
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 1, 2, 1, 0, 1, 0, 1, 2, 3, 0,
         1, 2, 1, 2, 0, 1, 2],
        [0, 2, 14, 12, 6, 5],
    ),
    ("contain-join[TS^,TS^] lambda", "adversarial"): (
        (58, 30, 30, 6),
        [0, 1, 2, 1, 2, 1, 2, 3, 2, 3, 4, 5, 6, 5, 6, 5, 6, 5, 6, 4, 3, 4, 3,
         4, 5, 6, 5, 6, 5, 4, 5, 6, 4, 3, 4, 5, 4, 5, 4, 3, 4, 5, 6, 4, 3, 4,
         5, 4, 3, 4, 3, 2, 3, 2, 3, 1, 0],
        (
            [0, 0, 2, 0, 2, 0, 2, 0, 2, 4, 5, 6, 0, 2, 6, 0, 2, 6, 0, 2, 6, 0,
             2, 6, 0, 2, 0, 2, 12, 0, 2, 0, 2, 14, 0, 2],
            [0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8,
             8, 8, 9, 9, 10, 10, 10, 11, 11, 12, 12, 12, 13, 13],
        ),
    ),
    ("contain-join[TS^,TS^] lambda", "reversed"): (
        (59, 29, 29, 7),
        [0, 1, 2, 1, 2, 3, 2, 3, 2, 3, 4, 3, 4, 3, 4, 5, 4, 3, 4, 5, 6, 5, 6,
         5, 4, 5, 4, 3, 4, 3, 4, 3, 4, 5, 6, 5, 6, 5, 6, 4, 3, 4, 3, 4, 5, 6,
         7, 6, 7, 6, 5, 6, 1, 0],
        (
            [0, 0, 2, 0, 2, 14, 0, 2, 0, 2, 0, 2, 12, 0, 2, 6, 0, 2, 0, 2, 6,
             0, 2, 6, 0, 2, 6, 0, 2, 0, 2, 0, 2, 6, 5, 4],
            [0, 13, 13, 12, 12, 12, 11, 11, 9, 9, 10, 10, 10, 8, 8, 8, 3, 3, 6,
             6, 6, 7, 7, 7, 5, 5, 5, 1, 1, 2, 2, 4, 4, 4, 4, 4],
        ),
    ),
    ("contain-join[TS^,TS^] lambda", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("contain-join[TS^,TS^] lambda", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("contain-join[TS^,TE^] lambda", "adversarial"): (
        (50, 30, 30, 6),
        [0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5, 4, 5, 4, 5, 4, 3, 4, 3, 4, 3, 4,
         5, 6, 4, 3, 4, 3, 4, 3, 4, 5, 4, 3, 4, 5, 4, 3, 4, 3, 4, 5, 4, 5, 4,
         3, 4, 3, 4, 5, 3, 2, 3, 2, 1, 2, 1, 0],
        (
            [0, 2, 4, 5, 6, 0, 2, 0, 2, 0, 2, 6, 0, 2, 6, 0, 2, 6, 0, 2, 0, 2,
             6, 0, 2, 0, 2, 12, 0, 2, 0, 2, 14, 0, 2, 0],
            [4, 4, 4, 4, 4, 1, 1, 2, 2, 5, 5, 5, 6, 6, 6, 7, 7, 7, 3, 3, 8, 8,
             8, 9, 9, 10, 10, 10, 11, 11, 12, 12, 12, 13, 13, 0],
        ),
    ),
    ("contain-join[TS^,TE^] lambda", "reversed"): (
        (46, 30, 30, 6),
        [0, 1, 2, 3, 2, 3, 2, 3, 4, 3, 4, 5, 4, 3, 4, 5, 6, 5, 6, 4, 3, 4, 3,
         4, 3, 4, 3, 4, 5, 6, 4, 3, 4, 3, 4, 3, 4, 3, 4, 3, 4, 3, 4, 3, 4, 3,
         2, 3, 2, 3, 2, 3, 2, 1, 2, 1, 2, 1, 0],
        (
            [0, 2, 0, 2, 14, 0, 2, 0, 2, 12, 0, 2, 6, 0, 2, 0, 2, 6, 0, 2, 6,
             0, 2, 6, 0, 2, 6, 5, 4, 0, 2, 0, 2, 0, 2, 0],
            [13, 13, 12, 12, 12, 11, 11, 10, 10, 10, 8, 8, 8, 9, 9, 7, 7, 7, 5,
             5, 5, 6, 6, 6, 4, 4, 4, 4, 4, 1, 1, 2, 2, 3, 3, 0],
        ),
    ),
    ("contain-join[TS^,TE^] lambda", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("contain-join[TS^,TE^] lambda", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("before-join[TS^,TS^]", "adversarial"): (
        (146, 30, 30, 17),
        [0, 1, 2, 1, 2, 3, 4, 5, 6, 7, 8, 7, 8, 7, 8, 7, 8, 7, 8, 9, 10, 11,
         10, 11, 10, 11, 12, 11, 12, 13, 14, 13, 14, 13, 14, 15, 14, 15, 16,
         15, 16, 15, 16, 17, 1, 0],
        (
            [1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 4, 5, 7, 1, 3, 4, 5, 7, 1, 3, 4, 5,
             7, 1, 3, 4, 5, 7, 8, 9, 10, 1, 3, 4, 5, 7, 8, 9, 10, 1, 3, 4, 5,
             7, 8, 9, 10, 11, 1, 3, 4, 5, 7, 8, 9, 10, 11, 1, 3, 4, 5, 6, 7, 8,
             9, 10, 11, 13, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
            [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 7, 7,
             7, 8, 8, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 9, 9, 9, 10, 10, 10, 10,
             10, 10, 10, 10, 10, 11, 11, 11, 11, 11, 11, 11, 11, 11, 12, 12,
             12, 12, 12, 12, 12, 12, 12, 12, 12, 13, 13, 13, 13, 13, 13, 13,
             13, 13, 13, 13, 13, 13, 13],
        ),
    ),
    ("before-join[TS^,TS^]", "reversed"): (
        (126, 29, 29, 16),
        [0, 1, 2, 1, 2, 3, 2, 3, 4, 5, 6, 5, 6, 7, 6, 7, 8, 9, 8, 9, 8, 9, 8,
         9, 10, 9, 10, 11, 12, 11, 12, 11, 12, 13, 12, 13, 14, 15, 16, 15, 16,
         15, 16, 1, 0],
        (
            [16, 16, 15, 16, 15, 16, 15, 16, 14, 15, 13, 16, 14, 15, 13, 16,
             14, 15, 12, 13, 11, 16, 14, 15, 12, 13, 11, 16, 14, 15, 12, 13,
             11, 16, 14, 15, 12, 13, 11, 9, 10, 8, 16, 14, 15, 12, 13, 11, 9,
             10, 8, 16, 14, 15, 12, 13, 11, 9, 10, 8],
            [12, 11, 11, 9, 9, 10, 10, 8, 8, 8, 8, 3, 3, 3, 3, 6, 6, 6, 6, 6,
             6, 7, 7, 7, 7, 7, 7, 5, 5, 5, 5, 5, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1,
             2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4],
        ),
    ),
    ("before-join[TS^,TS^]", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("before-join[TS^,TS^]", "empty-y"): ((0, 0, 0, 0), [0], []),
    ("unbounded-state-join", "adversarial"): (
        (238, 30, 30, 30),
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
         20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 14, 0],
        (
            [0, 2, 4, 5, 6, 0, 2, 0, 2, 0, 2, 6, 0, 2, 6, 0, 2, 6, 0, 2, 0, 2,
             6, 0, 2, 0, 2, 12, 0, 2, 0, 2, 14, 0, 2, 0],
            [4, 4, 4, 4, 4, 1, 1, 2, 2, 5, 5, 5, 6, 6, 6, 7, 7, 7, 3, 3, 8, 8,
             8, 9, 9, 10, 10, 10, 11, 11, 12, 12, 12, 13, 13, 0],
        ),
    ),
    ("unbounded-state-join", "reversed"): (
        (238, 29, 29, 29),
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
         20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 14, 0],
        (
            [0, 2, 0, 2, 14, 0, 2, 0, 2, 12, 0, 2, 6, 0, 2, 0, 2, 6, 0, 2, 6,
             0, 2, 6, 0, 2, 6, 5, 4, 0, 2, 0, 2, 0, 2, 0],
            [13, 13, 12, 12, 12, 11, 11, 10, 10, 10, 8, 8, 8, 9, 9, 7, 7, 7, 5,
             5, 5, 6, 6, 6, 4, 4, 4, 4, 4, 1, 1, 2, 2, 3, 3, 0],
        ),
    ),
    ("unbounded-state-join", "empty-x"): ((0, 0, 0, 0), [0], []),
    ("unbounded-state-join", "empty-y"): ((0, 0, 0, 0), [0], []),
}


class TestGoldenCounts:
    @pytest.mark.parametrize("fixture", GOLDEN_FIXTURES)
    @pytest.mark.parametrize("name", STORING_KERNELS)
    def test_kernel_reproduces_the_golden_row(self, name, fixture):
        out, counts, trace = sweep(name, *GOLDEN_FIXTURES[fixture])
        assert (counts, trace, out) == GOLDEN[name, fixture]

    @pytest.mark.parametrize("fixture", GOLDEN_FIXTURES)
    @pytest.mark.parametrize("label", TUPLE_CASES)
    def test_tuple_processor_reproduces_the_golden_row(
        self, label, fixture
    ):
        assert tuple_run(label, *GOLDEN_FIXTURES[fixture]) == (
            TUPLE_GOLDEN[label, fixture]
        )


# ----------------------------------------------------------------------
# the old packing limit is ordinary input
# ----------------------------------------------------------------------
WIDE = 2**62
LIMIT = 2**42  # the packed store took endpoints in [-LIMIT, LIMIT)


def _near(*anchors):
    """Endpoints clustered just above the anchors, so ties and nesting
    happen at the magnitudes under test."""
    return st.builds(
        int.__add__, st.sampled_from(anchors), st.integers(0, 64)
    )


#: Anywhere in +-2**62.
wide_times = st.one_of(
    _near(-WIDE, -LIMIT - 32, -(2**21), 0, 2**21, LIMIT - 32, WIDE - 64),
    st.integers(-WIDE, WIDE),
)
#: Outside what the packed store could hold.
refused_times = st.one_of(
    _near(-WIDE, -LIMIT - 65, LIMIT, WIDE - 64),
    st.integers(LIMIT, WIDE),
    st.integers(-WIDE, -LIMIT - 1),
)


def _spans(first):
    return st.lists(
        st.tuples(first, wide_times)
        .filter(lambda pair: pair[0] != pair[1])
        .map(lambda pair: (min(pair), max(pair))),
        max_size=30,
    )


wide_spans = _spans(wide_times)
#: Every interval has an endpoint the old pre-sweep check refused.
refused_spans = _spans(refused_times)


class TestPackingLimit:
    """A stored operand with an endpoint outside [-2**42, 2**42) used
    to be refused before the sweep (and, before that, died mid-sweep
    with a raw ``OverflowError``).  Nothing is packed now: the whole
    +-2**62 range, as given and under time reversal, runs and agrees
    with an independent implementation: the tuple processor."""

    @staticmethod
    def agree(name, xs, ys):
        for spans_x, spans_y in ((xs, ys), (mirrored(xs), mirrored(ys))):
            out, _, _ = sweep(name, spans_x, spans_y)
            assert out == tuple_positions(name, spans_x, spans_y)

    @pytest.mark.parametrize(
        "name, stored",
        [
            ("contain_join_ts_ts", "x"),
            ("contain_join_ts_te", "x"),
            ("contain_semijoin_ts_ts", "x"),
            ("contained_semijoin_ts_ts", "y"),
            ("overlap_join_ts_ts", "x"),
            ("overlap_join_ts_ts", "y"),
        ],
    )
    @given(kept=refused_spans, probing=wide_spans)
    @settings(max_examples=60, deadline=None)
    def test_boundary(self, name, stored, kept, probing):
        """``stored`` names the operand whose slot store holds the
        once-refused endpoints."""
        xs, ys = (kept, probing) if stored == "x" else (probing, kept)
        self.agree(name, xs, ys)

    @given(xs=refused_spans)
    @settings(max_examples=60, deadline=None)
    def test_self_kernel_boundary(self, xs):
        self.agree("self_contain_semijoin_ts", xs, [])

    @pytest.mark.parametrize("order", [TS_ASC, TE_DESC], ids=str)
    def test_processor_runs_the_old_reproduction(self, order):
        """The reproduction from the issue that introduced the limit,
        x_te = 2**50: every backend returns the row, on the cell and
        (time-reversed) on its mirror."""
        entry = lookup(TemporalOperator.CONTAIN_JOIN, order, order)
        spans = [(0, 2**50)], [(2, 5)]
        if order is TE_DESC:
            spans = map(mirrored, spans)
        (xs, ys) = (
            [TemporalTuple(name, 0, ts, te) for ts, te in side]
            for name, side in zip("xy", spans)
        )
        for backend in ("tuple", "columnar", "fused"):
            processor = entry.build(
                TupleStream.from_tuples(xs, order=order, name="X"),
                TupleStream.from_tuples(ys, order=order, name="Y"),
                backend=backend,
            )
            assert list(processor.run()) == [(xs[0], ys[0])]


class TestOneKernelPerCell:
    """Every batch run of a cell calls its one kernel, whichever batch
    label the plan carries."""

    def test_every_row_names_one_kernel(self):
        """The row's kernel resolves by name in :mod:`kernels` and in
        :mod:`fused` alike."""
        for label, cell in CELLS.items():
            name = cell.kernel.__name__
            assert getattr(kernels, name) is cell.kernel, label
            assert getattr(fused, name) is cell.kernel, label

    def test_every_reported_kernel_name_resolves(self):
        """What a processor reports as ``metrics.kernel`` is looked up
        by name in its backend's module (the benchmark's replay does):
        the row's one kernel, on both batch labels."""
        for cell in CELLS.values():
            streams = [
                TupleStream.from_tuples([], order=order, name=role)
                for order, role in ((cell.x_order, "X"), (cell.y_order, "Y"))
                if order is not None
            ]
            for backend, module in (("columnar", kernels), ("fused", fused)):
                reported = ColumnarProcessor(
                    cell, backend, *streams
                ).metrics.kernel
                assert getattr(module, reported) is cell.kernel


class TestLazyPairs:
    def _columns(self, n=6):
        x_ts = list(range(n))
        x_te = [t + 10 for t in x_ts]
        y_ts = [t + 1 for t in x_ts]
        y_te = [t + 2 for t in y_ts]
        columns, _ = kernels.contain_join_ts_ts(x_ts, x_te, y_ts, y_te)
        xp = [f"x{i}" for i in range(n)]
        yp = [f"y{j}" for j in range(n)]
        return columns, xp, yp

    def test_len_before_materialize(self):
        columns, xp, yp = self._columns()
        lazy = LazyPairs(columns, xp, yp)
        assert len(lazy) == len(columns[0]) > 0
        assert lazy.materialized is False  # len() touched nothing

    def test_materialises_on_iteration_and_caches(self):
        columns, xp, yp = self._columns()
        lazy = LazyPairs(columns, xp, yp)
        first = list(lazy)
        assert lazy.materialized is True
        assert list(lazy) is not first  # list() copies...
        assert lazy[0] == first[0]  # ...but the cache is shared
        assert len(first) == len(lazy)

    @given(interval_columns, interval_columns)
    @settings(max_examples=40)
    def test_len_matches_tuple_processor(self, xcols, ycols):
        """The length equals the tuple processor's pair count, without
        building a single payload pair."""
        x_ts, x_te = xcols
        y_ts, y_te = ycols
        columns, _ = kernels.contain_join_ts_ts(x_ts, x_te, y_ts, y_te)
        lazy = LazyPairs(columns, [None] * len(x_ts), [None] * len(y_ts))
        xs, ys = (list(zip(*side)) for side in (xcols, ycols))
        (exi, _) = tuple_positions("contain_join_ts_ts", xs, ys)
        assert len(lazy) == len(exi)
        assert lazy.materialized is False

    def test_equality_materialises(self):
        columns, xp, yp = self._columns()
        lazy = LazyPairs(columns, xp, yp)
        eager = list(LazyPairs(columns, xp, yp))
        assert lazy == eager
        assert lazy.materialized is True

    def test_index_columns_expand_the_runs_once(self):
        """The runs expand once, inside the kernel: on either batch
        label ``index_columns()`` hands back the kernel's own two
        lists — no copy, no conversion, however often it is asked —
        and a later ``list()`` gathers payloads through them."""
        cell = CELLS["contain-join[TS^,TS^]"]
        xs = [TemporalTuple(f"x{i}", i, i, i + 10) for i in range(6)]
        ys = [TemporalTuple(f"y{i}", i, i + 1, i + 3) for i in range(6)]
        for backend in ("columnar", "fused"):
            returned = []

            def spy(*columns, **options):
                returned.append(cell.kernel(*columns, **options))
                return returned[0]

            lazy = ColumnarProcessor(
                replace(cell, kernel=spy),
                backend,
                TupleStream.from_tuples(xs, order=TS_ASC, name="X"),
                TupleStream.from_tuples(ys, order=TS_ASC, name="Y"),
            ).run()
            (((xi, yj), _),) = returned
            assert type(xi) is type(yj) is list
            assert len(lazy) == len(xi) > 0
            assert lazy.index_columns()[0] is xi
            assert lazy.index_columns()[1] is yj
            assert lazy.materialized is False  # columns are not pairs
            assert (lazy.x_payload, lazy.y_payload) == (xs, ys)
            assert list(lazy) == [(xs[i], ys[j]) for i, j in zip(xi, yj)]

    def test_wraps_eager_index_columns_too(self):
        """Any ``(xi, yj)`` goes in as it is."""
        _, xp, yp = self._columns()
        columns = ([0, 0, 2], [1, 3, 3])
        lazy = LazyPairs(columns, xp, yp)
        assert len(lazy) == 3 and lazy.materialized is False
        assert lazy.index_columns() is columns
        assert lazy == [("x0", "y1"), ("x0", "y3"), ("x2", "y3")]


class TestEndpointOnlyExecution:
    """The kernels run on bare endpoint columns (the shared-memory
    worker shape: no payload objects at all)."""

    def test_join_kernel_on_arrays(self):
        x_ts = array("q", [0, 2, 5])
        x_te = array("q", [10, 6, 12])
        y_ts = array("q", [1, 3, 6, 11])
        y_te = array("q", [4, 6, 11, 12])
        (xi, yj), stats = kernels.contain_join_ts_ts(x_ts, x_te, y_ts, y_te)
        assert list(zip(xi, yj)) == [(0, 0), (0, 1), (2, 2)]
        assert stats.inserted == stats.discarded
        assert stats.high_water >= 1

    def test_semijoin_kernel_on_arrays(self):
        x_ts = array("q", [0, 2, 5])
        x_te = array("q", [10, 6, 12])
        y_ts = array("q", [1, 3, 6])
        y_te = array("q", [4, 6, 11])
        out, stats = kernels.contain_semijoin_ts_ts(x_ts, x_te, y_ts, y_te)
        assert out == [0, 2]
        assert stats.eviction_checks >= 0

    def test_budget_overflow(self):
        x_ts = [0, 1, 2]
        x_te = [100, 100, 100]
        with pytest.raises(WorkspaceOverflowError):
            kernels.contain_join_ts_ts(x_ts, x_te, [50], [60], limit=2)


class TestSlotBounds:
    def test_every_fused_cell_declares_a_certified_bound(self):
        """Each cell row's declared slot_bound is in the bound
        vocabulary and matches the Tables-1/2/3 derivation (a mirrored
        entry shares its upper-half original's row)."""
        seen = 0
        for entry in _registry().values():
            if entry.cell is None:
                continue
            seen += 1
            declared = entry.cell.slot_bound
            assert declared in FUSED_BOUNDS
            assert declared == derive_fused_bound(
                entry.operator, entry.state_class
            )
        assert seen > 0

    def test_fused_high_water_respects_declared_bound(self):
        """A zero-bound cell never inserts; a one-bound cell peaks at
        one; an active-intervals cell tracks the columnar backend."""
        rows = sort_tuples(
            [
                TemporalTuple(f"s{i}", i, i, i + 5)
                for i in range(20)
            ],
            TS_ASC,
        )

        def run(op, x_order, y_order, backend):
            entry = None
            for e in supported_entries(op):
                if str(e.x_order) == x_order and (
                    y_order is None or str(e.y_order) == y_order
                ):
                    entry = e
                    break
            assert entry is not None
            streams = [
                TupleStream.from_tuples(
                    sort_tuples(rows, entry.x_order),
                    order=entry.x_order,
                    name="X",
                )
            ]
            if entry.y_order is not None:
                streams.append(
                    TupleStream.from_tuples(
                        sort_tuples(rows, entry.y_order),
                        order=entry.y_order,
                        name="Y",
                    )
                )
            p = entry.build(*streams, backend=backend)
            p.run()
            return p.metrics.workspace.high_water

        # class (d): zero slot-store entries
        assert (
            run(
                TemporalOperator.CONTAIN_SEMIJOIN,
                "ValidFrom^",
                "ValidTo^",
                "fused",
            )
            == 0
        )
        # class (a1): at most one
        assert (
            run(
                TemporalOperator.SELF_CONTAINED_SEMIJOIN,
                "ValidFrom^, ValidTo^",
                None,
                "fused",
            )
            <= 1
        )
        # class (a): equal to the columnar active-list peak
        assert run(
            TemporalOperator.CONTAIN_JOIN,
            "ValidFrom^",
            "ValidFrom^",
            "fused",
        ) == run(
            TemporalOperator.CONTAIN_JOIN,
            "ValidFrom^",
            "ValidFrom^",
            "columnar",
        )

    def test_processor_class_exposes_bound(self):
        assert CELLS["contain-join[TS^,TS^]"].slot_bound == "active-intervals"
