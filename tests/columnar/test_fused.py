"""Fused endpoint-event backend: event encoding laws, the tie-rank
order against the kernels' implicit merge, lazy join materialisation,
endpoint-only column execution, and the slot-store bound declarations."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tables import FUSED_BOUNDS, derive_fused_bound
from repro.columnar import fused, kernels
from repro.columnar.backend import CELLS, LazyPairs
from repro.columnar.events import (
    IDX_MASK,
    RANK_EVICT,
    RANK_PROBE,
    RANK_START,
    SIDE_X,
    SIDE_Y,
    check_capacity,
    disposal_bound,
    entry_endpoint,
    entry_index,
    event_index,
    event_rank,
    event_side,
    event_time,
    merged_schedule,
    pack_entry,
    pack_event,
    packing_fits,
)
from repro.errors import WorkspaceOverflowError
from repro.model import TS_ASC, TemporalTuple, sort_tuples
from repro.streams import (
    TemporalOperator,
    TupleStream,
    lookup,
    supported_entries,
)
from repro.streams.registry import _registry

#: Endpoints cover negatives: the time-reversal mirrors feed negated
#: columns through the same packing.
times = st.integers(min_value=-(10**6), max_value=10**6)
indexes = st.integers(min_value=0, max_value=IDX_MASK)

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


class TestEntryKeys:
    @given(times, indexes)
    def test_pack_roundtrip(self, t, i):
        key = pack_entry(t, i)
        assert entry_endpoint(key) == t
        assert entry_index(key) == i

    @given(times, times, indexes, indexes)
    def test_order_preserving(self, t1, t2, i1, i2):
        """Packed keys sort exactly like (endpoint, index) tuples —
        including for negative (mirrored) endpoints."""
        a, b = pack_entry(t1, i1), pack_entry(t2, i2)
        assert (a < b) == ((t1, i1) < (t2, i2))

    @given(st.lists(st.tuples(times, indexes), max_size=40), times)
    def test_disposal_bound_splits_store(self, entries, t):
        """bisect at disposal_bound(t) == count of entries with
        endpoint <= t — the Section-4.2 disposal prefix."""
        store = sorted(pack_entry(e, i) for e, i in entries)
        from bisect import bisect_right

        k = bisect_right(store, disposal_bound(t))
        assert k == sum(1 for e, _ in entries if e <= t)
        assert all(entry_endpoint(key) <= t for key in store[:k])
        assert all(entry_endpoint(key) > t for key in store[k:])

    def test_capacity_guard(self):
        check_capacity(IDX_MASK)
        with pytest.raises(ValueError):
            check_capacity(IDX_MASK + 1)

    def test_capacity_guard_covers_the_endpoint_span(self):
        """Both edges of the packed word, at the predicate level: 2**21
        rows, and endpoints outside [-2**42, 2**42)."""
        limit = 2**42
        assert packing_fits(IDX_MASK, -limit, limit - 1)
        assert not packing_fits(IDX_MASK + 1, 0, 0)
        assert not packing_fits(1, 0, limit)
        assert not packing_fits(1, -limit - 1, 0)
        # The extremes really pack into an int64 slot, one past do not.
        array("q", [pack_entry(limit - 1, IDX_MASK), pack_entry(-limit, 0)])
        with pytest.raises(OverflowError):
            array("q", [pack_entry(limit, 0)])
        with pytest.raises(ValueError):
            check_capacity(1, 0, limit)


#: (kernel, its columnar twin, which operand it stores) for every fused
#: kernel with a slot store.
STORING_KERNELS = [
    (fused.contain_join_ts_ts, kernels.contain_join_ts_ts, "x"),
    (fused.contain_join_ts_te, kernels.contain_join_ts_te, "x"),
    (fused.contain_semijoin_ts_ts, kernels.contain_semijoin_ts_ts, "x"),
    (fused.contained_semijoin_ts_ts, kernels.contained_semijoin_ts_ts, "y"),
    (fused.overlap_join_ts_ts, kernels.overlap_join_ts_ts, "x"),
    (fused.overlap_join_ts_ts, kernels.overlap_join_ts_ts, "y"),
]


class TestPackingLimit:
    """An endpoint >= 2**42 used to die mid-sweep with a raw
    ``OverflowError: int too big to convert``."""

    @staticmethod
    def columns(stored, te):
        wide = ([0, 1], [te, te])  # the stored side: ends at ``te``
        narrow = ([2, 3], [5, 6])
        x, y = (wide, narrow) if stored == "x" else (narrow, wide)
        return x[0], x[1], y[0], y[1]

    @pytest.mark.parametrize(
        "kernel, twin, stored", STORING_KERNELS,
        ids=[f"{k.__name__}-{s}" for k, _, s in STORING_KERNELS],
    )
    def test_boundary(self, kernel, twin, stored):
        fits = self.columns(stored, 2**42 - 1)
        out, _ = kernel(*fits)
        expected, _ = twin(*fits)
        if isinstance(out, fused.JoinRuns):
            out = tuple(map(list, out.index_columns()))
        assert out == expected
        with pytest.raises(ValueError, match="endpoints"):
            kernel(*self.columns(stored, 2**42))
        twin(*self.columns(stored, 2**42))  # columnar packs nothing

    def test_self_kernel_boundary(self):
        ts = [0, 1, 2]
        fits = [2**42 - 1, 5, 4]
        out, _ = fused.self_contain_semijoin_ts(ts, fits)
        assert out == kernels.self_contain_semijoin_ts(ts, fits)[0] == [0, 1]
        with pytest.raises(ValueError, match="endpoints"):
            fused.self_contain_semijoin_ts(ts, [2**42, 5, 4])

    def test_processor_refuses_before_the_sweep(self):
        """The reproduction from the issue: x_te = 2**50.  Tuple and
        columnar return the row; fused names the limit instead of
        failing mid-sweep."""
        entry = lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)
        xs = [TemporalTuple("wide", 0, 0, 2**50)]
        ys = [TemporalTuple("y", 1, 2, 5)]

        def build(backend):
            return entry.build(
                TupleStream.from_tuples(xs, order=TS_ASC, name="X"),
                TupleStream.from_tuples(ys, order=TS_ASC, name="Y"),
                backend=backend,
            )

        for backend in ("tuple", "columnar"):
            assert list(build(backend).run()) == [(xs[0], ys[0])]
        processor = build("fused")
        with pytest.raises(ValueError, match="endpoints"):
            processor.run()
        assert processor.metrics.comparisons == 0


class TestEventSchedule:
    @given(times, st.sampled_from([RANK_EVICT, RANK_PROBE, RANK_START]),
           st.sampled_from([SIDE_X, SIDE_Y]), indexes)
    def test_event_roundtrip(self, t, rank, side, i):
        e = pack_event(t, rank, side, i)
        assert event_time(e) == t
        assert event_rank(e) == rank
        assert event_side(e) == side
        assert event_index(e) == i

    @given(interval_columns, st.lists(times, max_size=40))
    def test_tie_rank_law(self, xcols, probes):
        """At any shared timestamp the merged schedule fires evictions
        first, the probe second, and starts last — the closed-open
        disposal order of Section 4.2."""
        x_ts, x_te = xcols
        schedule = merged_schedule(x_ts, x_te, sorted(probes))
        decoded = [
            (event_time(e), event_rank(e), event_side(e), event_index(e))
            for e in schedule
        ]
        assert decoded == sorted(decoded)
        assert len(decoded) == 2 * len(x_ts) + len(probes)
        # Rank semantics: every start/evict event carries its column's
        # actual endpoint.
        for t, rank, side, i in decoded:
            if rank == RANK_START:
                assert (side, t) == (SIDE_X, x_ts[i])
            elif rank == RANK_EVICT:
                assert (side, t) == (SIDE_X, x_te[i])

    @given(interval_columns, interval_columns)
    @settings(max_examples=60)
    def test_kernel_realises_schedule_order(self, xcols, ycols):
        """The fused contain-join's implicit merge (two pointers plus
        the equal-timestamp holdback) produces exactly the pairs the
        explicit merged schedule mandates: replaying the schedule with
        a naive active set gives the same output multiset."""
        x_ts, x_te = xcols
        y_ts, y_te = ycols
        runs, _ = fused.contain_join_ts_ts(x_ts, x_te, y_ts, y_te)
        xi, yj = runs.index_columns()
        got = sorted(zip(xi, yj))

        # Replay the explicit schedule: starts admit, evicts remove,
        # probes match the *current* active set against Y.TE.
        schedule = merged_schedule(x_ts, x_te, y_ts)
        active = set()
        expected = []
        for e in schedule:
            rank, idx = event_rank(e), event_index(e)
            if rank == RANK_START:
                active.add(idx)
            elif rank == RANK_EVICT:
                active.discard(idx)
            else:
                for x in active:
                    if x_te[x] > y_te[idx]:
                        expected.append((x, idx))
        assert got == sorted(expected)


class TestLazyPairs:
    def _runs(self, n=6):
        x_ts = list(range(n))
        x_te = [t + 10 for t in x_ts]
        y_ts = [t + 1 for t in x_ts]
        y_te = [t + 2 for t in y_ts]
        runs, _ = fused.contain_join_ts_ts(x_ts, x_te, y_ts, y_te)
        xp = [f"x{i}" for i in range(n)]
        yp = [f"y{j}" for j in range(n)]
        return runs, xp, yp

    def test_len_before_materialize(self):
        runs, xp, yp = self._runs()
        lazy = LazyPairs(runs, xp, yp)
        assert len(lazy) == runs.total > 0
        assert lazy.materialized is False  # len() touched nothing

    def test_materialises_on_iteration_and_caches(self):
        runs, xp, yp = self._runs()
        lazy = LazyPairs(runs, xp, yp)
        first = list(lazy)
        assert lazy.materialized is True
        assert list(lazy) is not first  # list() copies...
        assert lazy[0] == first[0]  # ...but the cache is shared
        assert len(first) == len(lazy)

    @given(interval_columns, interval_columns)
    @settings(max_examples=40)
    def test_len_matches_eager_kernel(self, xcols, ycols):
        """The O(1) run-total length equals the eager columnar kernel's
        pair count, without expanding a single pair."""
        x_ts, x_te = xcols
        y_ts, y_te = ycols
        runs, _ = fused.contain_join_ts_ts(x_ts, x_te, y_ts, y_te)
        lazy = LazyPairs(runs, [None] * len(x_ts), [None] * len(y_ts))
        (exi, _), _ = kernels.contain_join_ts_ts(x_ts, x_te, y_ts, y_te)
        assert len(lazy) == len(exi)
        assert lazy.materialized is False

    def test_equality_materialises(self):
        runs, xp, yp = self._runs()
        lazy = LazyPairs(runs, xp, yp)
        eager = list(LazyPairs(runs, xp, yp))
        assert lazy == eager
        assert lazy.materialized is True

    def test_index_columns_expand_the_runs_once(self):
        """``len()`` -> index columns -> a later ``list()``: the runs
        expand on the first ask and the columns are reused after."""
        runs, xp, yp = self._runs()
        lazy = LazyPairs(runs, xp, yp)
        assert len(lazy) == runs.total
        xi, yj = lazy.index_columns()
        assert lazy.index_columns()[0] is xi  # cached, not re-expanded
        assert lazy.materialized is False  # columns are not pairs
        assert (lazy.x_payload, lazy.y_payload) == (xp, yp)
        assert list(lazy) == [(xp[i], yp[j]) for i, j in zip(xi, yj)]

    def test_wraps_eager_index_columns_too(self):
        """The columnar kernels' ``(xi, yj)`` go in as they are."""
        _, xp, yp = self._runs()
        columns = ([0, 0, 2], [1, 3, 3])
        lazy = LazyPairs(columns, xp, yp)
        assert len(lazy) == 3 and lazy.materialized is False
        assert lazy.index_columns() is columns
        assert lazy == [("x0", "y1"), ("x0", "y3"), ("x2", "y3")]


class TestEndpointOnlyExecution:
    """Fused kernels run on bare endpoint columns (the shared-memory
    worker shape: no payload objects at all)."""

    def test_join_kernel_on_arrays(self):
        x_ts = array("q", [0, 2, 5])
        x_te = array("q", [10, 6, 12])
        y_ts = array("q", [1, 3, 6, 11])
        y_te = array("q", [4, 6, 11, 12])
        runs, stats = fused.contain_join_ts_ts(x_ts, x_te, y_ts, y_te)
        xi, yj = runs.index_columns()
        assert sorted(zip(xi, yj)) == [(0, 0), (0, 1), (2, 2)]
        assert stats.inserted == stats.discarded
        assert stats.high_water >= 1

    def test_semijoin_kernel_on_arrays(self):
        x_ts = array("q", [0, 2, 5])
        x_te = array("q", [10, 6, 12])
        y_ts = array("q", [1, 3, 6])
        y_te = array("q", [4, 6, 11])
        out, stats = fused.contain_semijoin_ts_ts(x_ts, x_te, y_ts, y_te)
        assert out == [0, 2]
        assert stats.eviction_checks >= 0

    def test_budget_overflow(self):
        x_ts = [0, 1, 2]
        x_te = [100, 100, 100]
        with pytest.raises(WorkspaceOverflowError):
            fused.contain_join_ts_ts(x_ts, x_te, [50], [60], limit=2)


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
