"""Unit tests for the columnar interval representation."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import IntervalColumns
from repro.errors import StreamOrderError
from repro.model import (
    TE_ASC,
    TE_DESC,
    TS_ASC,
    TS_DESC,
    TS_TE_ASC,
    TS_TE_DESC,
    TemporalTuple,
    sort_tuples,
)
from repro.model.sortorder import SortOrder

ORDERS = (
    TS_ASC,
    TS_DESC,
    TE_ASC,
    TE_DESC,
    TS_TE_ASC,
    TS_TE_DESC,
    TS_TE_ASC.mirrored(),
    TS_TE_DESC.mirrored(),
)


def T(value, ts, te):
    return TemporalTuple(f"s{value}", value, ts, te)


TUPLES = [T(0, 5, 9), T(1, 0, 4), T(2, 3, 12), T(3, 3, 5)]


class TestConstruction:
    def test_from_tuples_sorts_by_order(self):
        cols = IntervalColumns.from_tuples(TUPLES, order=TS_ASC)
        assert list(cols.ts) == [0, 3, 3, 5]
        assert len(cols) == 4
        # payload stays positionally aligned with the endpoint columns
        for i, payload in enumerate(cols.payload):
            assert payload.valid_from == cols.ts[i]
            assert payload.valid_to == cols.te[i]

    def test_presorted_trusts_caller(self):
        cols = IntervalColumns.from_tuples(
            TUPLES, order=TS_ASC, presorted=True
        )
        assert list(cols.ts) == [5, 0, 3, 3]  # untouched

    def test_misaligned_columns_rejected(self):
        cols = IntervalColumns.from_tuples(TUPLES, order=TS_ASC)
        with pytest.raises(ValueError):
            IntervalColumns(cols.ts, cols.te[:2], cols.payload, TS_ASC)

    def test_no_order_keeps_arrival_sequence(self):
        cols = IntervalColumns.from_tuples(TUPLES)
        assert [p.value for p in cols.payload] == [0, 1, 2, 3]


class TestVerifyOrder:
    def test_sorted_columns_pass(self):
        for order in (TS_ASC, TE_ASC, TS_DESC):
            IntervalColumns.from_tuples(TUPLES, order=order).verify_order()

    def test_violation_raises(self):
        cols = IntervalColumns.from_tuples(
            TUPLES, order=TS_ASC, presorted=True
        )
        with pytest.raises(StreamOrderError):
            cols.verify_order()

    def test_secondary_key_violation_detected(self):
        order = SortOrder.by_ts(secondary_te=True)
        bad = [T(0, 1, 9), T(1, 1, 4)]  # equal TS, descending TE
        cols = IntervalColumns.from_tuples(bad, order=order, presorted=True)
        with pytest.raises(StreamOrderError):
            cols.verify_order()
        IntervalColumns.from_tuples(bad, order=order).verify_order()

    def test_ties_are_legal(self):
        dup = [T(0, 2, 6), T(1, 2, 6), T(2, 2, 6)]
        IntervalColumns.from_tuples(
            dup, order=TS_ASC, presorted=True
        ).verify_order()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=12
        ),
        st.sampled_from(ORDERS),
        st.data(),
    )
    def test_the_one_pass_verdict_equals_the_slow_pass(
        self, pairs, order, data
    ):
        """Compound orders too, on sorted columns, ties and one-swap
        violations: the C-level pass decides, the slow one only names."""
        drawn = [T(i, ts, ts + length) for i, (ts, length) in enumerate(pairs)]
        tuples = sort_tuples(drawn, order)
        if len(tuples) > 1 and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(tuples) - 2))
            tuples[i], tuples[i + 1] = tuples[i + 1], tuples[i]
        columns = IntervalColumns.from_tuples(tuples, order, presorted=True)
        keys = columns._key_columns(order)
        try:
            columns._raise_first_violation(keys)
            slow = True
        except StreamOrderError:
            slow = False
        assert IntervalColumns._in_order(keys) is slow
        assert slow is order.is_sorted(tuples)
        with mock.patch.object(
            IntervalColumns,
            "_raise_first_violation",
            side_effect=StreamOrderError("named"),
        ) as named:
            try:
                columns.verify_order()
            except StreamOrderError:
                pass
        assert named.called is not slow

    def test_surrogate_order_falls_back_to_tuple_check(self):
        order = SortOrder.by_surrogate()
        cols = IntervalColumns.from_tuples(TUPLES, order=order)
        cols.verify_order()
        bad = IntervalColumns.from_tuples(
            list(reversed(cols.payload)), order=order, presorted=True
        )
        with pytest.raises(StreamOrderError):
            bad.verify_order()
