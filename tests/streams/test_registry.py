"""Tests for the executable Tables 1-3 (repro.streams.registry)."""

import pytest

from repro.columnar import CELLS
from repro.errors import UnsupportedSortOrderError
from repro.model import (
    TE_ASC,
    TE_DESC,
    TS_ASC,
    TS_DESC,
    Direction,
    SortOrder,
)
from repro.obs.audit import registry_hash
from repro.streams import (
    BACKENDS,
    RegistryEntry,
    TemporalOperator,
    entries_for,
    lookup,
    supported_entries,
)

from .conftest import make_stream

T = TemporalOperator


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "label", sorted(label for label, c in CELLS.items() if c.y_order)
)
def test_binary_cell_without_y_is_a_typed_error(label, backend):
    """Built without a Y stream, a binary cell's processor refuses at
    construction — read off its declared Y order — on every backend,
    its time-reversed entry included."""
    cell = CELLS[label]
    orders = [(cell.x_order, cell.y_order)]
    if not cell.order_free:
        orders.append((cell.x_order.mirrored(), cell.y_order.mirrored()))
    for x_order, y_order in orders:
        entry = lookup(cell.operator, x_order, y_order)
        x = make_stream([], x_order, "X")
        with pytest.raises(TypeError, match="is a binary operator"):
            entry.build(x, None, backend=backend)


class TestTable1Shape:
    """The support pattern of Table 1, row by row."""

    @pytest.mark.parametrize(
        "x_order, y_order, join_cls, csj_cls, cdsj_cls",
        [
            (TS_ASC, TS_ASC, "a", "c", "c"),
            (TS_ASC, TE_ASC, "b", "d", "-"),
            (TE_ASC, TS_ASC, "-", "-", "d"),
            (TE_ASC, TE_ASC, "-", "-", "-"),
            # Mirrors (the lower half of Table 1):
            (TE_DESC, TE_DESC, "a", "c", "c"),
            (TE_DESC, TS_DESC, "b", "d", "-"),
            (TS_DESC, TE_DESC, "-", "-", "d"),
            (TS_DESC, TS_DESC, "-", "-", "-"),
        ],
    )
    def test_state_classes(self, x_order, y_order, join_cls, csj_cls, cdsj_cls):
        assert lookup(T.CONTAIN_JOIN, x_order, y_order).state_class == join_cls
        assert (
            lookup(T.CONTAIN_SEMIJOIN, x_order, y_order).state_class == csj_cls
        )
        assert (
            lookup(T.CONTAINED_SEMIJOIN, x_order, y_order).state_class
            == cdsj_cls
        )

    def test_mixed_directions_inappropriate(self):
        """Section 4.2.1: "it is generally inappropriate to have one
        relation sorted in ascending order and the other in descending
        order"."""
        for op in (T.CONTAIN_JOIN, T.CONTAIN_SEMIJOIN, T.CONTAINED_SEMIJOIN):
            assert not lookup(op, TS_ASC, TS_DESC).supported
            assert not lookup(op, TS_DESC, TS_ASC).supported
            assert not lookup(op, TE_DESC, TE_ASC).supported

    def test_unsupported_build_raises(self):
        entry = lookup(T.CONTAIN_JOIN, TE_ASC, TE_ASC)
        with pytest.raises(UnsupportedSortOrderError):
            entry.build(None, None)

    def test_mirror_flag(self):
        assert not lookup(T.CONTAIN_JOIN, TS_ASC, TS_ASC).mirrored
        assert lookup(T.CONTAIN_JOIN, TE_DESC, TE_DESC).mirrored


class TestTable2Shape:
    def test_overlap_only_ts_asc_or_mirror(self):
        assert lookup(T.OVERLAP_JOIN, TS_ASC, TS_ASC).state_class == "a"
        assert lookup(T.OVERLAP_SEMIJOIN, TS_ASC, TS_ASC).state_class == "b"
        assert lookup(T.OVERLAP_JOIN, TE_DESC, TE_DESC).supported
        for x_order, y_order in [
            (TS_ASC, TE_ASC),
            (TE_ASC, TS_ASC),
            (TE_ASC, TE_ASC),
            (TS_DESC, TS_DESC),
        ]:
            assert not lookup(T.OVERLAP_JOIN, x_order, y_order).supported
            assert not lookup(T.OVERLAP_SEMIJOIN, x_order, y_order).supported


class TestTable3Shape:
    def test_self_contained_rows(self):
        asc = lookup(T.SELF_CONTAINED_SEMIJOIN, TS_ASC)
        assert asc.state_class == "a1"
        assert asc.supported
        desc = lookup(T.SELF_CONTAINED_SEMIJOIN, TS_DESC)
        assert not desc.supported

    def test_self_contain_rows(self):
        asc = lookup(T.SELF_CONTAIN_SEMIJOIN, TS_ASC)
        assert asc.state_class == "b1"
        desc = lookup(T.SELF_CONTAIN_SEMIJOIN, TS_DESC)
        assert desc.state_class == "a1"

    def test_mirrored_self_rows(self):
        te_desc = SortOrder.by_te(Direction.DESC, secondary_ts=True)
        assert lookup(T.SELF_CONTAINED_SEMIJOIN, te_desc).supported
        assert lookup(T.SELF_CONTAINED_SEMIJOIN, te_desc).mirrored


class TestBeforeEntries:
    def test_join_has_no_bounded_entry(self):
        for x_order in (TS_ASC, TE_ASC, TS_DESC, TE_DESC):
            for y_order in (TS_ASC, TE_ASC, TS_DESC, TE_DESC):
                assert not lookup(T.BEFORE_JOIN, x_order, y_order).supported

    def test_semijoin_supported_everywhere(self):
        for x_order in (TS_ASC, TE_ASC, TS_DESC, TE_DESC):
            for y_order in (TS_ASC, TE_ASC, TS_DESC, TE_DESC):
                entry = lookup(T.BEFORE_SEMIJOIN, x_order, y_order)
                assert entry.supported
                assert entry.state_class == "d"


class TestRegistryApi:
    def test_entries_for_covers_all_combinations(self):
        entries = entries_for(T.CONTAIN_JOIN)
        assert len(entries) == 16  # 4 x 4 primary-key combinations

    def test_supported_entries_subset(self):
        supported = supported_entries(T.CONTAIN_JOIN)
        assert {e.state_class for e in supported} == {"a", "b"}
        assert all(isinstance(e, RegistryEntry) for e in supported)

    def test_build_and_run_via_entry(self, random_tuples):
        xs, ys = random_tuples(40, seed=60), random_tuples(40, seed=61)
        entry = lookup(T.CONTAIN_JOIN, TS_ASC, TS_ASC)
        processor = entry.build(
            make_stream(xs, TS_ASC), make_stream(ys, TS_ASC)
        )
        out = processor.run()
        assert all(x.interval.contains(y.interval) for x, y in out)

    def test_state_descriptions_exist(self):
        for op in T:
            for entry in entries_for(op):
                assert entry.state_description


class TestDerivation:
    """The 120 entries follow from the 12 rows of ``CELLS`` and the
    paper's two rules (mirror the upper half; '-' elsewhere)."""

    def test_the_derived_table_is_the_hand_built_one(self):
        """The hash of the hand-written registry this derivation
        replaced: same operators, orders, state classes, backends,
        ``mirrored`` and ``order_free`` flags, cell by cell."""
        assert registry_hash() == "a77374006b81d5ab"
        entries = [e for op in T for e in entries_for(op)]
        assert len(entries) == 120
        assert sum(e.supported for e in entries) == 38

    def test_a_label_is_its_tuple_processors_own_name(self):
        assert len(CELLS) == 12  # no two rows share a label
        for label, row in CELLS.items():
            assert label == row.label == row.processor.operator

    def test_a_mirror_shares_its_original_row(self):
        for operator in T:
            for entry in supported_entries(operator):
                row = entry.cell
                assert row.operator is operator
                assert entry.state_class == row.state_class
                if row.order_free:
                    assert not entry.mirrored
                    continue
                orders = (row.x_order, row.y_order)
                if entry.mirrored:
                    orders = [o and o.mirrored() for o in orders]
                assert (entry.x_order, entry.y_order) == tuple(orders)
                twin = lookup(
                    operator,
                    entry.x_order.mirrored(),
                    entry.y_order and entry.y_order.mirrored(),
                )
                assert twin.cell is row
                assert twin.mirrored is not entry.mirrored
