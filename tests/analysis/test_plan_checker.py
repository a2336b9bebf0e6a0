"""The symbolic Tables 1-3 checker: theory vs tables vs registry.

The load-bearing properties:

* on the real tree all 120 cells agree (the acceptance criterion for
  ``python -m repro.analysis``);
* the derivation is *independent* — it reproduces the tables from the
  operators' match conditions, so a deliberately corrupted registry
  cell (or a corrupted-looking disagreement of any kind) is caught;
* the table encoding itself obeys the paper's structure: time-reversal
  mirroring for lower halves, order-freeness exactly for
  Before-semijoin, mixed asc/desc inappropriate for binary operators.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.check_registry import check_plan
from repro.analysis.tables import (
    ALL_KEYS,
    OPERATOR_SPECS,
    TE_DOWN,
    TE_UP,
    TS_DOWN,
    TS_UP,
    derive_cell,
    expected_cell,
    full_grid,
)
from repro.model import sortorder as so
from repro.streams import registry as registry_module
from repro.streams.processors import ContainJoinTsTs
from repro.streams.registry import TemporalOperator


# ----------------------------------------------------------------------
# the real tree agrees with itself
# ----------------------------------------------------------------------
def test_full_grid_has_120_cells():
    cells = list(full_grid())
    # 7 binary operators x 4 x 4 sort keys + 2 self operators x 4 keys.
    assert len(cells) == 7 * 16 + 2 * 4 == 120


def test_plan_check_passes_on_the_real_registry():
    report = check_plan()
    assert len(report.cells) == 120
    assert report.ok, report.render_human()
    assert report.render_human().endswith(
        "plan check OK: 120 cells, 0 mismatches"
    )


def test_every_admissible_cell_was_derived_not_assumed():
    """The derivation must agree with the tables cell by cell — this is
    the 'independently re-derive' requirement, stronger than check_plan
    passing (which could in principle be vacuous)."""
    admissible = 0
    for operator, x_order, y_order in full_grid():
        x_key = x_order.primary
        y_key = y_order.primary if y_order is not None else None
        table = expected_cell(operator, x_key, y_key)
        derivation = derive_cell(operator, x_order, y_order)
        assert derivation.admissible == table.admissible, (
            operator,
            x_key,
            y_key,
            derivation.reason,
        )
        admissible += table.admissible
    # Table 1 (with mirrors): contain-join 4, contain-semijoin 4,
    # contained-semijoin 4; Table 2: overlap join/semijoin 2+2;
    # Before-semijoin: all 16 (order-free); Table 3 (with mirrors):
    # contain(X,X) 4, contained(X,X) 2.
    assert admissible == 38


# ----------------------------------------------------------------------
# corruption is caught
# ----------------------------------------------------------------------
def _corrupt(key, **row_changes):
    """The registry with one entry's row replaced (``cell=None`` drops
    it); the mirror twin keeps the true row, so exactly one cell of the
    grid is wrong."""
    registry = dict(registry_module._registry())
    entry = registry[key]
    row = row_changes.pop("cell", entry.cell)
    if row_changes:
        row = dataclasses.replace(row, **row_changes)
    registry[key] = dataclasses.replace(entry, cell=row)
    return registry


CONTAIN_TS_TS = (TemporalOperator.CONTAIN_JOIN, TS_UP, TS_UP)


def _problems_of_the_one_bad_cell(registry):
    report = check_plan(registry=registry)
    assert not report.ok
    (bad,) = report.mismatches
    assert (bad.operator, bad.x_order, bad.y_order) == (
        "contain-join",
        "ValidFrom^",
        "ValidFrom^",
    )
    return " ".join(bad.problems)


def test_corrupted_state_class_is_caught():
    problems = _problems_of_the_one_bad_cell(
        _corrupt(CONTAIN_TS_TS, state_class="d")
    )
    assert "registry declares class 'd'" in problems


def test_corrupted_order_free_flag_is_caught():
    # A row reads the flag off its tuple processor's declaration.
    order_free = type("OrderFree", (ContainJoinTsTs,), {"order_free": True})
    problems = _problems_of_the_one_bad_cell(
        _corrupt(CONTAIN_TS_TS, processor=order_free)
    )
    assert "registry order_free=True" in problems


def test_unsupported_admissible_cell_is_caught():
    problems = _problems_of_the_one_bad_cell(
        _corrupt(CONTAIN_TS_TS, cell=None)
    )
    assert "supported=False" in problems


def test_missing_backend_is_caught():
    problems = _problems_of_the_one_bad_cell(
        _corrupt(CONTAIN_TS_TS, kernel=None)
    )
    assert "lacks backend(s): ['columnar', 'fused']" in problems


def test_wrong_slot_bound_is_caught():
    problems = _problems_of_the_one_bad_cell(
        _corrupt(CONTAIN_TS_TS, slot_bound="zero")
    )
    assert "requires 'active-intervals'" in problems
    assert "declares 'zero'" in problems


def test_missing_cell_is_caught():
    registry = dict(registry_module._registry())
    del registry[CONTAIN_TS_TS]
    report = check_plan(registry=registry)
    assert any(
        "missing from the registry" in problem
        for cell in report.mismatches
        for problem in cell.problems
    )


def test_operator_shape_drift_is_caught(monkeypatch):
    """``TemporalOperator.shape`` is the one definition the executors
    dispatch on; the independent operator specs still police it."""
    spec = OPERATOR_SPECS[TemporalOperator.OVERLAP_JOIN]
    monkeypatch.setitem(
        OPERATOR_SPECS,
        TemporalOperator.OVERLAP_JOIN,
        dataclasses.replace(spec, kind="semijoin"),
    )
    drifted = {
        cell.operator
        for cell in check_plan().mismatches
        if any("operator.shape" in problem for problem in cell.problems)
    }
    assert drifted == {"overlap-join"}
    assert {op.shape for op in TemporalOperator} == {"join", "semi", "self"}


def test_mismatch_json_names_the_cell():
    report = check_plan(registry=_corrupt(CONTAIN_TS_TS, state_class="b"))
    payload = report.to_dict()
    assert payload["cells_checked"] == 120
    assert payload["mismatches"][0]["operator"] == "contain-join"


# ----------------------------------------------------------------------
# the table encoding obeys the paper's structure
# ----------------------------------------------------------------------
def test_mirror_symmetry_of_binary_tables():
    """Lower halves come from time reversal: mirroring both sort keys
    (TS^ <-> TEv, TSv <-> TE^) preserves the state class."""
    for operator, x_order, y_order in full_grid():
        if y_order is None:
            continue
        x_key, y_key = x_order.primary, y_order.primary
        cell = expected_cell(operator, x_key, y_key)
        mirrored = expected_cell(
            operator, x_key.mirrored(), y_key.mirrored()
        )
        assert mirrored.state_class == cell.state_class, (
            operator,
            x_key,
            y_key,
        )


def test_before_semijoin_is_order_free_everywhere():
    for x_key in ALL_KEYS:
        for y_key in ALL_KEYS:
            cell = expected_cell(
                TemporalOperator.BEFORE_SEMIJOIN, x_key, y_key
            )
            assert cell.state_class == "d" and cell.order_free


def test_before_join_is_inadmissible_everywhere():
    for x_key in ALL_KEYS:
        for y_key in ALL_KEYS:
            cell = expected_cell(TemporalOperator.BEFORE_JOIN, x_key, y_key)
            assert cell.state_class == "-" and not cell.admissible


@pytest.mark.parametrize(
    "operator,x_key,y_key",
    [
        (TemporalOperator.CONTAIN_JOIN, TS_UP, TS_DOWN),
        (TemporalOperator.OVERLAP_JOIN, TS_UP, TE_UP),
        (TemporalOperator.CONTAIN_SEMIJOIN, TE_UP, TS_DOWN),
    ],
)
def test_mixed_directions_are_inappropriate(operator, x_key, y_key):
    """Table 1/2: cells pairing an ascending with a descending primary
    (or sorting on an endpoint with no GC bound) are '-'; the
    derivation must refuse them too."""
    cell = expected_cell(operator, x_key, y_key)
    derivation = derive_cell(
        operator, so.SortOrder.of(x_key), so.SortOrder.of(y_key)
    )
    assert not cell.admissible and not derivation.admissible


def test_table3_self_semijoin_row():
    """Table 3: contained(X,X) single-pass on TS^ only; contain(X,X)
    on TS^ (bounded set) and TSv (single state tuple)."""
    contained = TemporalOperator.SELF_CONTAINED_SEMIJOIN
    contain = TemporalOperator.SELF_CONTAIN_SEMIJOIN
    assert expected_cell(contained, TS_UP).state_class == "a1"
    assert expected_cell(contained, TS_DOWN).state_class == "-"
    assert expected_cell(contain, TS_UP).state_class == "b1"
    assert expected_cell(contain, TS_DOWN).state_class == "a1"
    # ValidTo primaries mirror the ValidFrom column.
    assert expected_cell(contained, TE_DOWN).state_class == "a1"
    assert expected_cell(contain, TE_UP).state_class == "a1"
