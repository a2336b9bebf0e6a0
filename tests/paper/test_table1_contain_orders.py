"""TAB1 — Table 1: sort orders vs workspace for Contain-join,
Contain-semijoin, and Contained-semijoin.

Regenerates the table empirically: for every sort-order combination the
paper lists, run the registered algorithm (when one exists) and report
the measured workspace high-water mark; for '-' cells, run the GC-free
sweep to quantify the degenerate state growth.  Asserts the table's
shape:

* (d) cells measure exactly zero state tuples;
* (a)/(b)/(c) cells stay bounded by the data's overlap statistics;
* '-' cells grow to the order of the input size;
* mirror rows (lower half) match their upper-half counterparts.
"""

import pytest

from repro.model import TE_ASC, TE_DESC, TS_ASC, TS_DESC
from repro.streams import (
    TemporalOperator,
    TupleStream,
    UnboundedStateJoin,
    contain_predicate,
    lookup,
)

from tests.backends import PHYSICAL_BACKENDS

from .conftest import print_table

ORDERS = (
    (TS_ASC, TS_ASC),
    (TS_ASC, TE_ASC),
    (TE_ASC, TS_ASC),
    (TE_ASC, TE_ASC),
    (TE_DESC, TE_DESC),
    (TE_DESC, TS_DESC),
    (TS_DESC, TE_DESC),
    (TS_DESC, TS_DESC),
)

OPERATORS = (
    TemporalOperator.CONTAIN_JOIN,
    TemporalOperator.CONTAIN_SEMIJOIN,
    TemporalOperator.CONTAINED_SEMIJOIN,
)


def run_cell(operator, x_order, y_order, x, y, backend="tuple"):
    """Returns (state_class, measured_high_water or None)."""
    entry = lookup(operator, x_order, y_order)
    if not entry.supported:
        return entry.state_class, None
    processor = entry.build(
        TupleStream.from_relation(x.sorted_by(entry.x_order), name="X"),
        TupleStream.from_relation(y.sorted_by(entry.y_order), name="Y"),
        backend=backend,
    )
    processor.run()
    return entry.state_class, processor.metrics.workspace_high_water


@pytest.fixture(scope="module", params=PHYSICAL_BACKENDS)
def backend(request):
    return request.param


@pytest.fixture(scope="module")
def measured_table(backend, poisson_pair):
    """The full table, measured once per physical backend — the state
    classes and boundedness claims must hold on both."""
    x, y = poisson_pair
    table = {}
    for x_order, y_order in ORDERS:
        for operator in OPERATORS:
            table[(operator, x_order, y_order)] = run_cell(
                operator, x_order, y_order, x, y, backend=backend
            )
    return table


def test_table1_regenerated(backend, measured_table, poisson_pair):
    x, y = poisson_pair
    rows = []
    for x_order, y_order in ORDERS:
        cells = []
        for operator in OPERATORS:
            state_class, high_water = measured_table[
                (operator, x_order, y_order)
            ]
            cells.append(
                f"({state_class}) {'-' if high_water is None else high_water:>5}"
            )
        rows.append(
            f"{str(x_order):12s} {str(y_order):12s} | "
            + " | ".join(f"{cell:>10s}" for cell in cells)
        )
    print_table(
        f"Table 1 reproduced on the {backend} backend (measured peak "
        "state tuples; '-' = no bounded algorithm)",
        f"{'X order':12s} {'Y order':12s} | {'join':>10s} | "
        f"{'contain-sj':>10s} | {'containd-sj':>10s}",
        rows,
    )

    bound = (len(x) + len(y)) / 10  # generous "bounded" threshold
    for (operator, x_order, y_order), (
        state_class,
        high_water,
    ) in measured_table.items():
        if high_water is None:
            assert state_class == "-"
            continue
        if state_class == "d":
            assert high_water == 0, (operator, x_order, y_order)
        else:
            assert high_water < bound, (operator, x_order, y_order)
    # The showcase (d) cell: Contain-semijoin on TS^/TE^ holds no state.
    assert measured_table[
        (TemporalOperator.CONTAIN_SEMIJOIN, TS_ASC, TE_ASC)
    ] == ("d", 0)


def test_table1_mirror_symmetry(measured_table):
    """Lower half == upper half, cell by cell (state classes), and the
    mirrored algorithms measure comparable workspace."""
    mirror_pairs = [
        ((TS_ASC, TS_ASC), (TE_DESC, TE_DESC)),
        ((TS_ASC, TE_ASC), (TE_DESC, TS_DESC)),
        ((TE_ASC, TS_ASC), (TS_DESC, TE_DESC)),
        ((TE_ASC, TE_ASC), (TS_DESC, TS_DESC)),
    ]
    for upper, lower in mirror_pairs:
        for operator in OPERATORS:
            upper_class, upper_hw = measured_table[(operator, *upper)]
            lower_class, lower_hw = measured_table[(operator, *lower)]
            assert upper_class == lower_class
            if upper_hw is not None:
                assert lower_hw is not None


def test_table1_unsupported_cells_degenerate(poisson_pair):
    """What '-' costs: the GC-free single-pass join retains nearly
    everything."""
    x, y = poisson_pair
    join = UnboundedStateJoin(
        TupleStream.from_relation(x.sorted_by(TE_ASC), name="X"),
        TupleStream.from_relation(y.sorted_by(TE_ASC), name="Y"),
        contain_predicate,
    )
    join.run()
    assert join.metrics.workspace_high_water > (len(x) + len(y)) * 0.6
    bounded_class, bounded_hw = run_cell(
        TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC, x, y
    )
    assert bounded_hw * 10 < join.metrics.workspace_high_water
    print(
        f"\n'-' cell measured: GC-free state peaks at "
        f"{join.metrics.workspace_high_water} vs {bounded_hw} for the "
        f"(a) algorithm"
    )
