"""A selection below a stream join keeps its relation: the selected
side's operand is those rows of the relation's, sorted by filtering the
relation's kept view.  Pinned here: the rows are the conventional
plan's on every backend and transport, the filtered view is the argsort
of the rows kept in every cell order and its mirror, and the relation's
memo stays the whole relation's."""

import sys
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import compile_plan, optimize
from repro.columnar import CELLS
from repro.errors import InvalidIntervalError
from repro.model import (
    TS_ASC,
    TS_TE_ASC,
    TE_DESC,
    TemporalRelation,
    TemporalSchema,
    TemporalTuple,
    sort_tuples,
)
from repro.optimizer import TemporalJoinPlanner, execute_hybrid, integration
from repro.query import parse_query, run_query, translate
from repro.relational import Select
from repro.resilience.recovery import RecoveryPolicy

from ..columnar.test_tie_groups import bench_instance

GRID = 4

#: Rows on a coarse grid from a handful of values: ties, duplicate
#: endpoints and whole duplicate rows all turn up.
rows = st.lists(
    st.tuples(
        st.integers(0, 3),  # surrogate
        st.integers(0, 5),  # Seq
        st.integers(0, 6),  # start, in grid steps
        st.integers(1, 3),  # length, in grid steps
    ),
    max_size=14,
)
#: Each cell's orders and their mirrors: the orders a planner may ask a
#: selected side for.
CELL_ORDERS = sorted(
    {
        form
        for cell in CELLS.values()
        for order in (cell.x_order, cell.y_order)
        if order is not None
        for form in (order, order.mirrored())
    },
    key=str,
)


def relation(name, drawn, arrangement):
    tuples = [
        TemporalTuple(f"{name}{s}", seq, GRID * start, GRID * (start + length))
        for s, seq, start, length in drawn
    ]
    rel = TemporalRelation(TemporalSchema(name, "Id", "Seq"), tuples)
    # Draws arrive in no particular order: "as drawn" is shuffled.
    return rel if arrangement is None else rel.sorted_by(arrangement)


arrangements = st.sampled_from((None, TS_ASC, TS_TE_ASC, TE_DESC))

#: A selection on one range variable, as Quel text over ``{v}``, with
#: ``{k}`` a Seq bound and ``{j}`` a timepoint.
SELECTIONS = {
    "none kept": "{v}.Seq < 0",
    "all kept": "{v}.Seq >= 0",
    "on Seq": "{v}.Seq < {k}",
    "on ValidFrom": "{v}.ValidFrom >= {j}",
    "and": "({v}.Seq < {k} and {v}.ValidFrom > {j})",
    "or": "({v}.Seq < {k} or {v}.ValidTo < {j})",
}
selections = st.tuples(
    st.sampled_from(sorted(SELECTIONS)),
    st.integers(0, 6),
    st.integers(0, 6 * GRID),
)
KEYWORDS = ("during", "contains", "overlap")

#: backend x transport under STRICT, and DEGRADE with the paper's
#: 3-tuple workspace, which spills whenever the state outgrows it.
BACKENDS = ("tuple", "columnar", "fused", "auto")
CONFIGS = [
    (backend, transport, RecoveryPolicy.STRICT, None)
    for backend in BACKENDS
    for transport in ("serial", "inline-2")
] + [
    (backend, "serial", RecoveryPolicy.DEGRADE, 3) for backend in BACKENDS
]


def query(keyword, selected):
    conditions = [
        SELECTIONS[name].format(v=variable, k=k, j=j)
        for variable, (name, k, j) in selected.items()
    ]
    return (
        "range of a is X range of b is Y "
        "retrieve (A = a.Seq, B = b.Seq, S = a.ValidFrom) where "
        + " and ".join(conditions + [f"(a {keyword} b)"])
    )


def execute(text, cat, backend, transport, recovery, workspace_budget):
    parallel = (
        {"parallelism": 2, "parallel_mode": "inline"}
        if transport == "inline-2"
        else {}
    )
    planner = TemporalJoinPlanner(
        backend=backend, workspace_budget=workspace_budget, **parallel
    )
    plan = optimize(translate(parse_query(text), cat))
    return execute_hybrid(plan, cat, planner=planner, recovery=recovery)


@settings(max_examples=40, deadline=None)
@given(
    rows,
    rows,
    arrangements,
    arrangements,
    st.sampled_from(KEYWORDS),
    st.sampled_from(({"a"}, {"b"}, {"a", "b"})),
    st.data(),
)
def test_rows_equal_the_conventional_plan(
    x_rows, y_rows, x_order, y_order, keyword, variables, data
):
    cat = {
        "X": relation("x", x_rows, x_order),
        "Y": relation("y", y_rows, y_order),
    }
    selected = {v: data.draw(selections) for v in sorted(variables)}
    text = query(keyword, selected)
    oracle = Counter(run_query(text, cat, streams=False).rows)
    emitted = {}
    for config in CONFIGS:
        executed = execute(text, cat, *config)
        assert Counter(executed.rows) == oracle, config
        emitted[config] = executed.rows
        (info,) = executed.stream_joins
        if config[3] is not None and info.metrics.workspace_high_water > 3:
            assert info.execution_report.fallbacks
    strict = RecoveryPolicy.STRICT
    assert (
        emitted[("columnar", "serial", strict, None)]
        == emitted[("fused", "serial", strict, None)]
    )
    # Every query read the relations' kept views, none wrote into them.
    for rel in cat.values():
        for order, view in rel.orders.items():
            expected = sort_tuples(rel.tuples, order)
            assert [rel.tuples[i] for i in view.permutation] == expected
            assert list(view.ts) == [t.valid_from for t in expected]


@settings(max_examples=150, deadline=None)
@given(rows, arrangements, selections, st.permutations(CELL_ORDERS))
def test_a_selections_view_is_the_argsort_of_its_rows(
    drawn, arrangement, selection, orders
):
    rel = relation("x", drawn, arrangement)
    cat = {"X": rel}
    name, k, j = selection
    condition = SELECTIONS[name].format(v="a", k=k, j=j)
    text = "range of a is X retrieve (A = a.Seq) where " + condition
    selected = compile_plan(translate(parse_query(text), cat), cat)
    while not isinstance(selected, Select):
        selected = selected.child
    batch = selected.batch()
    assert batch.relation is rel
    positions = [
        i for i, row in enumerate(selected.child) if selected._compiled(row)
    ]
    assert batch.selection == positions
    operand = integration._operand(batch, selected.schema, {"a"})
    assert operand.order is None and list(operand.payload) == positions
    subset = [
        TemporalTuple(i, None, t.valid_from, t.valid_to)
        for i, t in zip(positions, map(rel.tuples.__getitem__, positions))
    ]
    for order in orders:
        view = operand.sorted_by(order)
        expected = sort_tuples(subset, order)
        assert list(view.payload) == [t.surrogate for t in expected]
        assert list(view.ts) == [t.valid_from for t in expected]
        assert list(view.te) == [t.valid_to for t in expected]
        assert view.order == order
        view.verify_order()
        assert view.tuples_built == operand.tuples_built == 0
    # The relation keeps the whole relation's sorts, never a subset's.
    assert set(rel.orders) == set(orders)
    for order, view in rel.orders.items():
        whole = sort_tuples(rel.tuples, order)
        assert [rel.tuples[i] for i in view.permutation] == whole


Raw = namedtuple("Raw", "surrogate value valid_from valid_to")


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_bad_row_the_selection_drops_fails_no_query(backend):
    """Validating the whole relation would refuse it; only the rows
    kept are the operand's, and a kept bad row raises as its tuple
    would."""
    good = [TemporalTuple(f"g{i}", i, i, i + 5) for i in range(20)]
    bad = Raw("bad", 99, 4, 4)  # an empty interval
    cat = {
        "X": TemporalRelation(
            TemporalSchema("X", "Id", "Seq"), good[:7] + [bad] + good[7:]
        ),
        "Y": TemporalRelation(TemporalSchema("Y", "Id", "Seq"), good),
    }
    config = (backend, "serial", RecoveryPolicy.STRICT, None)
    text = query("overlap", {"a": ("on Seq", 50, 0)})
    for _ in range(2):
        executed = execute(text, cat, *config)
        assert Counter(executed.rows) == Counter(
            run_query(text, cat, streams=False).rows
        )
        assert cat["X"].endpoints is None
    kept = query("overlap", {"a": ("all kept", 0, 0)})
    with pytest.raises(InvalidIntervalError):
        execute(kept, cat, *config)


def test_a_second_query_sorts_and_validates_nothing_on_the_selected_side():
    """``tie_overlap`` at 1/16 scale: the selection keeps half of X.  On
    the second query X's kept view is filtered — no argsort, no
    validation — and no tuple is built."""
    instance = bench_instance(16)
    text, cat = instance.text, instance.catalog
    oracle = Counter(run_query(text, cat, streams=False).rows)
    run_query(text, cat, streams=True)
    calls = Counter()

    def profiler(frame, event, arg):
        name = frame.f_code.co_name
        if event == "call" and name == "_validated":
            calls["_validated"] += 1
        elif event == "c_call" and name == "sorted_by":
            if getattr(arg, "__name__", None) == "sort":
                calls["argsort"] += 1

    sys.setprofile(profiler)
    try:
        executed = run_query(text, cat, streams=True)
    finally:
        sys.setprofile(None)
    assert Counter(executed.rows) == oracle
    assert calls == Counter()
    (join,) = executed.stream_joins
    assert join.operator.value == "overlap-join"
    assert (join.orders_reused, join.tuples_built) == (2, 0)
