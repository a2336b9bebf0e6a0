"""Late-materialised stream joins: the projection gathered column-wise
from a join's index columns must be the *same list* — same rows, same
order — as the generic row path over the same join, on every backend,
serial and sharded, and multiset-equal to the conventional engine."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.algebra import LDistinct, LJoin, LProject, LSelect, optimize
from repro.algebra.physical import compile_plan
from repro.errors import BudgetExceededError
from repro.governance import QueryBudget, governed
from repro.model import TemporalRelation, TemporalSchema, TemporalTuple
from repro.obs import Tracer, set_tracer
from repro.optimizer import TemporalJoinPlanner, execute_hybrid
from repro.query import parse_query, run_query, translate
from repro.relational.expressions import Attr, Compare, Literal
from repro.workload import PoissonWorkload, fixed_duration

BACKENDS = ("tuple", "columnar", "fused", "auto")
MODES = {
    "serial": {},
    "inline-2": {"parallelism": 2, "parallel_mode": "inline"},
}
RANGES = "range of a is X range of b is Y "


def catalog(n=150):
    return {
        "X": PoissonWorkload(n, 0.4, fixed_duration(4), name="X").generate(5),
        "Y": PoissonWorkload(n, 0.4, fixed_duration(30), name="Y").generate(
            6
        ),
    }


def relation(name, tuples):
    return TemporalRelation(TemporalSchema(name, "Id", "Seq"), list(tuples))


def plan_for(text, cat):
    return optimize(translate(parse_query(text), cat))


def generic_rows(plan, cat, **execution):
    """``plan`` evaluated through the row path: the join executed on its
    own — so its parent is not a projection and it iterates concatenated
    rows — and every operator above it applied here, row by row."""
    if isinstance(plan, LJoin):
        joined = execute_hybrid(plan, cat, **execution)
        return joined.rows, joined.schema
    rows, schema = generic_rows(plan.child, cat, **execution)
    if isinstance(plan, LSelect):
        keep = plan.predicate.compile_against(schema)
        return [row for row in rows if keep(row)], schema
    if isinstance(plan, LDistinct):
        return list(dict.fromkeys(rows)), schema
    assert isinstance(plan, LProject)
    readers = [expr.compile_against(schema) for _, expr in plan.items]
    return (
        [tuple(read(row) for read in readers) for row in rows],
        plan.schema(),
    )


def check(text, cat, backend, mode, plan=None):
    """Gathered == generic as lists; == conventional as multisets.
    Returns the hybrid execution."""
    plan = plan or plan_for(text, cat)

    def planner():
        return TemporalJoinPlanner(backend=backend, **MODES[mode])

    executed = execute_hybrid(plan, cat, planner=planner())
    expected, schema = generic_rows(plan, cat, planner=planner())
    assert executed.schema == schema
    assert executed.rows == expected  # order-exact
    if text is not None:
        oracle = run_query(text, cat, streams=False).rows
        assert Counter(executed.rows) == Counter(oracle)
    return executed


QUERIES = {
    "during-swapped": RANGES
    + "retrieve (A = a.Seq, B = b.Seq) where a during b",
    "contains-unswapped": RANGES
    + "retrieve (B = b.Seq, A = a.Seq) where b contains a",
    "overlap-pushed-selection": RANGES
    + "retrieve (A = a.Seq, B = b.Seq, S = a.ValidFrom) "
    "where a.Seq < 70 and (a overlap b)",
    "before": RANGES + "retrieve (A = a.Seq, B = b.Seq) where a before b",
    "reorder-repeat-endpoints": RANGES
    + "retrieve (T = b.ValidTo, A = a.Seq, F = a.ValidFrom, "
    "A2 = a.Seq, B = b.Seq, I = b.Id) where a during b",
    "single-column": RANGES + "retrieve (B = b.Seq) where a during b",
    "unique": RANGES + "retrieve unique (B = b.Seq) where a during b",
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("query", QUERIES)
def test_gathered_projection_equals_row_path(query, backend, mode):
    cat = catalog(60 if query == "before" else 150)
    executed = check(QUERIES[query], cat, backend, mode)
    assert executed.rows
    assert len(executed.stream_joins) == 1


@pytest.mark.parametrize("backend", ("columnar", "fused", "auto"))
def test_sharded_plan_really_runs_sharded(backend):
    """The inline-2 cases above are only worth their name if the
    planner picks the parallel alternative at this size."""
    executed = check(QUERIES["during-swapped"], catalog(), backend, "inline-2")
    (info,) = executed.stream_joins
    assert info.parallel is not None
    assert info.output_rows == len(executed.rows)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_residual_conjunct_above_the_join(backend, mode):
    """A Select between the projection and the join: the projection
    narrows the Select, which iterates the join's concatenated rows."""
    cat = catalog()
    plan = plan_for(QUERIES["during-swapped"], cat)
    residual = Compare(Attr("a.Seq"), "<", Attr("b.Seq"))
    plan = replace(plan, child=LSelect(plan.child, residual))
    executed = check(None, cat, backend, mode, plan=plan)
    oracle = run_query(
        RANGES + "retrieve (A = a.Seq, B = b.Seq) "
        "where a during b and a.Seq < b.Seq",
        cat,
        streams=False,
    ).rows
    assert len(executed.stream_joins) == 1
    assert Counter(executed.rows) == Counter(oracle) and oracle


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_computed_item_takes_the_row_path(backend, mode):
    cat = catalog()
    plan = plan_for(QUERIES["during-swapped"], cat)
    assert isinstance(plan, LProject) and isinstance(plan.child, LJoin)
    plan = replace(plan, items=plan.items + (("K", Literal(7)),))
    tracer = Tracer("late")
    previous = set_tracer(tracer)
    try:
        executed = check(None, cat, backend, mode, plan=plan)
    finally:
        set_tracer(previous)
    assert executed.rows and {row[2] for row in executed.rows} == {7}
    assert [s.attributes["late"] for s in tracer.find("bridge:assemble")] == [
        False,  # the projection computes, so it iterates rows
        False,  # generic_rows' bare join
    ]


def empty_side_catalogs():
    full = catalog(40)
    yield "empty-left", {"X": relation("X", []), "Y": full["Y"]}
    yield "empty-right", {"X": full["X"], "Y": relation("Y", [])}
    yield "both-empty", {"X": relation("X", []), "Y": relation("Y", [])}
    yield "empty-result", {
        "X": relation("X", [TemporalTuple("x", 0, 200, 300)]),
        "Y": relation("Y", [TemporalTuple("y", 0, 0, 100)]),
    }


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "cat", [pytest.param(c, id=i) for i, c in empty_side_catalogs()]
)
@pytest.mark.parametrize("query", ("during-swapped", "before"))
def test_empty_sides_and_empty_results(query, cat, backend, mode):
    executed = check(QUERIES[query], cat, backend, mode)
    assert executed.rows == []
    assert executed.schema.attributes == ("A", "B")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_selection_that_empties_a_side(backend, mode):
    text = RANGES + (
        "retrieve (A = a.Seq, B = b.Seq) "
        "where a.Seq < 0 and (a overlap b)"
    )
    assert check(text, catalog(40), backend, mode).rows == []


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_duplicate_input_rows_are_preserved(backend, mode):
    xs = [TemporalTuple("x", 1, 5, 8)] * 3 + [TemporalTuple("x2", 2, 6, 7)]
    ys = [TemporalTuple("y", 9, 0, 20)] * 2
    cat = {"X": relation("X", xs), "Y": relation("Y", ys)}
    executed = check(QUERIES["during-swapped"], cat, backend, mode)
    assert Counter(executed.rows) == {(1, 9): 6, (2, 9): 2}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_under_a_budget(backend, mode):
    """Governance is the caller's token: a cap the join stays under
    changes nothing, one it breaches ends the query."""
    with governed(budget=QueryBudget(workspace_tuple_cap=10_000)):
        executed = check(QUERIES["during-swapped"], catalog(), backend, mode)
    assert executed.rows
    with governed(budget=QueryBudget(workspace_tuple_cap=1)):
        with pytest.raises(BudgetExceededError):
            check(QUERIES["during-swapped"], catalog(), backend, mode)


@pytest.mark.parametrize("backend", BACKENDS)
def test_stream_joins_are_recorded_in_plan_post_order(backend):
    """Two stream joins under a hash join, which drains its right input
    first: ``stream_joins`` still lists the left subtree's join first."""
    cat = catalog(40)
    left = plan_for(
        RANGES + "retrieve (A = a.Seq, B = b.Seq) where a during b", cat
    ).child
    right = plan_for(
        "range of c is X range of d is Y "
        "retrieve (C = c.Seq, D = d.Seq) where d overlap c",
        cat,
    ).child
    top = LJoin(left, right, Compare(Attr("a.Seq"), "=", Attr("c.Seq")))
    plan = LProject(top, (("A", Attr("a.Seq")), ("D", Attr("d.Seq"))))
    executed = check(None, cat, backend, "serial", plan=plan)
    assert executed.rows
    assert [j.operator.value for j in executed.stream_joins] == [
        "contain-join",
        "overlap-join",
    ]


def test_bridge_spans_sit_under_the_stream_join():
    cat = catalog()
    result = run_query(
        QUERIES["overlap-pushed-selection"], cat, streams=True, trace=True
    )
    tracer = result.trace
    (join,) = [s for s in tracer.spans if s.name.startswith("stream-join:")]
    (loaded,) = tracer.find("bridge:rows-to-relation")
    (assembled,) = tracer.find("bridge:assemble")
    assert loaded.parent_id == assembled.parent_id == join.span_id
    assert loaded.attributes["rows"] == 70 + 150
    assert assembled.attributes == {
        "late": True,
        "columns_gathered": 3,
        "rows": len(result.rows),
    }


# ----------------------------------------------------------------------
# 0 and 1 output rows through each consumer of the join's gather
# ----------------------------------------------------------------------
def spans(name, *rows):
    """A relation of ``(Seq, ValidFrom, ValidTo)`` rows."""
    return relation(
        name, [TemporalTuple(f"{name}{i}", *row) for i, row in enumerate(rows)]
    )


#: ``a during b`` emitting no row and exactly one, each side non-empty.
FEW_ROWS = {
    "no-row": {
        "X": spans("X", (1, 5, 8), (2, 30, 40)),
        "Y": spans("Y", (9, 10, 20)),
    },
    "one-row": {
        "X": spans("X", (1, 30, 40), (2, 5, 8)),
        "Y": spans("Y", (9, 0, 20)),
    },
}
NARROWED = {
    "one-position": RANGES + "retrieve (B = b.Seq) where a during b",
    "three-positions": RANGES
    + "retrieve (A = a.Seq, B = b.Seq, T = b.ValidTo) where a during b",
}


@pytest.mark.parametrize("backend", ("tuple", "columnar"))
@pytest.mark.parametrize("cat", FEW_ROWS)
@pytest.mark.parametrize("query", NARROWED)
def test_few_rows_narrowed(query, cat, backend):
    executed = check(NARROWED[query], FEW_ROWS[cat], backend, "serial")
    assert len(executed.rows) == (cat == "one-row")
    (info,) = executed.stream_joins
    assert info.output_rows == len(executed.rows)


@pytest.mark.parametrize("backend", ("tuple", "columnar"))
@pytest.mark.parametrize("cat", FEW_ROWS)
def test_few_rows_iterated(cat, backend):
    """The join at the root of the plan: its parent iterates rows."""
    cat = FEW_ROWS[cat]
    join = plan_for(NARROWED["three-positions"], cat).child
    assert isinstance(join, LJoin)
    executed = execute_hybrid(
        join, cat, planner=TemporalJoinPlanner(backend=backend)
    )
    assert len(executed.stream_joins) == 1
    oracle = compile_plan(join, cat).run()
    assert len(oracle) <= 1
    assert Counter(executed.rows) == Counter(oracle)


THREE = (
    "range of a is X range of b is Y range of c is Z "
    "retrieve (A = a.Seq, C = c.Seq) where (a during b) and (c during a)"
)
#: The inner join's rows and the outer join's, whichever pair of
#: variables the plan joins first: (a during b) and (c during a) agree.
NESTED = {
    "inner-none": (
        {
            "X": spans("X", (1, 5, 8)),
            "Y": spans("Y", (9, 10, 20)),
            "Z": spans("Z", (7, 50, 60)),
        },
        0,
        0,
    ),
    "inner-one-outer-none": (
        {
            "X": spans("X", (1, 5, 8), (2, 30, 40)),
            "Y": spans("Y", (9, 0, 20)),
            "Z": spans("Z", (7, 31, 32)),
        },
        1,
        0,
    ),
    "inner-one-outer-one": (
        {
            "X": spans("X", (1, 5, 8), (2, 30, 40)),
            "Y": spans("Y", (9, 0, 20)),
            "Z": spans("Z", (7, 6, 7), (8, 50, 60)),
        },
        1,
        1,
    ),
}


@pytest.mark.parametrize("backend", ("tuple", "columnar"))
@pytest.mark.parametrize("case", NESTED)
def test_few_rows_batched_into_a_second_stream_join(case, backend):
    """The inner join answers ``batch()``: its gathered columns are the
    outer join's operand."""
    cat, inner_rows, outer_rows = NESTED[case]
    executed = execute_hybrid(
        plan_for(THREE, cat), cat, planner=TemporalJoinPlanner(backend=backend)
    )
    assert [j.output_rows for j in executed.stream_joins] == [
        inner_rows,
        outer_rows,
    ]
    oracle = run_query(THREE, cat, streams=False).rows
    assert Counter(executed.rows) == Counter(oracle)
    assert len(executed.rows) == outer_rows


@pytest.mark.parametrize("backend", ("tuple", "columnar"))
@pytest.mark.parametrize("kept, rows", [(2, 1), (3, 0)])
def test_a_selection_that_keeps_one_row(kept, rows, backend):
    """One row of an unsorted relation survives the selection below
    the join; it matches or it does not."""
    cat = {
        "X": spans("X", (1, 6, 7), (2, 5, 8), (3, 25, 28), (4, 1, 9)),
        "Y": spans("Y", (9, 0, 20)),
    }
    text = RANGES + (
        f"retrieve (A = a.Seq, B = b.Seq) where a.Seq = {kept} "
        "and (a during b)"
    )
    executed = check(text, cat, backend, "serial")
    assert len(executed.rows) == rows
    (info,) = executed.stream_joins
    assert info.output_rows == rows
