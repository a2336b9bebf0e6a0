"""Column-first stream-join operands: the hybrid executor turns each
side's rows into two endpoint columns (payload = row position) and
builds ``TemporalTuple`` s only for a tuple-at-a-time consumer.

The reference throughout is the bridge this replaced, kept here as the
loop version: one validated index-surrogate tuple per input row, the
planner run over ``TemporalRelation`` operands, one concatenated row
per output pair."""

import random
from collections import namedtuple
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import LJoin, LProject, optimize
from repro.cli import PARALLEL_DEFAULT_QUEL
from repro.columnar import IntervalColumns
from repro.columnar.fused import LazyPairs
from repro.errors import ExecutionError, WorkspaceOverflowError
from repro.model import (
    TE_ASC,
    TE_DESC,
    TS_ASC,
    TS_DESC,
    TS_TE_ASC,
    TS_TE_DESC,
    TemporalRelation,
    TemporalSchema,
    TemporalTuple,
    sort_tuples,
)
from repro.obs import Tracer, set_tracer
from repro.obs.audit import build_record
from repro.obs.explain import render_explain
from repro.optimizer import (
    TemporalJoinPlanner,
    execute_hybrid,
    recognize_stream_join,
)
from repro.optimizer.cost import expected_output_for
from repro.query import parse_query, run_query, translate
from repro.resilience.recovery import RecoveryPolicy
from repro.stats import collect_statistics
from repro.streams import (
    TemporalOperator,
    TupleStream,
    lookup,
)
from repro.workload import (
    FacultyWorkload,
    PoissonWorkload,
    fixed_duration,
    uniform_duration,
)

from tests.backends import PHYSICAL_BACKENDS

BACKENDS = ("tuple", "columnar", "fused", "auto")
#: One run per distinct path (``fused`` is a second name for
#: ``columnar``), plus ``auto``, the name the benchmark passes.
RANKED = PHYSICAL_BACKENDS + ("auto",)
BATCH = ("columnar", "fused", "auto")
RANGES = "range of a is X range of b is Y "
DURING = RANGES + "retrieve (A = a.Seq, B = b.Seq) where a during b"
OVERLAP = RANGES + "retrieve (A = a.Seq, B = b.Seq) where a overlap b"
BEFORE = RANGES + "retrieve (A = a.Seq, B = b.Seq) where a before b"
AFTER = RANGES + "retrieve (A = a.Seq, B = b.Seq) where a after b"


def relation(name, tuples):
    return TemporalRelation(TemporalSchema(name, "Id", "Seq"), list(tuples))


def catalog(n=150):
    return {
        "X": PoissonWorkload(n, 0.4, fixed_duration(4), name="X").generate(5),
        "Y": PoissonWorkload(n, 0.4, fixed_duration(30), name="Y").generate(
            6
        ),
    }


def shuffled(cat, seed=3):
    out = {}
    for name, rel in cat.items():
        tuples = list(rel.tuples)
        random.Random(seed).shuffle(tuples)
        out[name] = relation(name, tuples)
    return out


def plan_for(text, cat):
    return optimize(translate(parse_query(text), cat))


# ----------------------------------------------------------------------
# (a) structural pin: no tuple is built for a batch backend
# ----------------------------------------------------------------------
@pytest.fixture
def constructions(monkeypatch):
    """Counts every ``TemporalTuple`` constructed from here on."""
    count = [0]
    validate = TemporalTuple.__post_init__

    def counting(self):
        count[0] += 1
        validate(self)

    monkeypatch.setattr(TemporalTuple, "__post_init__", counting)
    return count


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("text", (DURING, OVERLAP), ids=("during", "overlap"))
@pytest.mark.parametrize("arrange", (dict, shuffled), ids=("sorted", "shuffled"))
def test_tuples_built_per_query(arrange, text, backend, constructions):
    """Under STRICT and DEGRADE: a clean run never reaches a rung that
    is tuple-at-a-time by nature, and the answer is STRICT's."""
    cat = arrange(catalog())
    plan = plan_for(text, cat)
    expected = len(cat["X"]) + len(cat["Y"]) if backend == "tuple" else 0
    rows = None
    for recovery in (RecoveryPolicy.STRICT, RecoveryPolicy.DEGRADE):
        constructions[0] = 0
        executed = execute_hybrid(
            plan,
            cat,
            planner=TemporalJoinPlanner(backend=backend),
            recovery=recovery,
        )
        assert executed.rows
        (info,) = executed.stream_joins
        assert info.chosen.startswith("stream")
        assert constructions[0] == expected, recovery
        rows = rows or executed.rows
        assert executed.rows == rows, recovery


MIRRORED_CELLS = (
    (TemporalOperator.CONTAIN_JOIN, TE_DESC, TE_DESC),
    (TemporalOperator.CONTAIN_SEMIJOIN, TE_DESC, TS_DESC),
    (TemporalOperator.OVERLAP_JOIN, TE_DESC, TE_DESC),
    (TemporalOperator.SELF_CONTAINED_SEMIJOIN, TE_DESC, None),
)


@pytest.mark.parametrize("backend", ("columnar", "fused"))
@pytest.mark.parametrize(
    "operator, x_order, y_order", MIRRORED_CELLS,
    ids=[cell[0].value for cell in MIRRORED_CELLS],
)
def test_mirrored_cell_builds_no_tuples(
    operator, x_order, y_order, backend, constructions
):
    """A lower-half cell reverses time on the columns: operands born as
    columns reach the kernel, and the output leaves it, without one
    ``TemporalTuple`` — and the positions are the tuple backend's."""
    entry = lookup(operator, x_order, y_order)
    assert entry.mirrored
    # The containing (X) side mixes durations, so it nests within itself.
    sides = (
        ("X", PoissonWorkload(150, 0.4, uniform_duration(5, 40)), entry.x_order),
        ("Y", PoissonWorkload(150, 0.4, fixed_duration(4)), entry.y_order),
    )
    operands = {}
    for seed, (name, workload, order) in enumerate(sides, start=5):
        if order is not None:
            rel = workload.generate(seed)
            born = IntervalColumns.from_tuples(rel.tuples)
            operands[name] = IntervalColumns(
                born.ts, born.te, range(len(born)), None
            ).sorted_by(order)

    def run(on):
        return entry.build(
            *(TupleStream.from_columns(c, n) for n, c in operands.items()),
            backend=on,
        ).run()

    constructions[0] = 0
    out = run(backend)
    if operator.shape == "join":
        assert isinstance(out, LazyPairs) and not out.materialized
        out.index_columns()
    assert len(out) > 0
    assert constructions[0] == 0
    assert [c.tuples_built for c in operands.values()] == [0] * len(operands)
    # Payloads are row positions, the tuple backend's surrogates.
    if operator.shape == "join":
        expected = [(a.surrogate, b.surrogate) for a, b in run("tuple")]
    else:
        expected = [tup.surrogate for tup in run("tuple")]
    assert list(out) == expected


# ----------------------------------------------------------------------
# (b) the bulk check raises what the per-row constructor raised
# ----------------------------------------------------------------------
Raw = namedtuple("Raw", "surrogate value valid_from valid_to")
GOOD = [TemporalTuple(f"g{i}", i, i, i + 5) for i in range(40)]
OFFENDERS = {
    "equal": (4, 4),
    "reversed": (9, 4),
    "bool-from": (True, 7),
    "bool-to": (0, True),
    "str-to": (3, "7"),
    "str-from": ("3", 7),
    "float": (3.0, 7),
    "none": (None, 7),
}


def constructor_error(start, end):
    with pytest.raises(Exception) as raised:
        TemporalTuple(0, None, start, end)
    return raised.type


@pytest.mark.parametrize("backend", RANKED)
@pytest.mark.parametrize("side", ("X", "Y"))
@pytest.mark.parametrize("text", (DURING, OVERLAP), ids=("during", "overlap"))
@pytest.mark.parametrize("offender", OFFENDERS)
def test_invalid_endpoints_raise_as_the_tuple_constructor(
    offender, text, side, backend
):
    start, end = OFFENDERS[offender]
    cat = {"X": relation("X", GOOD), "Y": relation("Y", GOOD)}
    cat[side] = relation(
        side, GOOD[:7] + [Raw("bad", 99, start, end)] + GOOD[7:]
    )
    plan = plan_for(text, cat)
    with pytest.raises(constructor_error(start, end)):
        execute_hybrid(plan, cat, planner=TemporalJoinPlanner(backend=backend))


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_first_offending_row_wins(backend):
    """A later str endpoint makes the bulk conversion fail first; the
    second pass still reports the earlier empty interval."""
    rows = GOOD[:3] + [Raw("e", 1, 5, 5)] + GOOD[3:] + [Raw("s", 2, "a", 9)]
    cat = {"X": relation("X", rows), "Y": relation("Y", GOOD)}
    with pytest.raises(constructor_error(5, 5)):
        execute_hybrid(
            plan_for(DURING, cat),
            cat,
            planner=TemporalJoinPlanner(backend=backend),
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_pruned_endpoint_with_a_bad_survivor(backend):
    """Before reads one endpoint per side; the other is synthesised,
    so only the surviving one can offend."""
    rows = GOOD[:3] + [Raw("s", 2, 1, "9")]
    cat = {"X": relation("X", rows), "Y": relation("Y", GOOD)}
    with pytest.raises(TypeError):
        execute_hybrid(
            plan_for(BEFORE, cat),
            cat,
            planner=TemporalJoinPlanner(backend=backend),
        )


OUTSIDE_INT64 = {
    # The model admits any int; an ``array('q')`` column does not.
    "ValidTo=2^63": (DURING, Raw("big", 99, 3, 2**63), 2**63),
    # Before prunes b's ValidTo and a's ValidFrom; the bridge
    # synthesises them one timepoint off the surviving endpoint.
    "start+1": (BEFORE, Raw("hi", 99, 2**63 - 1, 2**63 + 4), 2**63),
    "end-1": (AFTER, Raw("lo", 99, -(2**63) - 4, -(2**63)), -(2**63) - 1),
}


@pytest.mark.parametrize("backend", ("tuple", "columnar", "fused"))
@pytest.mark.parametrize("case", OUTSIDE_INT64)
def test_endpoint_outside_int64_is_a_typed_error(case, backend):
    """What ``streams=False`` answers, the stream engine refuses by
    row and value, not with ``array``'s bare ``OverflowError``."""
    text, offender, value = OUTSIDE_INT64[case]
    cat = {
        "X": relation("X", GOOD),
        "Y": relation("Y", GOOD[:7] + [offender] + GOOD[7:]),
    }
    assert run_query(text, cat, streams=False).rows
    with pytest.raises(ExecutionError, match=f"row 7: endpoint {value} "):
        execute_hybrid(
            plan_for(text, cat),
            cat,
            planner=TemporalJoinPlanner(backend=backend),
        )
    with pytest.raises(ExecutionError):
        run_query(text, cat, streams=True)


# ----------------------------------------------------------------------
# (c) rows list-equal to the replaced bridge's
# ----------------------------------------------------------------------
def bridged(rows, schema):
    """The replaced ``_rows_to_relation``: rows -> index-surrogate
    tuples, a pruned endpoint synthesised one timepoint away."""
    (variable,) = {name.partition(".")[0] for name in schema.attributes}
    names = (f"{variable}.ValidFrom", f"{variable}.ValidTo")
    read_from, read_to = (
        schema.reader(name) if name in schema else None for name in names
    )
    tuples = []
    for index, row in enumerate(rows):
        start = read_from(row) if read_from else read_to(row) - 1
        end = read_to(row) if read_to else read_from(row) + 1
        tuples.append(TemporalTuple(index, None, start, end))
    return TemporalRelation(
        TemporalSchema("bridge", "RowIndex", "Payload"), tuples
    )


def reference_rows(plan, cat, planner, recovery):
    """``plan`` (a projection over one recognised join) through the
    tuple-born operand path, row by row."""
    assert isinstance(plan, LProject) and isinstance(plan.child, LJoin)
    join = plan.child
    operator, swapped = recognize_stream_join(join)
    left = execute_hybrid(join.left, cat)
    right = execute_hybrid(join.right, cat)
    sides = [(bridged(s.rows, s.schema), s.rows) for s in (left, right)]
    (x_rel, x_rows), (y_rel, y_rows) = sides[::-1] if swapped else sides
    results, _ = planner.execute(operator, x_rel, y_rel, recovery=recovery)
    joined = []
    for x, y in results:
        x_row, y_row = x_rows[x.surrogate], y_rows[y.surrogate]
        joined.append(y_row + x_row if swapped else x_row + y_row)
    readers = [e.compile_against(join.schema()) for _, e in plan.items]
    return [tuple(read(row) for read in readers) for row in joined]


def assert_same_as_reference(text, cat, make_planner, recovery):
    plan = plan_for(text, cat)
    try:
        expected = reference_rows(plan, cat, make_planner(), recovery)
    except WorkspaceOverflowError:  # a 3-tuple workspace under STRICT
        with pytest.raises(WorkspaceOverflowError):
            execute_hybrid(
                plan, cat, planner=make_planner(), recovery=recovery
            )
        return None
    executed = execute_hybrid(
        plan, cat, planner=make_planner(), recovery=recovery
    )
    assert executed.rows == expected  # order-exact
    return executed


def catalogs():
    full = catalog()
    yield "pre-sorted", full
    yield "shuffled", shuffled(full)
    yield "all-equal-endpoints", {
        "X": relation("X", [TemporalTuple(f"x{i}", i, 5, 9) for i in range(20)]),
        "Y": relation("Y", [TemporalTuple(f"y{i}", i, 5, 9) for i in range(20)]),
    }
    yield "tied-starts", {
        "X": relation(
            "X",
            [TemporalTuple(f"x{i}", i, 5 + i % 3, 9 - i % 2) for i in range(30)],
        ),
        "Y": relation(
            "Y",
            [TemporalTuple(f"y{i}", i, 1 + i % 4, 12 + i % 3) for i in range(30)],
        ),
    }
    yield "duplicate-rows", {
        "X": relation(
            "X", [TemporalTuple("x", 1, 5, 8)] * 3 + [TemporalTuple("x2", 2, 6, 7)]
        ),
        "Y": relation("Y", [TemporalTuple("y", 9, 0, 20)] * 2),
    }
    yield "empty-side", {"X": relation("X", []), "Y": full["Y"]}
    yield "single-row", {
        "X": relation("X", [TemporalTuple("x", 1, 5, 8)]),
        "Y": relation("Y", [TemporalTuple("y", 9, 0, 20)]),
    }


CATALOGS = dict(catalogs())
EXECUTIONS = {
    "serial": ({}, RecoveryPolicy.STRICT),
    "inline-2": (
        {"parallelism": 2, "parallel_mode": "inline"},
        RecoveryPolicy.STRICT,
    ),
    "strict": ({}, RecoveryPolicy.STRICT),
    "degrade-clean": ({}, RecoveryPolicy.DEGRADE),
    "inline-2-degrade": (
        {"parallelism": 2, "parallel_mode": "inline"},
        RecoveryPolicy.DEGRADE,
    ),
    # A 3-tuple workspace on every backend: STRICT refuses with the
    # overflow (the id names the nested loop that used to answer it),
    # DEGRADE spills.
    "cap-nested-loop": ({"workspace_budget": 3}, RecoveryPolicy.STRICT),
    "cap-spill": ({"workspace_budget": 3}, RecoveryPolicy.DEGRADE),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize(
    "text",
    (DURING, OVERLAP, BEFORE, AFTER),
    ids=("during", "overlap", "before-pruned", "after-pruned"),
)
@pytest.mark.parametrize("cat", CATALOGS)
def test_rows_equal_the_tuple_bridge(cat, text, execution, backend):
    options, recovery = EXECUTIONS[execution]
    assert_same_as_reference(
        text,
        CATALOGS[cat],
        lambda: TemporalJoinPlanner(backend=backend, **options),
        recovery,
    )


@pytest.mark.parametrize("backend", BATCH)
def test_the_cap_really_forces_the_fallbacks(backend):
    """The cap overflows the chosen stream cell: STRICT raises the
    overflow itself, DEGRADE answers through the spill."""
    cat = CATALOGS["shuffled"]
    options, recovery = EXECUTIONS["cap-nested-loop"]
    with pytest.raises(WorkspaceOverflowError):
        execute_hybrid(
            plan_for(DURING, cat),
            cat,
            planner=TemporalJoinPlanner(backend=backend, **options),
            recovery=recovery,
        )
    options, recovery = EXECUTIONS["cap-spill"]
    executed = assert_same_as_reference(
        DURING,
        cat,
        lambda: TemporalJoinPlanner(backend=backend, **options),
        recovery,
    )
    (info,) = executed.stream_joins
    assert executed.rows and info.chosen.startswith("stream")
    fallbacks = info.metrics.resilience["fallbacks"]
    assert [f["kind"] for f in fallbacks] == ["spill"]


# ----------------------------------------------------------------------
# (d) statistics and the sort read the columns, to the same effect
# ----------------------------------------------------------------------
intervals = st.lists(
    st.tuples(st.integers(-500, 500), st.integers(1, 60)), max_size=40
)


def as_columns(pairs):
    tuples = [
        TemporalTuple(i, None, start, start + length)
        for i, (start, length) in enumerate(pairs)
    ]
    columns = IntervalColumns.from_tuples(tuples)
    return tuples, IntervalColumns(
        columns.ts, columns.te, range(len(tuples)), None
    )


@settings(max_examples=200, deadline=None)
@given(intervals)
def test_statistics_of_columns_equal_statistics_of_tuples(pairs):
    tuples, columns = as_columns(pairs)
    assert asdict(collect_statistics(columns)) == asdict(
        collect_statistics(tuples)
    )
    assert columns.tuples_built == 0


@settings(max_examples=200, deadline=None)
@given(
    intervals,
    st.sampled_from(
        (TS_ASC, TE_ASC, TS_DESC, TE_DESC, TS_TE_ASC, TS_TE_DESC)
    ),
)
def test_argsort_is_the_stable_tuple_sort(pairs, order):
    tuples, columns = as_columns(pairs)
    expected = sort_tuples(tuples, order)
    ordered = columns.sorted_by(order)
    assert ordered.order == order
    assert list(ordered.payload) == [t.surrogate for t in expected]
    assert list(ordered.tuples) == expected
    ordered.verify_order()
    if len(order.keys) == 1:
        # No argsort for columns already in order: the payload is
        # shared (compound orders always argsort).
        assert ordered.sorted_by(order).payload is ordered.payload
        assert (ordered.payload is columns.payload) == (
            order.is_sorted(tuples)
        )


# ----------------------------------------------------------------------
# (e) auto prices what differs between the two batch backends
# ----------------------------------------------------------------------
def slotted(n, duration, name, seed):
    """``bench/workloads.py``'s deep_state arrivals: one per 2-chronon
    slot, arrival order shuffled."""
    rng = random.Random(seed)
    tuples = []
    for i in range(n):
        start = 2 * i + rng.randrange(2)
        tuples.append(TemporalTuple(f"{name}{i}", i, start, start + duration(rng)))
    rng.shuffle(tuples)
    return relation(name, tuples)


def assert_auto_sweeps_the_plain_cell(chosen, operator):
    """``auto``'s pick on shuffled operands: the one batch label, on the
    TS^/TS^ cell itself (not its mirror), both operands sorted first."""
    assert (chosen.kind, chosen.backend) == ("stream", "columnar")
    assert chosen.entry is lookup(operator, TS_ASC, TS_ASC)
    assert (chosen.sort_x, chosen.sort_y) == (True, True)


@pytest.mark.parametrize("scale", (1, 16))
def test_auto_picks_columnar_on_the_fig5_contain_join(scale):
    """~14 pairs per X tuple in runs of ~14, ~40 live."""
    n = 6000 // scale
    x = PoissonWorkload(n, 0.5, fixed_duration(40), name="X").generate(1)
    y = PoissonWorkload(n, 0.5, fixed_duration(10), name="Y").generate(2)
    chosen = TemporalJoinPlanner(backend="auto").choose(
        TemporalOperator.CONTAIN_JOIN, x, y
    )
    assert_auto_sweeps_the_plain_cell(chosen, TemporalOperator.CONTAIN_JOIN)
    assert chosen.cost_breakdown["expected_output"] == pytest.approx(
        n * 0.5 * 30, rel=0.1
    )


@pytest.mark.parametrize("scale", (1, 16))
def test_auto_picks_columnar_on_an_output_heavy_shallow_join(scale):
    """tie_overlap's shape: 32 pairs per tuple modelled, ~32 live."""
    n = 7000 // scale

    def grid_steps(rng):
        return 16 * rng.randint(1, 3)

    x = slotted(n, grid_steps, "x", 1)
    y = slotted(n, grid_steps, "y", 2)
    chosen = TemporalJoinPlanner(backend="auto").choose(
        TemporalOperator.OVERLAP_JOIN, x, y
    )
    assert_auto_sweeps_the_plain_cell(chosen, TemporalOperator.OVERLAP_JOIN)
    assert chosen.cost_breakdown["expected_workspace"] < 40
    assert chosen.cost_breakdown["expected_output"] == pytest.approx(
        n * 0.5 * 64, rel=0.1
    )


@pytest.mark.parametrize("scale", (1, 16))
def test_auto_keeps_columnar_on_a_deep_state_join(scale):
    n = 2500 // scale  # deep_state: ~700 live, under one pair per tuple
    x = slotted(n, uniform_duration(1280, 1600), "x", 1)
    y = slotted(n, fixed_duration(1552), "y", 2)
    chosen = TemporalJoinPlanner(backend="auto").choose(
        TemporalOperator.CONTAIN_JOIN, x, y
    )
    assert_auto_sweeps_the_plain_cell(chosen, TemporalOperator.CONTAIN_JOIN)
    assert chosen.cost_breakdown["expected_workspace"] > 500


def audited_contain_join(text, catalog):
    """(expected_output, output_rows) of the one stream join, as the
    audit record lists them side by side."""
    result = run_query(text, catalog, streams=True)
    (join,) = build_record(text, result=result)["stream_joins"]
    assert join["operator"] == "contain-join"
    estimates = join["alternatives"][0]["cost_breakdown"]
    return estimates["expected_output"], join["output_rows"]


def test_a_contain_join_whose_x_is_shorter_on_average_is_not_priced_at_zero():
    """deep_state: X lifespans 1280-1600 long (mean 1440) around Y's
    1552.  The positive part of the mean difference is 0; the mean of
    the positive part — the X tuples that *are* longer — is what comes
    out (4 277 rows on the benchmark's seed)."""
    x = slotted(2500, uniform_duration(1280, 1600), "X", 1)
    y = slotted(2500, fixed_duration(1552), "Y", 2)
    expected, measured = audited_contain_join(
        RANGES + "retrieve (A = a.Seq, B = b.Seq) where b during a",
        {"X": x, "Y": y},
    )
    assert measured > 2000
    assert measured / 2 <= expected <= measured * 2


@pytest.mark.parametrize("seed", (0, 7))
def test_a_self_contain_join_is_not_priced_at_zero(seed):
    """Both sides one relation, so the mean durations are equal: the
    Faculty self contain-join audited ``expected_output: 0.0`` against
    2 060 rows (seed 7)."""
    faculty = FacultyWorkload(
        faculty_count=200, continuous=True, full_fraction=1.0
    ).generate(seed=seed)
    expected, measured = audited_contain_join(
        PARALLEL_DEFAULT_QUEL, {"Faculty": faculty}
    )
    assert measured > 1000
    assert measured / 2 <= expected <= measured * 2


def test_fixed_durations_keep_the_mean_difference():
    """No spread (max = mean): the window is the parent's
    ``E[d_x] - E[d_y]``, or nothing when Y is the longer."""
    x = collect_statistics(
        PoissonWorkload(400, 0.5, fixed_duration(40), name="X").generate(1)
    )
    y = collect_statistics(
        PoissonWorkload(400, 0.5, fixed_duration(10), name="Y").generate(2)
    )
    contain = TemporalOperator.CONTAIN_JOIN
    assert expected_output_for(contain, x, y) == pytest.approx(
        y.cardinality * x.arrival_rate * 30
    )
    assert expected_output_for(contain, y, x) == 0.0


# ----------------------------------------------------------------------
# observability: the join row says what the bridge built; the
# stream-join span is its time
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("arrange", (dict, shuffled), ids=("sorted", "shuffled"))
def test_stream_join_span_reports_tuples_built_and_sorted(arrange, backend):
    cat = arrange(catalog())
    plan = plan_for(DURING, cat)
    tracer = Tracer("bridge")
    previous = set_tracer(tracer)
    try:
        executed = execute_hybrid(
            plan, cat, planner=TemporalJoinPlanner(backend=backend)
        )
    finally:
        set_tracer(previous)
    (info,) = executed.stream_joins
    built = 300 if backend == "tuple" else 0
    assert info.tuples_built == built
    assert info.sorted is (arrange is shuffled)
    row = info.as_dict()
    assert (row["tuples_built"], row["sorted"]) == (built, arrange is shuffled)
    (join,) = [s for s in tracer.spans if s.name.startswith("stream-join:")]
    assert join.attributes == {}
    (loaded,) = tracer.find("bridge:rows-to-relation")
    assert loaded.attributes == {"rows": 300}
    assert loaded.parent_id == join.span_id
    text = render_explain(executed)
    assert f"tuples_built={built}  sorted={arrange is shuffled}" in text
