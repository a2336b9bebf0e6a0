"""A relation memoises its column forms (attribute columns, validated
endpoint arrays, statistics, the sort orders it has been read in) and
every query over it shares them.  That is safe only if nothing derives,
validates, sorts, builds tuples on, or writes into the wrong relation's
copy — pinned here."""

import gc
import random
import weakref
from array import array
from collections import Counter, namedtuple

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import optimize
from repro.columnar import IntervalColumns
from repro.errors import (
    BudgetExceededError,
    ExecutionError,
    StreamOrderError,
    WorkspaceOverflowError,
)
from repro.governance import QueryBudget, governed
from repro.model import (
    TE_ASC,
    TE_DESC,
    TS_ASC,
    TS_DESC,
    TS_TE_ASC,
    TS_TE_DESC,
    SortOrder,
    TemporalRelation,
    TemporalSchema,
    TemporalTuple,
    sort_tuples,
)
from repro.obs import Tracer, set_tracer
from repro.optimizer import TemporalJoinPlanner, execute_hybrid, integration
from repro.optimizer import planner as planner_module
from repro.query import parse_query, run_query, translate
from repro.resilience.executor import execute_entry
from repro.resilience.recovery import RecoveryPolicy
from repro.stats import collect_statistics
from repro.relational import temporal_scan
from repro.streams import TemporalOperator, lookup
from repro.workload import PoissonWorkload, fixed_duration

BACKENDS = ("tuple", "columnar", "fused", "auto")
#: ``None`` names no policy, which is STRICT (its id, ``legacy``, is
#: kept from when that was a mode of its own).
POLICIES = (None, RecoveryPolicy.STRICT, RecoveryPolicy.DEGRADE)
RANGES = "range of a is X range of b is Y "
DURING = RANGES + "retrieve (A = a.Seq, B = b.Seq) where a during b"


def relation(name, tuples):
    return TemporalRelation(TemporalSchema(name, "Id", "Seq"), list(tuples))


def catalog(n=150):
    """X in arrival order shuffled (every plan sorts it), Y sorted (its
    memoised arrays reach the kernels as they are)."""
    x = list(PoissonWorkload(n, 0.4, fixed_duration(4), name="X").generate(5))
    random.Random(3).shuffle(x)
    y = PoissonWorkload(n, 0.4, fixed_duration(30), name="Y").generate(6)
    return {"X": relation("X", x), "Y": relation("Y", y.tuples)}


def plan_for(text, cat):
    return optimize(translate(parse_query(text), cat))


def run(
    text, cat, backend, recovery=None, workspace_budget=None, **parallel
):
    policy = {} if recovery is None else {"recovery": recovery}
    return execute_hybrid(
        plan_for(text, cat),
        cat,
        planner=TemporalJoinPlanner(
            backend=backend, workspace_budget=workspace_budget, **parallel
        ),
        **policy,
    )


def columns_of_tuples(rel):
    return tuple(
        [getattr(t, name) for t in rel.tuples]
        for name in ("surrogate", "value", "valid_from", "valid_to")
    )


def assert_memo_is_the_tuples(rel):
    surrogates, values, starts, ends = columns_of_tuples(rel)
    assert rel.columns() == (surrogates, values, starts, ends)
    assert rel.endpoints == (array("q", starts), array("q", ends))
    assert rel.statistics == collect_statistics(list(rel.tuples))
    own = {id(column): column for column in rel.columns()}
    for order, view in rel.orders.items():
        # A kept view is what a fresh sort of the tuples gives ...
        expected = sort_tuples(rel.tuples, order)
        assert [rel.tuples[i] for i in view.permutation] == expected
        assert list(view.ts) == [t.valid_from for t in expected]
        assert list(view.te) == [t.valid_to for t in expected]
        # ... and so is every attribute column kept beside it.
        for key, column in view.gathered.items():
            assert column == [own[key][i] for i in view.permutation]


# ----------------------------------------------------------------------
# (i) a derived relation answers with its own columns
# ----------------------------------------------------------------------
DERIVATIONS = {
    "where": lambda rel: rel.where(lambda t: t.value % 2 == 0),
    "sorted_by": lambda rel: rel.sorted_by(TE_DESC),
    "replace_tuples": lambda rel: rel.replace_tuples(rel.tuples[:7]),
    "snapshot": lambda rel: rel.snapshot(rel.tuples[3].valid_from),
}


@pytest.mark.parametrize("derive", DERIVATIONS)
def test_a_derived_relation_has_its_own_columns(derive):
    cat = catalog()
    run(DURING, cat, "auto")  # fills every slot of X and Y
    source = cat["X"]
    assert_memo_is_the_tuples(source)
    derived = DERIVATIONS[derive](source)
    assert derived.endpoints is None and derived.statistics is None
    assert source.orders and derived.orders == {}
    assert derived.tuples != source.tuples
    assert derived.columns() == columns_of_tuples(derived)
    derived_cat = {"X": derived, "Y": cat["Y"]}
    assert Counter(run(DURING, derived_cat, "auto").rows) == Counter(
        run_query(DURING, derived_cat, streams=False).rows
    )
    assert_memo_is_the_tuples(derived)
    assert_memo_is_the_tuples(source)


# ----------------------------------------------------------------------
# (ii) two range variables over one relation share one memo
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_two_range_variables_over_one_relation(backend, monkeypatch):
    validations = []
    validated = integration._validated

    def counting(starts, ends):
        validations.append(len(starts))
        return validated(starts, ends)

    monkeypatch.setattr(integration, "_validated", counting)
    cat = {"X": catalog()["Y"]}
    text = (
        "range of a is X range of b is X "
        "retrieve (A = a.Seq, B = b.Seq) where a overlap b"
    )
    oracle = Counter(run_query(text, cat, streams=False).rows)
    for _ in range(2):
        executed = run(text, cat, backend)
        assert len(executed.stream_joins) == 1
        assert Counter(executed.rows) == oracle
        assert executed.stats.scans_started == 2
        assert executed.stats.rows_scanned == 2 * len(cat["X"])
    assert validations == [len(cat["X"])]  # once, not per variable or query
    assert_memo_is_the_tuples(cat["X"])


# ----------------------------------------------------------------------
# (iii) a failed validation is not remembered as clean
# ----------------------------------------------------------------------
Raw = namedtuple("Raw", "surrogate value valid_from valid_to")
GOOD = [TemporalTuple(f"g{i}", i, i, i + 5) for i in range(30)]
OFFENDERS = {
    "2^63": Raw("big", 99, 3, 2**63),
    "bool": Raw("bool", 99, True, 7),
    "float": Raw("float", 99, 3.0, 7),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("side", ("X", "Y"))
@pytest.mark.parametrize("offender", OFFENDERS)
def test_invalid_endpoints_raise_alike_on_every_query(offender, side, backend):
    cat = {"X": relation("X", GOOD), "Y": relation("Y", GOOD)}
    cat[side] = relation(side, GOOD[:7] + [OFFENDERS[offender]] + GOOD[7:])
    raised = []
    for _ in range(2):
        with pytest.raises(Exception) as error:
            run(DURING, cat, backend)
        raised.append((error.type, str(error.value)))
        assert cat[side].endpoints is None
    assert raised[0] == raised[1]
    expected = ExecutionError if offender == "2^63" else TypeError
    assert issubclass(raised[0][0], expected)


# ----------------------------------------------------------------------
# (iv) the tuples a tuple-at-a-time consumer builds are per query
# ----------------------------------------------------------------------
def join_row(text, cat, backend="auto"):
    """The one join row of an (untraced) run, in its dict form."""
    (join,) = run(text, cat, backend).stream_joins
    return join.as_dict()


def test_tuples_built_is_per_query_not_per_relation():
    cat = catalog()
    both = len(cat["X"]) + len(cat["Y"])
    assert [
        join_row(DURING, cat, backend)["tuples_built"]
        for backend in ("auto", "tuple", "fused", "tuple", "columnar")
    ] == [0, both, 0, both, 0]


# ----------------------------------------------------------------------
# (v) nothing writes into the shared columns
# ----------------------------------------------------------------------
def test_every_backend_and_rung_leaves_the_memo_alone():
    cat = catalog()
    expected = Counter(run_query(DURING, cat, streams=False).rows)
    rungs = set()
    for backend in BACKENDS:
        for policy in POLICIES:
            for workspace_budget in (None, 3):
                try:
                    executed = run(
                        DURING, cat, backend, policy, workspace_budget
                    )
                except WorkspaceOverflowError:
                    # Only DEGRADE answers an overflow: with the spill.
                    assert workspace_budget is not None
                    assert policy is not RecoveryPolicy.DEGRADE
                    continue
                assert Counter(executed.rows) == expected
                (info,) = executed.stream_joins
                resilience = info.metrics.resilience
                rungs.update(f["kind"] for f in resilience["fallbacks"])
        # A governance cap is no rung: it ends the query, DEGRADE or not.
        with governed(budget=QueryBudget(workspace_tuple_cap=3)):
            with pytest.raises(BudgetExceededError):
                run(DURING, cat, backend, RecoveryPolicy.DEGRADE)
    assert rungs == {"spill"}
    for backend in BACKENDS:
        for mode in ("inline", "process"):
            executed = run(
                DURING, cat, backend, parallelism=2, parallel_mode=mode
            )
            assert Counter(executed.rows) == expected
            (info,) = executed.stream_joins
            assert info.parallel["mode"] == mode
            assert len(info.profile.details["shard_runs"]) == 2

    # The re-sort rung needs an operand that lies about its order: the
    # bridge's never does, so make ones that do, over the very arrays
    # the queries above shared.
    entry = lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)
    for backend in ("tuple", "columnar", "fused"):
        contained, containing = (
            IntervalColumns(*rel.endpoints, range(len(rel)), TS_ASC)
            for rel in (cat["X"], cat["Y"])  # X is shuffled: a lie
        )
        outcome = execute_entry(
            entry,
            containing,
            contained,
            backend=backend,
            policy=RecoveryPolicy.DEGRADE,
        )
        assert outcome.report.fallbacks
    for rel in cat.values():
        assert_memo_is_the_tuples(rel)


# ----------------------------------------------------------------------
# (vi) the memo dies with the relation
# ----------------------------------------------------------------------
class Probe:
    """A surrogate a weak reference can watch."""


class Watched(TemporalRelation):
    __slots__ = ("__weakref__",)


def live_copies(wanted):
    """How many live lists other than ``wanted`` hold what it holds."""
    return sum(
        type(found) is list and found is not wanted and found == wanted
        for found in gc.get_objects()
    )


def test_dropping_the_relation_frees_its_columns():
    rows = [TemporalTuple(Probe(), 7 * i, 3 * i, 3 * i + 4) for i in range(40)]
    random.Random(41).shuffle(rows)  # so that reading it takes an argsort
    x = Watched(TemporalSchema("X", "Id", "Seq"), rows)
    cat = {"X": x, "Y": catalog()["Y"]}
    for backend in ("auto", "tuple"):
        assert run(DURING, cat, backend).rows
    # Whatever still held a column would keep its entries alive: the
    # surrogates stand for the four lists, which take no weak reference.
    (view,) = x.orders.values()  # both backends read X by one order
    watched = [x, *x.endpoints, view.ts, view.te, *x.columns()[0]]
    assert len(watched) == 45 and view.ts is not x.endpoints[0]
    gone = list(map(weakref.ref, watched))
    # A list takes no weak reference: look for the permutation and the
    # column kept beside it among the live lists instead.
    kept_lists = [list(view.permutation), *map(list, view.gathered.values())]
    assert len(kept_lists) == 2 and all(map(live_copies, kept_lists))
    del x, cat["X"], watched, view, rows
    gc.collect()
    assert [ref() for ref in gone] == [None] * 45
    assert not any(map(live_copies, kept_lists))


# ----------------------------------------------------------------------
# (vii) a relation is sorted once per order, and every query reads that
# ----------------------------------------------------------------------
OVERLAP_SELF = (
    "range of a is X range of b is X "
    "retrieve (A = a.Seq, B = b.Seq) where a overlap b"
)


@pytest.mark.parametrize("text", (DURING, OVERLAP_SELF), ids=("two", "self"))
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_second_query_sorts_nothing(backend, text, monkeypatch):
    """No relation here declares an order, so ``_in_order`` is asked
    exactly once per view built and answers ``False`` exactly where an
    argsort follows."""
    order_tests, handed = [], []
    in_order = IntervalColumns._in_order
    execute_entry_ = planner_module.execute_entry

    def counting(keys):
        order_tests.append(in_order(keys))
        return order_tests[-1]

    def recording(entry, x, y=None, **options):
        handed.append(
            [part for o in (x, y) for part in (o.ts, o.te, o.payload)]
        )
        return execute_entry_(entry, x, y, **options)

    monkeypatch.setattr(IntervalColumns, "_in_order", staticmethod(counting))
    monkeypatch.setattr(planner_module, "execute_entry", recording)
    cat = catalog()
    if text is OVERLAP_SELF:
        del cat["Y"]
    first = run(text, cat, backend)
    views = [view for rel in cat.values() for view in rel.orders.values()]
    # X is shuffled (an argsort); Y arrives in order (its own arrays).
    moved = sorted(not isinstance(v.permutation, range) for v in views)
    assert moved == ([True] if text is OVERLAP_SELF else [False, True])
    assert sorted(not answer for answer in order_tests) == moved
    second = run(text, cat, backend)
    assert len(order_tests) == len(views)  # nothing sorted, nothing re-checked
    assert views == [v for rel in cat.values() for v in rel.orders.values()]
    assert second.rows == first.rows  # emission order and all
    was, now = handed
    assert len(was) == 6 and all(a is b for a, b in zip(was, now))
    assert {id(part) for part in now[:2]} <= {
        id(part) for view in views for part in view[:2]
    }
    for rel in cat.values():
        assert_memo_is_the_tuples(rel)


ORDERS = (TS_ASC, TS_DESC, TE_ASC, TE_DESC, TS_TE_ASC, TS_TE_DESC)
shapes = st.one_of(
    st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 9)), max_size=30),
    # all-equal, tied and duplicate rows
    st.lists(st.sampled_from([(0, 4), (0, 4), (0, 6), (2, 4)]), max_size=30),
)


def own_operand(rel):
    """The planner's operand over ``rel``'s own columns, as the bridge
    builds it for an untouched scan."""
    scan = temporal_scan(rel, "a")
    return integration._operand(scan.batch(), scan.schema, {"a"})


@settings(max_examples=150, deadline=None)
@given(shapes, st.sampled_from(("as-is", "sorted", "reversed")), st.data())
def test_a_kept_view_is_the_stable_tuple_sort(pairs, arrangement, data):
    tuples = [
        TemporalTuple(f"s{i}", i, start, start + length)
        for i, (start, length) in enumerate(pairs)
    ]
    if arrangement != "as-is":
        tuples = sort_tuples(tuples, data.draw(st.sampled_from(ORDERS)))
    if arrangement == "reversed":
        tuples.reverse()
    rel = relation("X", tuples)
    for order in data.draw(st.permutations(ORDERS)):
        expected = sort_tuples(tuples, order)
        first = own_operand(rel).sorted_by(order)
        again = own_operand(rel).sorted_by(order)
        assert first is not again and first.tuples_built == 0
        for columns in (first, again):  # the kept view itself, both times
            parts = (columns.ts, columns.te, columns.payload)
            assert all(a is b for a, b in zip(parts, rel.orders[order]))
        assert [tuples[i] for i in again.payload] == expected
        assert list(again.ts) == [t.valid_from for t in expected]
        assert list(again.te) == [t.valid_to for t in expected]
        again.verify_order()
        # Sorting a view is not answered with the relation's views.
        twice = again.sorted_by(ORDERS[0])
        assert [tuples[i] for i in twice.payload] == sort_tuples(
            expected, ORDERS[0]
        )
    assert len(rel.orders) == 6
    assert_memo_is_the_tuples(rel)


# ----------------------------------------------------------------------
# (viii) a declared order reaches the planner as a claim that is checked
# ----------------------------------------------------------------------
def declared(order, lie=False, n=150):
    """``catalog()``'s relations sorted by ``order`` and saying so; with
    ``lie``, X says so of its shuffled tuples."""
    cat = catalog(n)
    return {
        name: rel.replace_tuples(rel.tuples, order)
        if lie and name == "X"
        else rel.sorted_by(order)
        for name, rel in cat.items()
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_declared_order_is_not_sorted_again(backend):
    plain, sorted_ = catalog(), declared(TS_ASC)
    (planned,) = run(DURING, plain, backend).stream_joins
    executed = run(DURING, sorted_, backend)
    (info,) = executed.stream_joins
    was, now = planned.profile.chosen, info.profile.chosen
    assert (was.sort_x, was.sort_y) == (True, True)
    assert (now.sort_x, now.sort_y) == (False, False)
    assert now.cost_breakdown["sort"] == 0 < was.cost_breakdown["sort"]
    assert (now.entry, now.backend) == (was.entry, was.backend)
    assert Counter(executed.rows) == Counter(
        run_query(DURING, sorted_, streams=False).rows
    )
    for rel in sorted_.values():
        # The claim was checked, once, before the cell ran, whatever
        # the backend: the relation's own arrays are the view.
        (view,) = rel.orders.values()
        assert all(a is b for a, b in zip(view, rel.endpoints))
        assert view.permutation == range(len(rel))


def test_an_order_with_a_non_endpoint_key_stays_undeclared():
    by_surrogate = SortOrder.by_surrogate()
    cat = declared(by_surrogate)
    assert cat["X"].order == by_surrogate
    assert own_operand(cat["X"]).order is None
    (info,) = run(DURING, cat, "auto").stream_joins
    (planned,) = run(DURING, catalog(), "auto").stream_joins
    assert info.chosen == planned.chosen


@pytest.mark.parametrize(
    "policy", POLICIES, ids=lambda p: getattr(p, "value", "legacy")
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_misdeclared_order_is_caught_on_every_query(backend, policy):
    cat = declared(TS_ASC, lie=True)
    oracle = Counter(run_query(DURING, cat, streams=False).rows)
    for _ in range(2):
        if policy in (None, RecoveryPolicy.STRICT):
            with pytest.raises(StreamOrderError) as error:
                run(DURING, cat, backend, policy)
            # `a during b`: the contained X is the cell's Y operand.
            assert "Y" in error.value.stream_name
        else:
            executed = run(DURING, cat, backend, policy)
            report = executed.execution_report
            assert Counter(executed.rows) == oracle
            assert [f.kind for f in report.fallbacks] == ["re-sort"]
        assert cat["X"].orders == {}  # a failed check keeps nothing
    assert_memo_is_the_tuples(cat["X"])


# ----------------------------------------------------------------------
# (ix) the join row says which operands were answered from a kept order
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make, sorts", ((catalog, True), (lambda: declared(TS_ASC), False))
)
def test_orders_reused_counts_operands_answered_from_the_memo(make, sorts):
    cat = make()
    rows = [join_row(DURING, cat) for _ in range(3)]
    assert [r["orders_reused"] for r in rows] == [0, 2, 2]
    # What the plan says does not depend on which queries ran before.
    assert [r["sorted"] for r in rows] == [sorts] * 3
    assert [r["tuples_built"] for r in rows] == [0] * 3
    # A selection below the join: that side filters the kept view.
    selected = DURING + " and a.Seq < 100"
    rows = [join_row(selected, cat) for _ in range(2)]
    assert [r["orders_reused"] for r in rows] == [2, 2]
    assert [r["sorted"] for r in rows] == [sorts] * 2


# ----------------------------------------------------------------------
# a stream join under a stream join passes columns
# ----------------------------------------------------------------------
THREE = (
    "range of a is X range of b is Y range of c is Z "
    "retrieve (A = a.Seq, C = c.Seq) where (a during b) and (c during a)"
)


@pytest.mark.parametrize("backend", BACKENDS)
def test_stream_join_under_a_stream_join(backend):
    cat = {
        "X": PoissonWorkload(80, 0.4, fixed_duration(12), name="X").generate(5),
        "Y": PoissonWorkload(80, 0.4, fixed_duration(30), name="Y").generate(6),
        "Z": PoissonWorkload(80, 0.4, fixed_duration(4), name="Z").generate(7),
    }
    tracer = Tracer("nested")
    previous = set_tracer(tracer)
    try:
        executed = run(THREE, cat, backend)
    finally:
        set_tracer(previous)
    assert [j.operator.value for j in executed.stream_joins] == [
        "contain-join",
        "contain-join",
    ]
    oracle = run_query(THREE, cat, streams=False).rows
    assert oracle and Counter(executed.rows) == Counter(oracle)
    inner, outer = tracer.find("bridge:assemble")
    # The inner join hands the outer one its columns (every one of its
    # schema's), the outer join only what the projection keeps.
    assert (inner.attributes["late"], outer.attributes["late"]) == (False, True)
    assert inner.attributes["columns_gathered"] == 5
    assert outer.attributes["columns_gathered"] == 2
    assert executed.stats.rows_scanned == 240
