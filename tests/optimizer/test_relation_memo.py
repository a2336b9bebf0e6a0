"""A relation memoises its column forms (attribute columns, validated
endpoint arrays, statistics) and every query over it shares them.  That
is safe only if nothing derives, validates, builds tuples on, or writes
into the wrong relation's copy — pinned here."""

import gc
import random
import weakref
from array import array
from collections import Counter, namedtuple

import pytest

from repro.algebra import optimize
from repro.columnar import IntervalColumns
from repro.errors import BudgetExceededError, WorkspaceOverflowError
from repro.governance import QueryBudget
from repro.model import (
    TE_DESC,
    TS_ASC,
    TemporalRelation,
    TemporalSchema,
    TemporalTuple,
)
from repro.obs import Tracer, set_tracer
from repro.optimizer import TemporalJoinPlanner, execute_hybrid, integration
from repro.query import parse_query, run_query, translate
from repro.resilience.executor import execute_entry
from repro.resilience.recovery import RecoveryPolicy
from repro.stats import collect_statistics
from repro.streams import TemporalOperator, lookup
from repro.workload import PoissonWorkload, fixed_duration

BACKENDS = ("tuple", "columnar", "fused", "auto")
POLICIES = (
    None,
    RecoveryPolicy.STRICT,
    RecoveryPolicy.DEGRADE,
    RecoveryPolicy.QUARANTINE,
)
RANGES = "range of a is X range of b is Y "
DURING = RANGES + "retrieve (A = a.Seq, B = b.Seq) where a during b"


def relation(name, tuples):
    return TemporalRelation(TemporalSchema(name, "Id", "Seq"), list(tuples))


def catalog(n=120):
    """X in arrival order shuffled (every plan sorts it), Y sorted (its
    memoised arrays reach the kernels as they are)."""
    x = list(PoissonWorkload(n, 0.4, fixed_duration(4), name="X").generate(5))
    random.Random(3).shuffle(x)
    y = PoissonWorkload(n, 0.4, fixed_duration(30), name="Y").generate(6)
    return {"X": relation("X", x), "Y": relation("Y", y.tuples)}


def plan_for(text, cat):
    return optimize(translate(parse_query(text), cat))


def run(text, cat, backend, recovery=None, budget=None):
    return execute_hybrid(
        plan_for(text, cat),
        cat,
        planner=TemporalJoinPlanner(backend=backend, budget=budget),
        recovery=recovery,
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
    expected = OverflowError if offender == "2^63" else TypeError
    assert issubclass(raised[0][0], expected)


# ----------------------------------------------------------------------
# (iv) the tuples a tuple-at-a-time consumer builds are per query
# ----------------------------------------------------------------------
def tuples_built(cat, backend):
    tracer = Tracer("memo")
    previous = set_tracer(tracer)
    try:
        run(DURING, cat, backend)
    finally:
        set_tracer(previous)
    (join,) = [s for s in tracer.spans if s.name.startswith("stream-join:")]
    return join.attributes["tuples_built"]


def test_tuples_built_is_per_query_not_per_relation():
    cat = catalog()
    both = len(cat["X"]) + len(cat["Y"])
    assert [
        tuples_built(cat, backend)
        for backend in ("auto", "tuple", "fused", "tuple", "columnar")
    ] == [0, both, 0, both, 0]


# ----------------------------------------------------------------------
# (v) nothing writes into the shared columns
# ----------------------------------------------------------------------
def test_every_backend_and_rung_leaves_the_memo_alone():
    cat = catalog()
    caps = (None, QueryBudget(workspace_tuple_cap=3))
    expected = Counter(run_query(DURING, cat, streams=False).rows)
    rungs = set()
    for backend in BACKENDS:
        for policy in POLICIES:
            for budget in caps:
                try:
                    executed = run(DURING, cat, backend, policy, budget)
                except (WorkspaceOverflowError, BudgetExceededError):
                    assert budget is not None
                    continue
                assert Counter(executed.rows) == expected
                (info,) = executed.stream_joins
                resilience = info.metrics.resilience or {"fallbacks": []}
                rungs.update(f["kind"] for f in resilience["fallbacks"])
                passes = max(info.metrics.passes_x, info.metrics.passes_y)
                if policy is None and passes > 1:
                    rungs.add("nested-loop")  # the legacy overflow answer
    assert rungs == {"spill", "nested-loop"}

    # The re-sort and order-quarantine rungs need an operand that lies
    # about its order: the bridge's never does, so make ones that do,
    # over the very arrays the queries above shared.
    entry = lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)
    for backend in ("tuple", "columnar", "fused"):
        for policy in (RecoveryPolicy.DEGRADE, RecoveryPolicy.QUARANTINE):
            contained, containing = (
                IntervalColumns(*rel.endpoints, range(len(rel)), TS_ASC)
                for rel in (cat["X"], cat["Y"])  # X is shuffled: a lie
            )
            outcome = execute_entry(
                entry, containing, contained, backend=backend, policy=policy
            )
            report = outcome.report
            assert (
                report.fallbacks
                if policy is RecoveryPolicy.DEGRADE
                else report.quarantined
            )
    for rel in cat.values():
        assert_memo_is_the_tuples(rel)


# ----------------------------------------------------------------------
# (vi) the memo dies with the relation
# ----------------------------------------------------------------------
class Probe:
    """A surrogate a weak reference can watch."""


class Watched(TemporalRelation):
    __slots__ = ("__weakref__",)


def test_dropping_the_relation_frees_its_columns():
    x = Watched(
        TemporalSchema("X", "Id", "Seq"),
        [TemporalTuple(Probe(), i, 3 * i, 3 * i + 4) for i in range(40)],
    )
    cat = {"X": x, "Y": catalog()["Y"]}
    for backend in ("auto", "tuple"):
        assert run(DURING, cat, backend).rows
    # Whatever still held a column would keep its entries alive: the
    # surrogates stand for the four lists, which take no weak reference.
    watched = [x, *x.endpoints, *x.columns()[0]]
    assert len(watched) == 43
    gone = list(map(weakref.ref, watched))
    del x, cat["X"], watched
    gc.collect()
    assert [ref() for ref in gone] == [None] * 43


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
