"""An input read in full before its consumer's first output row is
drained with ``run()``, which a scan, a plain projection and a
selection of a relation answer column-wise.  Each draining consumer
must see the same rows, in the same order, for the same
``EngineStats`` charges (and raise the same first error) as over a
plain-row ``Table`` holding the same rows, which is iterated."""

from operator import itemgetter

import pytest

from repro.model import TemporalRelation, TemporalSchema, TemporalTuple
from repro.relational import (
    Attr,
    Compare,
    CrossProduct,
    EngineStats,
    HashAggregate,
    HashEquiJoin,
    Literal,
    Project,
    RowSchema,
    RowSemijoin,
    Select,
    Sort,
    Table,
    TableScan,
    ThetaNestedLoopJoin,
    count_of,
    max_of,
    table_from_temporal,
    temporal_scan,
)

SCHEMA = TemporalSchema("R", "Id", "Seq")
#: The raising relation's bad row.
K = 7


def relation(bad_row=None):
    """Twelve rows with repeated surrogates and values; row
    ``bad_row`` holds a text value, which ``Seq < n`` cannot compare."""
    return TemporalRelation(
        SCHEMA,
        [
            TemporalTuple(
                i % 5, "x" if i == bad_row else i % 3, i, i + 1 + i % 4
            )
            for i in range(12)
        ],
    )


def leaf(source, rel, stats):
    """``rel`` scanned as its own columns, or as a plain-row table."""
    if source == "relation":
        return temporal_scan(rel, "r", stats=stats)
    schema = RowSchema.for_variable("r", SCHEMA.attribute_names)
    rows = [(t.surrogate, t.value, t.valid_from, t.valid_to) for t in rel]
    return TableScan(Table("r", schema, rows), stats)


def kept(below, bound=2):
    return Select(below, Compare(Attr("r.Seq"), "<", Literal(bound)))


INPUTS = {
    "scan": lambda scan: scan,
    "select": kept,
    "project": lambda scan: Project(kept(scan), ["r.ValidTo", "r.Id"]),
    "renamed": lambda scan: Project(scan, [("t", Attr("r.ValidTo")), "r.Seq"]),
    "empty": lambda scan: kept(scan, bound=-1),
}


def outer(stats):
    """The probe (outer) side: a plain-row table, iterated in both
    plans."""
    rows = [(i % 5, i) for i in range(7)]
    return TableScan(Table("o", RowSchema.of("o.k", "o.t"), rows), stats)


def less(drained):
    return Compare(Attr("o.t"), "<", Attr(drained.schema.attributes[0]))


CONSUMERS = {
    "sort": lambda o, d: Sort(d, [d.schema.attributes[0]], descending=True),
    "cross": CrossProduct,
    "theta": lambda o, d: ThetaNestedLoopJoin(o, d, less(d)),
    "semijoin": lambda o, d: RowSemijoin(o, d, less(d)),
    "hash": lambda o, d: HashEquiJoin(o, d, "o.k", d.schema.attributes[0]),
    "aggregate": lambda o, d: HashAggregate(
        d,
        [d.schema.attributes[0]],
        {
            "n": count_of(d.schema.attributes[1]),
            "top": max_of(d.schema.attributes[1]),
        },
    ),
}


def plan(consumer, shape, source, rel):
    """The consumer over ``shape`` of ``rel``, and its drained input."""
    stats = EngineStats()
    drained = INPUTS[shape](leaf(source, rel, stats))
    return CONSUMERS[consumer](outer(stats), drained), drained


def outcome(operator):
    try:
        return "rows", operator.run(), operator.stats
    except Exception as error:  # noqa: BLE001 - the comparison's point
        return type(error), str(error)


@pytest.mark.parametrize("shape", INPUTS)
@pytest.mark.parametrize("consumer", CONSUMERS)
def test_drained_columns_are_the_iterated_rows(consumer, shape):
    rel = relation()
    by_columns, drained = plan(consumer, shape, "relation", rel)
    by_rows, iterated = plan(consumer, shape, "table", rel)
    assert drained.reaches_relation() and not iterated.reaches_relation()
    kind, rows, stats = outcome(by_columns)
    assert (kind, rows, stats) == outcome(by_rows)
    assert rows or shape == "empty"


@pytest.mark.parametrize("shape", ["select", "project"])
@pytest.mark.parametrize("consumer", CONSUMERS)
def test_a_raising_predicate_raises_the_same_first_error(consumer, shape):
    rel = relation(bad_row=K)
    by_columns, _ = plan(consumer, shape, "relation", rel)
    by_rows, _ = plan(consumer, shape, "table", rel)
    raised = outcome(by_columns)
    assert raised[0] is TypeError
    assert raised == outcome(by_rows)


def test_sort_leaves_the_relations_rows_as_they_were():
    rel = relation()
    memo = rel.rows()
    before = list(memo)
    scan = temporal_scan(rel, "r", stats=EngineStats())
    out = Sort(scan, ["r.ValidTo"], descending=True).run()
    assert out == sorted(before, key=itemgetter(3), reverse=True)
    assert rel.rows() is memo and memo == before
    # run() hands over a list of its own, never the memo.
    drained = temporal_scan(rel, "r", stats=EngineStats()).run()
    assert drained == memo and drained is not memo


def test_tables_of_one_relation_share_its_rows():
    rel = relation()
    for variable in ("a", "b"):
        assert table_from_temporal(rel, variable).rows is rel.rows()
    assert rel.rows() == [
        (t.surrogate, t.value, t.valid_from, t.valid_to) for t in rel.tuples
    ]
