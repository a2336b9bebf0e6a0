"""Every operator can be consumed row-at-a-time (``run``) or
column-at-a-time (``batch``): the two forms must be the same rows, in
the same order, for the same ``EngineStats`` charges."""

from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import TemporalRelation, TemporalSchema, TemporalTuple
from repro.relational import (
    Attr,
    Compare,
    Distinct,
    EngineStats,
    HashEquiJoin,
    Literal,
    Project,
    RowSchema,
    Select,
    Sort,
    Table,
    TableScan,
    temporal_scan,
)

# Small domains, so duplicate rows, empty selections and non-trivial
# join groups all turn up.
small = st.integers(0, 3)
temporal_rows = st.lists(st.tuples(small, small, small, small), max_size=6)
plain_rows = st.lists(st.tuples(small, small), max_size=6)

leaves = st.one_of(
    st.tuples(st.just("temporal"), temporal_rows),
    st.tuples(st.just("table"), plain_rows),
)


def grown(children):
    pick = st.integers(0, 7)
    return st.one_of(
        st.tuples(
            st.just("project"), children, st.lists(pick, min_size=1, max_size=5)
        ),
        st.tuples(st.just("compute"), children, pick),
        st.tuples(st.just("select"), children, pick, small),
        st.tuples(st.just("distinct"), children),
        st.tuples(st.just("sort"), children, pick, st.booleans()),
        st.tuples(st.just("join"), children, children, pick, pick),
    )


specs = st.recursive(leaves, grown, max_leaves=3)


def build(spec, stats, names):
    """The operator tree ``spec`` describes, over ``stats``.  ``names``
    numbers leaves and projections so every schema stays duplicate-free;
    attribute picks are reduced modulo the child's width."""
    kind, *rest = spec
    if kind == "temporal":
        relation = TemporalRelation(
            TemporalSchema("R", "Id", "Seq"),
            [
                TemporalTuple(surrogate, value, start, start + 1 + length)
                for surrogate, value, start, length in rest[0]
            ],
        )
        return temporal_scan(relation, f"v{next(names)}", stats=stats)
    if kind == "table":
        n = next(names)
        schema = RowSchema.of(f"t{n}.k", f"t{n}.v")
        return TableScan(Table(f"t{n}", schema, rest[0]), stats)
    children = [build(s, stats, names) for s in rest if isinstance(s, tuple)]
    child = children[0]

    def attribute(operator, pick):
        return operator.schema.attributes[pick % len(operator.schema)]

    if kind == "project":  # plain: may reorder and repeat
        n = next(names)
        return Project(
            child,
            [
                (f"p{n}.{i}", Attr(attribute(child, pick)))
                for i, pick in enumerate(rest[1])
            ],
        )
    if kind == "compute":
        n = next(names)
        return Project(
            child,
            [
                (f"c{n}.a", Attr(attribute(child, rest[1]))),
                (f"c{n}.k", Literal(7)),
            ],
        )
    if kind == "select":
        return Select(
            child, Compare(Attr(attribute(child, rest[1])), "<", Literal(rest[2]))
        )
    if kind == "distinct":
        return Distinct(child)
    if kind == "sort":
        return Sort(child, [attribute(child, rest[1])], descending=rest[2])
    left, right = children
    return HashEquiJoin(
        left, right, attribute(left, rest[2]), attribute(right, rest[3])
    )


@settings(max_examples=300, deadline=None)
@given(specs)
def test_column_form_equals_row_form(spec):
    by_rows = build(spec, EngineStats(), count())
    by_columns = build(spec, EngineStats(), count())
    rows = by_rows.run()
    batch = by_columns.batch()
    columns, length = batch.materialised(), batch.length
    assert len(columns) == len(by_columns.schema)
    assert {len(column) for column in columns} == {length}
    assert list(zip(*columns)) == rows
    assert by_columns.stats == by_rows.stats


def test_a_batch_remembers_its_relation_until_a_row_is_touched():
    relation = TemporalRelation(
        TemporalSchema("R", "Id", "Seq"),
        [TemporalTuple(i, i % 2, i, i + 3) for i in range(5)],
    )

    def scan():
        return temporal_scan(relation, "r", stats=EngineStats())

    swapped = Project(scan(), [("a", Attr("r.ValidTo")), "r.Id"])
    batch = swapped.batch()
    assert batch.relation is relation and batch.length == 5
    assert batch.selection is None
    # The relation's own columns, selected: nothing copied.
    assert batch.columns[0] is relation.columns()[3]
    assert batch.columns[1] is relation.columns()[0]
    # A selection names the rows it keeps; the columns stay the
    # relation's, through a projection above it as well.
    even = Compare(Attr("r.Seq"), "<", Literal(1))
    selected = (Select(scan(), even), Project(Select(scan(), even), ["r.Id"]))
    for kept in selected:
        batch = kept.batch()
        assert batch.relation is relation
        assert batch.selection == [0, 2, 4] and batch.length == 3
        assert batch.columns[0] is relation.columns()[0]
        assert batch.materialised()[0] == (0, 2, 4)
    for touched in (Project(scan(), [("k", Literal(7))]), Distinct(scan())):
        assert touched.batch().relation is None
    # A row consumer of the same relation sees rows, built on demand.
    assert scan().run() == [
        (t.surrogate, t.value, t.valid_from, t.valid_to)
        for t in relation.tuples
    ]
