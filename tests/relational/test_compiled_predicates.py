"""The source-emitting predicate compiler: one ``source()`` per node,
four compiled forms (row, pair, join loop, row filter), the paper's
counts untouched."""

import operator
import sys
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.model import TemporalRelation, TemporalSchema, TemporalTuple
from repro.relational import (
    And,
    Attr,
    Compare,
    EngineStats,
    HashEquiJoin,
    Literal,
    MergeEquiJoin,
    Not,
    Operator,
    Or,
    Project,
    RowSchema,
    RowSemijoin,
    Select,
    Table,
    TableScan,
    ThetaNestedLoopJoin,
    TruePredicate,
    temporal_scan,
)
from repro.relational.expressions import (
    compile_join_loop,
    compile_pair,
    compile_row_filter,
)
from repro.superstar import conventional_superstar
from repro.workload import FacultyWorkload

LEFT = RowSchema.of("a", "b")
RIGHT = RowSchema.of("c", "d")
BOTH = LEFT.concat(RIGHT)

_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def walk(node, row):
    """The reference: evaluate the tree node by node against a row of
    ``BOTH``."""
    if isinstance(node, Attr):
        return row[BOTH.index_of(node.name)]
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Compare):
        return _OPERATORS[node.op](walk(node.left, row), walk(node.right, row))
    if isinstance(node, And):
        return all(walk(part, row) for part in node.parts)
    if isinstance(node, Or):
        return any(walk(part, row) for part in node.parts)
    if isinstance(node, Not):
        return not walk(node.part, row)
    assert isinstance(node, TruePredicate)
    return True


def outcome(thunk):
    """The value, or the exception's type and message."""
    try:
        return ("value", thunk())
    except Exception as error:  # noqa: BLE001 - the differential's point
        return (type(error), str(error))


values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["", "a", "b", "1) or (True"]),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.booleans(),
)
operands = st.one_of(
    st.sampled_from(BOTH.attributes).map(Attr), values.map(Literal)
)
comparisons = st.builds(
    Compare, operands, st.sampled_from(sorted(_OPERATORS)), operands
)
predicates = st.recursive(
    st.one_of(comparisons, st.just(TruePredicate())),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda ps: And(tuple(ps))),
        st.lists(inner, max_size=3).map(lambda ps: Or(tuple(ps))),
        inner.map(Not),
    ),
    max_leaves=8,
)
rows = st.tuples(values, values, values, values)
sides = st.tuples(values, values)


class TestDifferential:
    @settings(max_examples=400, deadline=None)
    @given(predicates, sides, st.lists(sides, min_size=2, max_size=3))
    def test_three_forms_agree_with_the_tree_walk(
        self, predicate, left, rights
    ):
        by_row = predicate.compile_against(BOTH)
        by_pair = compile_pair(predicate, LEFT, RIGHT)
        by_loop = compile_join_loop(predicate, LEFT, RIGHT)
        expected = []
        for right in rights:
            row = left + right
            expected.append(outcome(lambda: walk(predicate, row)))
            assert outcome(lambda: by_row(row)) == expected[-1]
            assert outcome(lambda: by_pair(left, right)) == expected[-1]
        # The loop runs the rights in order, reusing the hoisted
        # left values: the first error is theirs, type and message.
        errors = [e for e in expected if e[0] != "value"]
        passing = [
            left + right
            for right, (kind, value) in zip(rights, expected)
            if value
        ]
        looped = outcome(lambda: by_loop(left, rights))
        assert looped == (errors[0] if errors else ("value", passing))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(operands, max_size=4), rows)
    def test_computed_projection_agrees(self, expressions, row):
        items = [(f"o{i}", e) for i, e in enumerate(expressions)]
        scan = TableScan(Table("t", BOTH, [row]))
        expected = tuple(walk(e, row) for e in expressions)
        (projected,) = Project(scan, items).run()
        # repr: nan != nan, and True == 1 would hide a wrong column.
        assert repr(projected) == repr(expected)

    @staticmethod
    def filtered(predicate, table):
        """The row filter over ``table``'s columns, as ``Select.batch``
        zips them: the row positions, then each column read."""
        reads, keep = compile_row_filter(predicate, BOTH)
        columns = [[row[k] for row in table] for k in range(len(BOTH))]
        return keep(zip(range(len(table)), *(columns[k] for k in reads)))

    def assert_filter_agrees(self, predicate, table):
        walked = [outcome(lambda: walk(predicate, row)) for row in table]
        # The rows in order: the first error is the filter's, type and
        # message; without one, the positions of the rows kept.
        errors = [e for e in walked if e[0] != "value"]
        kept = [k for k, (_kind, value) in enumerate(walked) if value]
        expected = errors[0] if errors else ("value", kept)
        assert outcome(lambda: self.filtered(predicate, table)) == expected

    @settings(max_examples=400, deadline=None)
    @given(predicates, st.lists(rows, max_size=4))
    def test_row_filter_agrees_with_the_tree_walk(self, predicate, table):
        self.assert_filter_agrees(predicate, table)

    READS = {
        "nothing": (TruePredicate(), ()),
        "one": (Compare(Attr("c"), "<", Literal(1)), (2,)),
        "several": (
            Or(
                (
                    Compare(Attr("d"), "=", Attr("a")),
                    Not(Compare(Attr("b"), ">=", Literal(0))),
                )
            ),
            (0, 1, 3),
        ),
        "one twice": (
            And(
                (
                    Compare(Attr("b"), ">", Literal(-2)),
                    Compare(Literal(2), ">", Attr("b")),
                )
            ),
            (1,),
        ),
    }

    @pytest.mark.parametrize("reads", READS)
    @settings(max_examples=100, deadline=None)
    @given(table=st.lists(rows, max_size=4))
    def test_row_filter_zips_only_what_it_reads(self, reads, table):
        predicate, positions = self.READS[reads]
        assert compile_row_filter(predicate, BOTH)[0] == positions
        self.assert_filter_agrees(predicate, table)

    @staticmethod
    def selections(shape, table, predicate):
        """A selection with ``predicate`` over schema ``BOTH``, of a
        temporal relation (whose batch names kept rows), of a selection
        of one, or of a table (whose batch has no relation)."""
        stats = EngineStats()
        if shape == "table":
            return Select(TableScan(Table("t", BOTH, table), stats), predicate)
        relation = TemporalRelation(
            TemporalSchema("R", "Id", "Seq"),
            [
                TemporalTuple(a, b, k, k + 1)
                for k, (a, b, _c, _d) in enumerate(table)
            ],
        )
        child = Project(
            temporal_scan(relation, "r", stats=stats),
            [
                ("a", Attr("r.Id")),
                ("b", Attr("r.Seq")),
                ("c", Attr("r.ValidFrom")),
                ("d", Attr("r.ValidTo")),
            ],
        )
        if shape == "select over select":
            child = Select(child, Compare(Attr("c"), "!=", Literal(1)))
        return Select(child, predicate)

    @pytest.mark.parametrize(
        "shape", ["relation", "select over select", "table"]
    )
    @settings(max_examples=150, deadline=None)
    @given(predicate=predicates, table=st.lists(rows, max_size=4))
    def test_select_batch_is_its_run(self, shape, predicate, table):
        by_rows = self.selections(shape, table, predicate)
        by_columns = self.selections(shape, table, predicate)
        expected = outcome(by_rows.run)
        batch = outcome(by_columns.batch)
        if expected[0] != "value":
            assert batch == expected
            return
        assert batch[0] == "value"
        assert (batch[1].relation is None) == (shape == "table")
        assert list(zip(*batch[1].materialised())) == expected[1]
        assert by_columns.stats == by_rows.stats


class TestConnectives:
    def test_empty_and_is_true_empty_or_is_false(self):
        assert And(()).compile_against(BOTH)((0, 0, 0, 0)) is True
        assert Or(()).compile_against(BOTH)((0, 0, 0, 0)) is False
        assert compile_pair(And(()), LEFT, RIGHT)((0, 0), (0, 0)) is True
        assert compile_pair(Or(()), LEFT, RIGHT)((0, 0), (0, 0)) is False

    def test_short_circuit_order(self):
        raising = Compare(Attr("a"), "<", Literal("text"))
        false = Compare(Attr("a"), "=", Literal(-1))
        true = Compare(Attr("a"), "=", Literal(1))
        row = (1, 0, 0, 0)
        assert And((false, raising)).compile_against(BOTH)(row) is False
        assert Or((true, raising)).compile_against(BOTH)(row) is True
        with pytest.raises(TypeError):
            And((true, raising)).compile_against(BOTH)(row)
        with pytest.raises(TypeError):
            And((raising, false)).compile_against(BOTH)(row)
        pair = compile_pair(And((false, raising)), LEFT, RIGHT)
        assert pair(row[:2], row[2:]) is False

    @pytest.mark.parametrize(
        "text",
        [
            "1) or (True",
            "' or True or '",
            '" or True or "',
            "x\nrow[0]",
            "__import__('os')",
            "c0",
            "row",
        ],
    )
    def test_code_looking_literal_is_a_value(self, text):
        equal = Compare(Attr("a"), "=", Literal(text))
        compiled = equal.compile_against(BOTH)
        assert compiled((text, 0, 0, 0)) is True
        assert compiled(("other", 0, 0, 0)) is False
        assert compiled((True, 0, 0, 0)) is False
        # No literal reaches the source: it is a bound name there.
        constants: dict = {}
        source = equal.source(lambda name: "row[0]", constants)
        assert source == "row[0] == c0"
        assert constants == {"c0": text}
        assert text not in compiled.__code__.co_consts
        assert compiled.__globals__["c0"] is text

    def test_generated_namespace_has_no_builtins(self):
        compiled = TruePredicate().compile_against(BOTH)
        assert compiled.__globals__["__builtins__"] == {}


class Opaque:
    """A literal value whose text is the same whatever its value."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "opaque"

    def __gt__(self, other):  # ``row[0] < c0`` reflected
        return self.value > other


class TestCodeCache:
    """Generated text is compiled once and ``eval``'d per build."""

    def test_selects_of_one_predicate_text_share_code(self):
        predicate = Compare(Attr("a"), "<", Literal(3))
        first, second = (
            Select(TableScan(Table("l", LEFT, [(1, 2)])), predicate)
            for _ in range(2)
        )
        assert first._compiled is not second._compiled
        assert first._compiled.__code__ is second._compiled.__code__

    def test_constants_are_bound_per_eval(self):
        three, five = (
            Compare(Attr("a"), "<", Literal(Opaque(bound))).compile_against(
                LEFT
            )
            for bound in (3, 5)
        )
        # One text, one name: one code object, two answers.
        assert three.__code__ is five.__code__
        assert three((4, 0)) is False and five((4, 0)) is True
        assert three.__globals__["c0"].value == 3


class TestErrors:
    def scans(self):
        stats = EngineStats()
        left = TableScan(Table("l", LEFT, [(1, 2)]), stats)
        right = TableScan(Table("r", RIGHT, [(3, 4)]), stats)
        return left, right

    def test_traceback_names_the_predicate(self):
        predicate = Compare(Attr("a"), "<", Literal("text"))
        with pytest.raises(TypeError) as raised:
            predicate.compile_against(BOTH)((1, 0, 0, 0))
        rendered = "".join(traceback.format_tb(raised.value.__traceback__))
        assert "<predicate a < 'text'>" in rendered

    @pytest.mark.parametrize(
        "build",
        [
            lambda l, r, p: ThetaNestedLoopJoin(l, r, p),
            lambda l, r, p: RowSemijoin(l, r, p),
            lambda l, r, p: HashEquiJoin(l, r, "a", "c", residual=p),
            lambda l, r, p: MergeEquiJoin(l, r, "a", "c", residual=p),
            lambda l, r, p: Select(l, p),
            lambda l, r, p: Project(l, [("o", p.left)]),
        ],
    )
    def test_unknown_attribute_fails_at_construction(self, build):
        left, right = self.scans()
        with pytest.raises(SchemaError, match="'zzz' not in schema"):
            build(left, right, Compare(Attr("zzz"), "<", Attr("a")))

    @pytest.mark.parametrize(
        "join", [ThetaNestedLoopJoin, RowSemijoin]
    )
    def test_attribute_on_both_sides_fails_at_construction(self, join):
        left, _right = self.scans()
        again = TableScan(Table("l2", LEFT, [(1, 2)]), left.stats)
        with pytest.raises(SchemaError, match="duplicate attributes"):
            join(left, again, Compare(Attr("a"), "<", Attr("b")))

    def test_unknown_operator_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown comparison operator"):
            Compare(Attr("a"), "<>", Attr("b"))
        with pytest.raises(ValueError):
            Compare(Attr("a"), "or True or", Attr("b"))


def tables(n, m, stats):
    """``n`` left rows (key, i) and ``m`` right rows (key, j): keys
    cycle over 0..3, so every key group is a non-trivial product."""
    left = Table("l", LEFT, [(i % 4, i) for i in range(n)])
    right = Table("r", RIGHT, [(j % 4, j) for j in range(m)])
    return TableScan(left, stats), TableScan(right, stats)


class TestCounts:
    LESS = Compare(Attr("b"), "<", Attr("d"))

    def test_theta_evaluates_every_pair(self):
        stats = EngineStats()
        out = ThetaNestedLoopJoin(*tables(7, 11, stats), self.LESS).run()
        assert stats.comparisons == 7 * 11
        assert stats.rows_materialized == 11
        assert out == [
            (i % 4, i, j % 4, j)
            for i in range(7)
            for j in range(11)
            if i < j
        ]

    def test_semijoin_stops_at_first_match(self):
        stats = EngineStats()
        out = RowSemijoin(*tables(7, 5, stats), self.LESS).run()
        # Left row i meets right rows 0..i+1, matching at j = i + 1;
        # rows 4..6 never match and see all five.
        assert stats.comparisons == (2 + 3 + 4 + 5) + 3 * 5
        assert stats.rows_materialized == 5
        assert out == [(i % 4, i) for i in range(4)]

    def test_hash_residual_counts_each_bucket_pair(self):
        stats = EngineStats()
        join = HashEquiJoin(
            *tables(8, 12, stats), "a", "c", residual=self.LESS
        )
        out = join.run()
        assert stats.comparisons == 8 * 3
        assert stats.rows_materialized == 12
        assert sorted(out) == sorted(
            (i % 4, i, j % 4, j)
            for i in range(8)
            for j in range(12)
            if i % 4 == j % 4 and i < j
        )

    def test_merge_residual_counts_each_group_pair(self):
        stats = EngineStats()
        left = Table("l", LEFT, sorted((i % 4, i) for i in range(8)))
        right = Table("r", RIGHT, sorted((j % 4, j) for j in range(12)))
        join = MergeEquiJoin(
            TableScan(left, stats),
            TableScan(right, stats),
            "a",
            "c",
            residual=self.LESS,
        )
        out = join.run()
        # One key comparison per group, then 2 x 3 residual pairs.
        assert stats.comparisons == 4 + 4 * (2 * 3)
        assert stats.rows_materialized == 4 * (2 + 3)
        assert len(out) == sum(
            1
            for i in range(8)
            for j in range(12)
            if i % 4 == j % 4 and i < j
        )

    def test_conventional_superstar_counts_are_the_parents(self):
        faculty = FacultyWorkload(
            faculty_count=120, continuous=True, full_fraction=1.0
        ).generate(7)
        result = conventional_superstar(faculty)
        assert result.comparisons == 15_600
        assert result.faculty_scans == 3
        assert result.details == {"rows_materialized": 240}


class CountedRow(tuple):
    """A row that counts its subscripts."""

    def __new__(cls, values):
        row = super().__new__(cls, values)
        row.reads = 0
        return row

    def __getitem__(self, index):
        self.reads += 1
        return tuple.__getitem__(self, index)


class CountedInt(int):
    """A value that counts the ``<`` comparisons it is asked for."""

    asked = 0

    def __lt__(self, other):
        CountedInt.asked += 1
        return int.__lt__(self, other)


class Rows(Operator):
    """The given row objects as they are (a ``Table`` copies rows to
    plain tuples)."""

    def __init__(self, schema, rows, stats):
        super().__init__(schema, stats)
        self.rows = rows

    def __iter__(self):
        return iter(self.rows)


class TestHoisting:
    """The join loop reads each left attribute once per outer row; the
    right side is still evaluated once per pair."""

    # Reads b twice and a once, in that order.
    PREDICATE = And(
        (
            Compare(Attr("d"), ">", Attr("b")),
            Compare(Attr("a"), "!=", Attr("c")),
            Compare(Attr("b"), ">=", Literal(0)),
        )
    )

    @pytest.mark.parametrize("m", [0, 1, 5, 40])
    def test_each_left_attribute_is_read_once_per_outer_row(self, m):
        lefts = [CountedRow((i % 4, i)) for i in range(6)]
        rights = [(j % 3, j) for j in range(m)]
        stats = EngineStats()
        join = ThetaNestedLoopJoin(
            Rows(LEFT, lefts, stats),
            Rows(RIGHT, rights, stats),
            self.PREDICATE,
        )
        out = join.run()
        assert [row.reads for row in lefts] == [2] * len(lefts)
        assert out == [
            left + right
            for left in lefts
            for right in rights
            if walk(self.PREDICATE, left + right)
        ]

    def test_first_conjunct_is_evaluated_once_per_pair(self):
        n, m = 9, 13
        lefts = [(i % 4, i) for i in range(n)]
        rights = [(j % 3, CountedInt(j)) for j in range(m)]
        stats = EngineStats()
        less = Compare(Attr("d"), "<", Attr("b"))
        join = ThetaNestedLoopJoin(
            Rows(LEFT, lefts, stats),
            Rows(RIGHT, rights, stats),
            And((less, Compare(Attr("a"), "=", Attr("c")))),
        )
        CountedInt.asked = 0
        out = join.run()
        assert CountedInt.asked == n * m
        assert stats.comparisons == n * m
        assert out == [
            left + right
            for left in lefts
            for right in rights
            if right[1] < left[1] and left[0] == right[0]
        ]


def python_calls(n, m):
    """Python-level calls (function entries and generator resumptions)
    the engine and its generated code make while an n x m theta join
    runs."""
    join = ThetaNestedLoopJoin(*tables(n, m, EngineStats()), TestCounts.LESS)
    calls = 0

    def profiler(frame, event, _arg):
        nonlocal calls
        filename = frame.f_code.co_filename
        # Not a garbage-collection callback or the like.
        ours = "relational" in filename or filename.startswith("<predicate")
        calls += event == "call" and ours

    sys.setprofile(profiler)
    try:
        out = join.run()
    finally:
        sys.setprofile(None)
    assert join.stats.comparisons == n * m
    return calls - len(out)  # one resumption per row the consumer takes


class TestStructure:
    def test_calls_grow_with_the_outer_side_not_the_product(self):
        base = python_calls(20, 50)
        wider = python_calls(20, 200)
        taller = python_calls(80, 50)
        # 150 more right rows: 150 more resumptions of the right scan,
        # not 20 x 150 more predicate calls.
        assert wider - base == 150
        assert taller > base
        assert taller - base <= 5 * 60

    def test_compiled_callables_have_no_closure(self):
        predicate = And(
            (TestCounts.LESS, Not(Compare(Attr("a"), "=", Literal(9))))
        )
        for compiled in (
            predicate.compile_against(BOTH),
            compile_pair(predicate, LEFT, RIGHT),
            compile_join_loop(predicate, LEFT, RIGHT),
            compile_row_filter(predicate, BOTH)[1],
        ):
            assert compiled.__closure__ is None
            assert compiled.__globals__["__builtins__"] == {}
            assert compiled.__code__.co_filename.startswith("<predicate ")
