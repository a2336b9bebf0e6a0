"""Tests for the conventional hash aggregation operator."""

import pytest

from repro.relational import (
    EngineStats,
    HashAggregate,
    RowSchema,
    Table,
    TableScan,
    count_of,
    max_of,
    min_of,
    sum_of,
)

PAYROLL = Table(
    "payroll",
    RowSchema.of("dept", "emp", "salary"),
    [
        ("toys", "ann", 100),
        ("toys", "bob", 150),
        ("tools", "cat", 200),
        ("tools", "dan", 50),
        ("books", "fay", 300),
    ],
)


def scan():
    return TableScan(PAYROLL, stats=EngineStats())


class TestHashAggregate:
    def test_sum_per_group(self):
        agg = HashAggregate(
            scan(), ["dept"], {"total": sum_of("salary")}
        )
        assert sorted(agg.run()) == [
            ("books", 300),
            ("tools", 250),
            ("toys", 250),
        ]
        assert agg.schema.attributes == ("dept", "total")

    def test_multiple_aggregates(self):
        agg = HashAggregate(
            scan(),
            ["dept"],
            {
                "n": count_of("emp"),
                "hi": max_of("salary"),
                "lo": min_of("salary"),
            },
        )
        rows = {row[0]: row[1:] for row in agg.run()}
        assert rows["tools"] == (2, 200, 50)
        assert rows["books"] == (1, 300, 300)

    def test_global_aggregate(self):
        agg = HashAggregate(scan(), [], {"total": sum_of("salary")})
        assert agg.run() == [(800,)]

    def test_multi_column_grouping(self):
        agg = HashAggregate(
            scan(), ["dept", "emp"], {"n": count_of("salary")}
        )
        assert len(agg.run()) == 5

    @pytest.mark.parametrize(
        "group_by, expected",
        [
            ([], [(5, 800)]),
            (["dept"], [("books", 1, 300), ("tools", 2, 250), ("toys", 2, 250)]),
            (
                ["emp", "dept"],
                [
                    ("ann", "toys", 1, 100),
                    ("bob", "toys", 1, 150),
                    ("cat", "tools", 1, 200),
                    ("dan", "tools", 1, 50),
                    ("fay", "books", 1, 300),
                ],
            ),
        ],
        ids=("zero", "one", "two"),
    )
    def test_group_key_of_every_arity(self, group_by, expected):
        """The key is a tuple of the group-by values whatever their
        number — never a bare value, never the whole row."""
        agg = HashAggregate(
            scan(),
            group_by,
            {"n": count_of("emp"), "total": sum_of("salary")},
        )
        assert sorted(agg.run()) == expected
        assert agg.stats.rows_materialized == len(expected)

    def test_state_is_one_accumulator_per_group(self):
        agg = HashAggregate(scan(), ["dept"], {"total": sum_of("salary")})
        agg.run()
        assert agg.stats.rows_materialized == 3

    def test_agrees_with_stream_aggregate_on_grouped_input(self):
        """The Figure-4 stream processor and the conventional hash
        aggregate compute the same sums — with 1 vs #groups state."""
        from repro.streams import grouped_sum

        stream = grouped_sum(
            list(PAYROLL), key=lambda r: r[0], value=lambda r: r[2]
        )
        assert dict(stream) == dict(
            HashAggregate(
                scan(), ["dept"], {"total": sum_of("salary")}
            ).run()
        )
        assert stream.metrics.state_high_water == 1

    def test_empty_input(self):
        empty = Table("e", RowSchema.of("k", "v"), [])
        agg = HashAggregate(
            TableScan(empty, stats=EngineStats()),
            ["k"],
            {"s": sum_of("v")},
        )
        assert agg.run() == []

    def test_unknown_attribute(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            HashAggregate(scan(), ["nope"], {"s": sum_of("salary")})
