"""Integration tests crossing module boundaries.

Each test exercises a pipeline that spans several subsystems: query
language -> algebra -> engines, storage -> streams, planner -> storage,
semantic optimizer -> stream execution.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import compile_plan, optimize
from repro.model import (
    TE_ASC,
    TS_ASC,
    TemporalRelation,
    TemporalSchema,
)
from repro.optimizer import TemporalJoinPlanner
from repro.query import parse_query, translate
from repro.semantic import semantically_optimize
from repro.stats import collect_statistics
from repro.storage import HeapFile, IOStats, external_sort
from repro.streams import (
    ContainJoinTsTs,
    NestedLoopJoin,
    TemporalOperator,
    TupleStream,
    contain_predicate,
)
from repro.superstar import SUPERSTAR_QUEL, all_strategies
from repro.workload import (
    FacultyWorkload,
    PoissonWorkload,
    fixed_duration,
)


class TestStorageToStreams:
    """Disk files -> external sort -> stream join, with every page
    counted."""

    def test_sort_then_stream_join_from_disk(self):
        x_rel = PoissonWorkload(
            300, 0.5, fixed_duration(25), name="X"
        ).generate(1)
        y_rel = PoissonWorkload(
            300, 0.5, fixed_duration(6), name="Y"
        ).generate(2)

        # Stage the relations shuffled: Poisson arrivals are already in
        # TS order, and the sortedness pre-check would (correctly) skip
        # the sort this test exists to exercise.
        import random

        shuffle = random.Random(99).shuffle
        x_records = list(x_rel.tuples)
        y_records = list(y_rel.tuples)
        shuffle(x_records)
        shuffle(y_records)

        stats = IOStats()
        x_file = HeapFile.from_records("x", x_records, stats=stats)
        y_file = HeapFile.from_records("y", y_records, stats=stats)

        sorted_x = external_sort(x_file, TS_ASC, stats=stats).output
        sorted_y = external_sort(y_file, TS_ASC, stats=stats).output

        join = ContainJoinTsTs(
            TupleStream.from_heap_file(sorted_x, order=TS_ASC, stats=stats),
            TupleStream.from_heap_file(sorted_y, order=TS_ASC, stats=stats),
        )
        out = join.run()

        expected = sum(
            1
            for a in x_rel
            for b in y_rel
            if contain_predicate(a, b)
        )
        assert len(out) == expected
        # The join itself read each sorted file exactly once.
        assert join.metrics.passes_x == 1
        assert join.metrics.passes_y == 1
        assert stats.page_reads > 0 and stats.page_writes > 0

    def test_nested_loop_rereads_inner_per_outer_tuple(self):
        """Section 3: the conventional nested loop re-reads the inner
        relation once per outer tuple; the stream join reads each input
        once.  600 x 600 tuples on 16-record pages, no page cache."""
        x_file, y_file = (
            HeapFile.from_records(
                name,
                PoissonWorkload(600, 0.5, fixed_duration(d), name=name)
                .generate(seed)
                .sorted_by(TS_ASC)
                .tuples,
                page_capacity=16,
            )
            for name, d, seed in (("X", 25, 1), ("Y", 6, 2))
        )

        def run(operator, *predicate):
            stats = IOStats()
            join = operator(
                TupleStream(lambda: x_file.scan(stats=stats), order=TS_ASC),
                TupleStream(lambda: y_file.scan(stats=stats), order=TS_ASC),
                *predicate,
            )
            rows = sorted((a.value, b.value) for a, b in join.run())
            return rows, stats.page_reads

        nested_rows, nested_reads = run(NestedLoopJoin, contain_predicate)
        stream_rows, stream_reads = run(ContainJoinTsTs)
        assert (x_file.num_pages, y_file.num_pages) == (38, 38)
        assert nested_reads == 38 + 600 * 38 == 22_838
        assert stream_reads == 38 + 38
        assert nested_rows == stream_rows


class TestQueryToBothEngines:
    """The same declarative query through the conventional engine and
    through the stream planner."""

    def test_during_query_agrees_with_stream_plan(self):
        x_rel = PoissonWorkload(
            150, 0.4, fixed_duration(4), name="Xr"
        ).generate(5)
        y_rel = PoissonWorkload(
            150, 0.4, fixed_duration(30), name="Yr"
        ).generate(6)
        catalog = {"X": x_rel, "Y": y_rel}

        # Conventional: 'x during y' through the query language.
        plan = translate(
            parse_query(
                "range of x is X range of y is Y "
                "retrieve (A = x.Seq, B = y.Seq) where x during y"
            ),
            catalog,
        )
        conventional = sorted(compile_plan(optimize(plan), catalog).run())

        # Stream: the planner evaluates Contain-join(Y, X) and we flip.
        planner = TemporalJoinPlanner()
        results, _profile = planner.execute(
            TemporalOperator.CONTAIN_JOIN, y_rel, x_rel
        )
        via_stream = sorted((x.value, y.value) for y, x in results)
        assert conventional == via_stream


class TestSemanticPipeline:
    def test_full_superstar_pipeline(self):
        """Quel text -> algebra -> rewrites -> semantic optimization ->
        stream execution, agreeing with the conventional result."""
        faculty = FacultyWorkload(
            faculty_count=80, continuous=True, full_fraction=1.0
        ).generate(11)
        catalog = {"Faculty": faculty}
        plan = optimize(translate(parse_query(SUPERSTAR_QUEL), catalog))
        rewritten, report = semantically_optimize(plan, catalog)

        assert report.removed_count == 2
        assert report.containments()[0].strict

        conventional_rows = sorted(compile_plan(plan, catalog).run())
        semantic_rows = sorted(compile_plan(rewritten, catalog).run())
        assert conventional_rows == semantic_rows

        # The bag-semantics plans emit one row per witnessing f3, and
        # so do the conventional and stream strategies; the semantic
        # strategy names each superstar once.
        conventional, stream, semantic = all_strategies(faculty)
        assert conventional.rows == stream.rows == Counter(conventional_rows)
        assert semantic.rows.keys() == set(conventional_rows)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_pipeline_on_random_seeds(self, seed):
        faculty = FacultyWorkload(
            faculty_count=20, continuous=True, full_fraction=1.0
        ).generate(seed)
        all_strategies(faculty)  # asserts agreement internally


class TestPlannerWithStatistics:
    def test_statistics_drive_cost(self):
        """Denser overlaps -> larger predicted workspace -> higher
        stream cost, same data size."""
        planner = TemporalJoinPlanner()
        sparse = PoissonWorkload(
            400, 0.2, fixed_duration(3), name="S"
        ).generate(1)
        dense = PoissonWorkload(
            400, 0.2, fixed_duration(120), name="D"
        ).generate(2)
        sparse_alt = planner.choose(
            TemporalOperator.OVERLAP_JOIN,
            sparse.sorted_by(TS_ASC),
            sparse.sorted_by(TS_ASC),
        )
        dense_alt = planner.choose(
            TemporalOperator.OVERLAP_JOIN,
            dense.sorted_by(TS_ASC),
            dense.sorted_by(TS_ASC),
        )
        assert (
            dense_alt.cost_breakdown["expected_workspace"]
            > sparse_alt.cost_breakdown["expected_workspace"] * 10
        )

    def test_estimator_matches_generator(self):
        rel = PoissonWorkload(
            2000, 0.25, fixed_duration(16), name="G"
        ).generate(9)
        stats = collect_statistics(rel)
        assert stats.arrival_rate == pytest.approx(0.25, rel=0.2)
        assert stats.mean_duration == 16.0


class TestSchemaInterop:
    def test_custom_schema_through_query_language(self):
        schema = TemporalSchema("Machines", "Serial", "State")
        rel = TemporalRelation.from_rows(
            schema,
            [
                ("m1", "up", 0, 50),
                ("m1", "down", 50, 60),
                ("m2", "up", 10, 90),
            ],
        )
        catalog = {"Machines": rel}
        plan = translate(
            parse_query(
                "range of m is Machines retrieve "
                "(Serial = m.Serial, From = m.ValidFrom) "
                'where m.State = "up"'
            ),
            catalog,
        )
        rows = compile_plan(optimize(plan), catalog).run()
        assert sorted(rows) == [("m1", 0), ("m2", 10)]
