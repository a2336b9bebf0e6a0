"""Tests for the run_query convenience façade."""

import sys
from collections import Counter

import pytest

from repro.errors import ParseError, TranslationError
from repro.query import run_query
from repro.relational import Select, TableScan
from repro.superstar import SUPERSTAR_QUEL, conventional_superstar
from repro.workload import FacultyWorkload, figure1_relation

CATALOG = {"Faculty": figure1_relation()}


class TestRunQuery:
    def test_simple_selection(self):
        result = run_query(
            'range of f is Faculty retrieve (N = f.Name) '
            'where f.Rank = "Full"',
            CATALOG,
        )
        assert sorted(result.rows) == [("Jones",), ("Smith",)]
        assert result.schema.attributes == ("N",)
        assert len(result) == 2

    def test_iteration(self):
        result = run_query(
            "range of f is Faculty retrieve (N = f.Name)", CATALOG
        )
        assert len(list(result)) == len(figure1_relation())

    def test_rewrite_flag_preserves_semantics(self):
        raw = run_query(SUPERSTAR_QUEL, CATALOG, rewrite=False)
        rewritten = run_query(SUPERSTAR_QUEL, CATALOG, rewrite=True)
        assert sorted(raw.rows) == sorted(rewritten.rows)
        assert rewritten.stats.comparisons < raw.stats.comparisons

    def test_semantic_flag_attaches_report(self):
        result = run_query(SUPERSTAR_QUEL, CATALOG, semantic=True)
        assert result.semantic_report is not None
        assert result.semantic_report.removed_count == 2
        assert result.rows == [("Smith", 0, 30)]

    def test_semantic_off_by_default(self):
        result = run_query(SUPERSTAR_QUEL, CATALOG)
        assert result.semantic_report is None

    def test_parse_errors_propagate(self):
        with pytest.raises(ParseError):
            run_query("retrieve (N = f.Name)", CATALOG)

    def test_unknown_relation(self):
        with pytest.raises(TranslationError):
            run_query(
                "range of f is Nowhere retrieve (N = f.Name)", CATALOG
            )

    def test_stats_capture_scans(self):
        result = run_query(SUPERSTAR_QUEL, CATALOG)
        assert result.stats.scans_started == 3

    def test_semantic_equivalence_on_generated_data(self):
        catalog = {
            "Faculty": FacultyWorkload(
                faculty_count=40, continuous=True, full_fraction=1.0
            ).generate(13)
        }
        plain = run_query(SUPERSTAR_QUEL, catalog)
        semantic = run_query(SUPERSTAR_QUEL, catalog, semantic=True)
        assert set(plain.rows) == set(semantic.rows)


class TestFrontDoorConventionalCounts:
    """Superstar through ``run_query`` with the semantic optimizer runs
    the paper's Section-3 plan — rank selections, a hash equi-join and
    a nested-loop less-than join — and no stream join."""

    FACULTY = FacultyWorkload(
        faculty_count=40, hire_window=400, continuous=True, full_fraction=0.6
    ).generate(5)

    def run(self, streams):
        catalog = {"Faculty": self.FACULTY}
        return run_query(
            SUPERSTAR_QUEL, catalog, semantic=True, streams=streams
        )

    def test_counts_are_derived_from_the_relation(self):
        result = self.run(streams=True)
        faculty = self.FACULTY
        ranks = Counter(t.value for t in faculty)
        names = {
            rank: Counter(t.surrogate for t in faculty if t.value == rank)
            for rank in ("Assistant", "Full")
        }
        # f1.Name = f2.Name: one hash candidate per same-name pair, and
        # no residual, so each candidate is an Assistant-Full row.
        pairs = sum(
            count * names["Full"][name]
            for name, count in names["Assistant"].items()
        )
        stats = result.stats
        assert result.stream_joins == []
        assert stats.scans_started == 3
        assert stats.rows_scanned == 3 * len(faculty)
        # The hash build side (Full) and the nested loop's inner side
        # (Associate) are materialised once each.
        assert stats.rows_materialized == ranks["Full"] + ranks["Associate"]
        # One selection per scanned row, one comparison per hash
        # candidate, one per Assistant-Full x Associate pair.
        assert stats.comparisons == (
            3 * len(faculty) + pairs + pairs * ranks["Associate"]
        )

    def test_rows_agree_with_the_other_conventional_paths(self):
        result = self.run(streams=True)
        assert result.rows
        assert Counter(result.rows) == Counter(self.run(streams=False).rows)
        conventional = conventional_superstar(self.FACULTY)
        assert Counter(result.rows) == conventional.rows
        assert conventional.comparisons == result.stats.comparisons


class TestFrontDoorWarmQuery:
    """A second Superstar query over one catalog compiles no predicate
    (the code is cached by its text) and iterates only the hash join's
    probe side, f1: the build side (f2) and the nested loop's inner
    side (f3) are drained column-wise."""

    ENTRIES = {TableScan.__iter__.__code__, Select.__iter__.__code__}

    def run(self):
        catalog = {"Faculty": TestFrontDoorConventionalCounts.FACULTY}
        return run_query(SUPERSTAR_QUEL, catalog, semantic=True, streams=True)

    def test_second_query_compiles_nothing_and_iterates_the_probe_side(self):
        first = self.run()
        compiles = 0
        iterated = set()

        def profile(frame, event, arg):
            nonlocal compiles
            if event == "c_call" and arg is compile:
                compiles += 1
            elif event == "call" and frame.f_code in self.ENTRIES:
                operator = frame.f_locals["self"]
                for name in operator.schema.attributes:
                    iterated.add((type(operator), name.partition(".")[0]))

        sys.setprofile(profile)
        try:
            second = self.run()
        finally:
            sys.setprofile(None)
        assert compiles == 0
        assert iterated == {(TableScan, "f1"), (Select, "f1")}
        assert second.rows == first.rows and second.stats == first.stats
