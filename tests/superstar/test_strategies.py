"""Tests for the three end-to-end Superstar strategies."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import run_query
from repro.superstar import (
    SUPERSTAR_QUEL,
    all_strategies,
    conventional_superstar,
    semantic_assumptions_hold,
    semantic_superstar,
    semantic_transformation_applies,
    stream_superstar,
)
from repro.workload import FacultyWorkload, figure1_relation


@pytest.fixture
def strong_faculty():
    """Data satisfying the Section-5 assumptions: continuous careers,
    everyone reaching Full."""
    return FacultyWorkload(
        faculty_count=120, continuous=True, full_fraction=1.0
    ).generate(7)


class TestFigure1:
    def test_smith_is_the_star(self):
        rel = figure1_relation()
        result = conventional_superstar(rel)
        assert result.rows == Counter({("Smith", 0, 30): 1})

    def test_stream_strategy_agrees(self):
        rel = figure1_relation()
        assert stream_superstar(rel).rows == Counter({("Smith", 0, 30): 1})

    def test_semantic_assumptions_fail_for_kim(self):
        # Kim stops at Associate, so careers do not all reach Full.
        assert not semantic_assumptions_hold(figure1_relation())


class TestAgreement:
    def test_all_strategies_agree(self, strong_faculty):
        results = all_strategies(strong_faculty)
        assert len(results) == 3
        conventional, stream, semantic = (r.rows for r in results)
        assert conventional == stream
        assert semantic.keys() == conventional.keys()
        assert set(semantic.values()) == {1}

    @pytest.mark.parametrize(
        "seed, bag_rows", [(1, 23), (3, 20), (7, 32), (11, 24)]
    )
    def test_bag_strategies_keep_the_query_multiplicity(self, seed, bag_rows):
        """A promotion with several associate witnesses is one Quel row
        per witness: the conventional and stream strategies keep every
        one of them, the semantic self semijoin answers each superstar
        once, and all_strategies accepts both readings."""
        faculty = FacultyWorkload(
            40, hire_window=400, full_fraction=1.0
        ).generate(seed)
        query = Counter(
            run_query(SUPERSTAR_QUEL, {"Faculty": faculty}, semantic=True).rows
        )
        assert sum(query.values()) == bag_rows
        assert len(query) < bag_rows  # some superstar has two witnesses
        conventional, stream, semantic = all_strategies(faculty)
        assert conventional.rows == stream.rows == query
        assert semantic.rows == Counter(query.keys())

    def test_disagreeing_multiplicity_is_caught(self, monkeypatch):
        """all_strategies compares the bag strategies as multisets: the
        same distinct rows with one witness dropped is a disagreement."""
        import repro.superstar.queries as queries

        faculty = FacultyWorkload(
            40, hire_window=400, full_fraction=1.0
        ).generate(3)
        genuine = queries.stream_superstar

        def drops_a_witness(relation):
            result = genuine(relation)
            row, count = max(result.rows.items(), key=lambda item: item[1])
            assert count > 1
            result.rows[row] -= 1
            return result

        monkeypatch.setattr(queries, "stream_superstar", drops_a_witness)
        with pytest.raises(AssertionError, match="stream-overlap"):
            all_strategies(faculty)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_agreement_on_random_seeds(self, seed):
        rel = FacultyWorkload(
            faculty_count=30, continuous=True, full_fraction=1.0
        ).generate(seed)
        all_strategies(rel)  # raises internally on disagreement

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_conventional_vs_stream_without_assumptions(self, seed):
        rel = FacultyWorkload(
            faculty_count=25, continuous=False, full_fraction=0.6
        ).generate(seed)
        assert (
            conventional_superstar(rel).rows == stream_superstar(rel).rows
        )


class TestProfiles:
    def test_scan_counts(self, strong_faculty):
        conventional = conventional_superstar(strong_faculty)
        semantic = semantic_superstar(strong_faculty)
        assert conventional.faculty_scans == 3
        assert semantic.faculty_scans == 1

    def test_stream_strategies_read_each_input_once(self, strong_faculty):
        """Fig 8's single-scan claim, per operator: the stream strategy's
        two overlap joins and the semantic self semijoin each make one
        pass over every input they read."""
        stream = stream_superstar(strong_faculty)
        semantic = semantic_superstar(strong_faculty)
        passes = [
            (metrics.passes_x, metrics.passes_y)
            for metrics in (
                stream.details["overlap_a"],
                stream.details["overlap_b"],
                semantic.details["semijoin"],
            )
        ]
        assert passes == [(1, 1), (1, 1), (1, 0)]

    def test_semantic_workspace_is_one_tuple(self, strong_faculty):
        semantic = semantic_superstar(strong_faculty)
        assert semantic.workspace_high_water == 1

    def test_comparison_ordering(self, strong_faculty):
        """The paper's performance narrative: conventional >> stream >>
        semantic in join-condition evaluations."""
        conventional = conventional_superstar(strong_faculty)
        stream = stream_superstar(strong_faculty)
        semantic = semantic_superstar(strong_faculty)
        assert semantic.comparisons < stream.comparisons
        assert stream.comparisons < conventional.comparisons

    def test_unoptimized_conventional_is_worst(self):
        # The raw plan is cubic: 40 faculty (120 tuples) show the
        # ordering in 1.7 M evaluations; the fixture's 120 take 46.7 M.
        faculty = FacultyWorkload(
            faculty_count=40, continuous=True, full_fraction=1.0
        ).generate(7)
        raw = conventional_superstar(faculty, use_rewrites=False)
        optimized = conventional_superstar(faculty)
        assert raw.rows == optimized.rows
        assert raw.comparisons > optimized.comparisons


class TestSemanticApplicability:
    def test_transformation_applies_with_constraints(self, strong_faculty):
        assert semantic_transformation_applies(strong_faculty)

    def test_transformation_needs_constraints(self):
        from repro.model import TemporalRelation

        rel = FacultyWorkload(
            faculty_count=10, continuous=True, full_fraction=1.0
        ).generate(1)
        stripped = TemporalRelation(rel.schema, rel.tuples)
        assert not semantic_transformation_applies(stripped)

    def test_semantic_assumptions_hold(self, strong_faculty):
        assert semantic_assumptions_hold(strong_faculty)

    def test_assumptions_fail_without_continuity(self):
        rel = FacultyWorkload(
            faculty_count=10, continuous=False, full_fraction=1.0
        ).generate(1)
        assert not semantic_assumptions_hold(rel)


class TestEdgeCases:
    def test_empty_faculty(self):
        rel = FacultyWorkload(
            faculty_count=0, continuous=True, full_fraction=1.0
        ).generate(0)
        results = all_strategies(rel)
        assert all(not r.rows for r in results)

    def test_single_member_no_witness(self):
        rel = FacultyWorkload(
            faculty_count=1, continuous=True, full_fraction=1.0
        ).generate(0)
        results = all_strategies(rel)
        assert all(not r.rows for r in results)


class TestPlannedStrategy:
    """``planned_superstar`` names each superstar once, whichever
    strategy it picks: the conventional rows reduced to distinct rows."""

    @staticmethod
    def distinct(result):
        return Counter(result.rows.keys())

    def test_picks_semantic_when_constraints_allow(self, strong_faculty):
        from repro.superstar import planned_superstar

        result = planned_superstar(strong_faculty)
        assert result.strategy == "semantic-self-semijoin"
        assert result.details["planned"]
        assert result.rows == self.distinct(
            conventional_superstar(strong_faculty)
        )

    def test_falls_back_without_constraints(self):
        from repro.model import TemporalRelation
        from repro.superstar import planned_superstar

        rel = FacultyWorkload(
            faculty_count=120, continuous=True, full_fraction=1.0
        ).generate(3)
        stripped = TemporalRelation(rel.schema, rel.tuples)
        result = planned_superstar(stripped)
        assert result.strategy == "stream-overlap"
        assert result.rows == self.distinct(conventional_superstar(stripped))

    def test_conventional_for_tiny_inputs(self):
        from repro.model import TemporalRelation
        from repro.superstar import planned_superstar

        rel = FacultyWorkload(
            faculty_count=3, continuous=True, full_fraction=1.0
        ).generate(5)
        stripped = TemporalRelation(rel.schema, rel.tuples)
        result = planned_superstar(stripped)
        assert result.strategy in ("conventional", "stream-overlap")
        assert result.rows == self.distinct(conventional_superstar(stripped))

    def test_gapped_careers_use_stream_plan(self):
        from repro.superstar import planned_superstar

        rel = FacultyWorkload(
            faculty_count=100, continuous=False, full_fraction=0.7
        ).generate(9)
        result = planned_superstar(rel)
        # Chronological ordering alone cannot prove the derived
        # interval non-empty, so the single-scan plan is unsafe.
        assert result.strategy != "semantic-self-semijoin"
        assert result.rows == self.distinct(conventional_superstar(rel))

    def test_declared_constraints_do_not_change_the_rows(
        self, strong_faculty
    ):
        """Some promotion has several associate witnesses; with the
        constraints declared the semantic semijoin answers, without
        them the stream plan does, and both name each superstar once."""
        from repro.model import TemporalRelation
        from repro.superstar import planned_superstar

        assert max(conventional_superstar(strong_faculty).rows.values()) >= 2
        stripped = TemporalRelation(
            strong_faculty.schema, strong_faculty.tuples
        )
        declared = planned_superstar(strong_faculty)
        undeclared = planned_superstar(stripped)
        assert declared.strategy == "semantic-self-semijoin"
        assert undeclared.strategy != declared.strategy
        assert undeclared.rows == declared.rows
