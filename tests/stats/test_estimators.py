"""Tests for statistical estimators and workspace prediction."""

import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import IntervalColumns
from repro.model import TS_ASC, TemporalRelation, TemporalSchema, TemporalTuple
from repro.stats import (
    TemporalStatistics,
    collect_statistics,
    estimate_contain_join_workspace,
    estimate_overlap_join_workspace,
    mean_inter_arrival,
)
from repro.streams import OverlapJoin, TupleStream
from repro.workload import PoissonWorkload, fixed_duration, uniform_duration


class TestMeanInterArrival:
    def test_uniform_sequence(self):
        assert mean_inter_arrival([0, 10, 20, 30]) == 10.0

    def test_short_sequences(self):
        assert mean_inter_arrival([]) == 0.0
        assert mean_inter_arrival([5]) == 0.0

    def test_irregular_sequence(self):
        # Total gap 9 over 3 intervals.
        assert mean_inter_arrival([1, 2, 3, 10]) == 3.0


class TestCollectStatistics:
    def test_empty(self):
        stats = collect_statistics([])
        assert stats.cardinality == 0
        assert stats.expected_open_tuples() == 0.0

    def test_basic_counts(self):
        tuples = [
            TemporalTuple("a", 1, 0, 10),
            TemporalTuple("b", 2, 5, 7),
            TemporalTuple("c", 3, 10, 30),
        ]
        stats = collect_statistics(tuples)
        assert stats.cardinality == 3
        assert stats.mean_duration == pytest.approx((10 + 2 + 20) / 3)
        assert stats.max_duration == 20
        assert stats.span_start == 0
        assert stats.span_end == 30
        assert stats.mean_inter_arrival == 5.0
        assert stats.arrival_rate == pytest.approx(0.2)

    def test_expected_next_arrival(self):
        tuples = [TemporalTuple(str(i), i, 10 * i, 10 * i + 1) for i in range(5)]
        stats = collect_statistics(tuples)
        assert stats.expected_next_arrival(100) == pytest.approx(110.0)

    def test_recovers_generator_rate(self):
        """The estimator recovers the Poisson workload's lambda within
        sampling error."""
        workload = PoissonWorkload(
            cardinality=4000, arrival_rate=0.25, duration=fixed_duration(5)
        )
        stats = collect_statistics(workload.generate(seed=3))
        assert stats.arrival_rate == pytest.approx(0.25, rel=0.15)
        assert stats.mean_duration == 5.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),
                st.integers(min_value=1, max_value=50),
            ),
            min_size=2,
            max_size=50,
        )
    )
    def test_open_tuples_estimate_is_nonnegative(self, spans):
        tuples = [
            TemporalTuple(str(i), i, a, a + d) for i, (a, d) in enumerate(spans)
        ]
        stats = collect_statistics(tuples)
        assert stats.expected_open_tuples() >= 0.0
        assert stats.span_length >= 0


def sorting_statistics(tuples):
    """``collect_statistics`` as it was while it sorted the start column
    to read its two ends — the loop version the min/max one must equal
    field for field, floats included."""
    starts = [t.valid_from for t in tuples]
    ends = [t.valid_to for t in tuples]
    cardinality = len(starts)
    if cardinality == 0:
        return TemporalStatistics(0, 0.0, 0.0, 0.0, 0, 0, 0)
    durations = [end - start for start, end in zip(starts, ends)]
    sorted_starts = sorted(starts)
    inter = mean_inter_arrival(sorted_starts)
    return TemporalStatistics(
        cardinality=cardinality,
        mean_inter_arrival=inter,
        arrival_rate=1.0 / inter if inter > 0 else float(cardinality),
        mean_duration=sum(durations) / cardinality,
        max_duration=max(durations),
        span_start=sorted_starts[0],
        span_end=max(ends),
    )


def poisson(n, seed=9):
    return list(
        PoissonWorkload(n, 0.3, uniform_duration(1, 90)).generate(seed).tuples
    )


def shuffled(tuples):
    tuples = list(tuples)
    random.Random(4).shuffle(tuples)
    return tuples


STATISTICS_INPUTS = {
    "sorted": poisson(700),
    "shuffled": shuffled(poisson(700)),
    "empty": [],
    "singleton": poisson(1),
    "all-equal-start": [
        TemporalTuple(str(i), i, 40, 41 + i % 7) for i in range(30)
    ],
    # Gaps no float holds exactly: the division must be the same one.
    "huge": shuffled(
        TemporalTuple(str(i), i, 3**i, 3**i + 2**61) for i in range(37)
    ),
}


@pytest.mark.parametrize("name", STATISTICS_INPUTS)
def test_statistics_equal_the_sorting_versions(name):
    tuples = STATISTICS_INPUTS[name]
    expected = astuple(sorting_statistics(tuples))
    relation = TemporalRelation(TemporalSchema("R", "Id", "Seq"), tuples)
    born = IntervalColumns.from_tuples(tuples)
    columns = IntervalColumns(born.ts, born.te, range(len(tuples)), None)
    # Asked twice, a relation and an operand answer from memory.
    for source in (tuples, relation, relation, columns, columns):
        assert astuple(collect_statistics(source)) == expected
    assert relation.statistics is collect_statistics(relation)
    assert columns.tuples_built == 0


class TestWorkspacePrediction:
    """The headline claim: lambda * E[duration] predicts the measured
    state high-water mark of the bounded stream operators."""

    def make_relation(self, rate, duration, n=3000, seed=11):
        workload = PoissonWorkload(
            cardinality=n, arrival_rate=rate, duration=fixed_duration(duration)
        )
        return workload.generate(seed=seed).sorted_by(TS_ASC)

    def test_overlap_join_workspace_prediction(self):
        x_rel = self.make_relation(0.5, 20, seed=1)
        y_rel = self.make_relation(0.5, 20, seed=2)
        predicted = estimate_overlap_join_workspace(
            collect_statistics(x_rel), collect_statistics(y_rel)
        )
        join = OverlapJoin(
            TupleStream.from_relation(x_rel), TupleStream.from_relation(y_rel)
        )
        join.run()
        measured = join.metrics.workspace_high_water
        # The high-water mark is an extreme statistic; allow generous
        # but shape-preserving bounds around the mean-based estimate.
        assert predicted * 0.5 <= measured <= predicted * 4

    def test_prediction_scales_with_duration(self):
        """Doubling lifespans roughly doubles both the estimate and the
        measured workspace — the 'optimal sort order depends on data
        statistics' effect."""
        measured = {}
        predicted = {}
        for duration in (10, 40):
            x_rel = self.make_relation(0.5, duration, seed=3)
            y_rel = self.make_relation(0.5, duration, seed=4)
            predicted[duration] = estimate_overlap_join_workspace(
                collect_statistics(x_rel), collect_statistics(y_rel)
            )
            join = OverlapJoin(
                TupleStream.from_relation(x_rel),
                TupleStream.from_relation(y_rel),
            )
            join.run()
            measured[duration] = join.metrics.workspace_high_water
        assert predicted[40] > 2.5 * predicted[10]
        assert measured[40] > 2.0 * measured[10]

    def test_contain_join_estimate_positive(self):
        x_rel = self.make_relation(0.2, 30, n=500, seed=5)
        y_rel = self.make_relation(0.2, 5, n=500, seed=6)
        estimate = estimate_contain_join_workspace(
            collect_statistics(x_rel), collect_statistics(y_rel)
        )
        assert estimate > 0
