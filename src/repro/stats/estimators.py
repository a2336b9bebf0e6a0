"""Statistical estimators for temporal query optimization (Sections 4
and 6).

The paper argues that "statistical information about the database ...
appears to be more critical [for temporal databases]: in addition to
conventional statistical information such as relation size ...
estimating the amount of local workspace becomes necessary."  This
module provides exactly those estimators:

* arrival-rate estimation — the ``lambda`` of the ``1/lambda``
  read-phase heuristic (mean gap between consecutive ValidFrom values);
* lifespan statistics (mean/max duration);
* workspace estimators — the expected number of "open" intervals at a
  sweep point is ``lambda * E[duration]`` (Little's law applied to
  tuples entering at rate lambda and residing for their duration),
  which predicts the state high-water mark of the class (a)/(b)
  operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Iterable, Sequence

from ..columnar.relation import IntervalColumns
from ..model.relation import TemporalRelation
from ..model.tuples import TemporalTuple


@dataclass(frozen=True)
class TemporalStatistics:
    """Summary statistics of one temporal relation."""

    cardinality: int
    #: Mean gap between consecutive ValidFrom values (``1/lambda``);
    #: 0.0 for relations with fewer than two tuples.
    mean_inter_arrival: float
    #: Tuples entering per unit time (``lambda``).
    arrival_rate: float
    mean_duration: float
    max_duration: int
    #: First ValidFrom and last ValidTo.
    span_start: int
    span_end: int

    @property
    def span_length(self) -> int:
        return max(0, self.span_end - self.span_start)

    def expected_open_tuples(self) -> float:
        """Expected number of lifespans covering a random sweep point:
        ``lambda * E[duration]`` — the workspace predictor for the
        bounded stream operators."""
        return self.arrival_rate * self.mean_duration

    def expected_next_arrival(self, current: float) -> float:
        """The paper's read-phase estimate: the expected ValidFrom of
        the next tuple after one arriving at ``current``."""
        return current + self.mean_inter_arrival


def collect_statistics(
    tuples: Iterable[TemporalTuple] | TemporalRelation | IntervalColumns,
) -> TemporalStatistics:
    """Gather :class:`TemporalStatistics` from the two endpoint columns
    — an :class:`~repro.columnar.relation.IntervalColumns` operand's
    own (unless it was handed its relation's), a relation's (a value:
    gathered once and kept), or one pass over the tuples."""
    if isinstance(tuples, IntervalColumns):
        return tuples.statistics or _summarised(tuples.ts, tuples.te)
    if isinstance(tuples, TemporalRelation):
        if tuples.statistics is None:
            tuples.statistics = _summarised(*tuples.columns()[2:])
        return tuples.statistics
    rows = list(tuples)
    return _summarised(
        [tup.valid_from for tup in rows], [tup.valid_to for tup in rows]
    )


def _summarised(
    starts: Sequence[int], ends: Sequence[int]
) -> TemporalStatistics:
    cardinality = len(starts)
    if cardinality == 0:
        return TemporalStatistics(0, 0.0, 0.0, 0.0, 0, 0, 0)
    durations = list(map(sub, ends, starts))
    # mean_inter_arrival reads the two ends of the sorted starts: no sort.
    first = min(starts)
    inter = (
        (max(starts) - first) / (cardinality - 1) if cardinality > 1 else 0.0
    )
    rate = 1.0 / inter if inter > 0 else float(cardinality)
    return TemporalStatistics(
        cardinality=cardinality,
        mean_inter_arrival=inter,
        arrival_rate=rate,
        mean_duration=sum(durations) / cardinality,
        max_duration=max(durations),
        span_start=first,
        span_end=max(ends),
    )


def mean_inter_arrival(sorted_starts: Sequence[int]) -> float:
    """Mean gap between consecutive values of an ascending sequence
    (``1/lambda``); 0.0 with fewer than two values."""
    if len(sorted_starts) < 2:
        return 0.0
    total_gap = sorted_starts[-1] - sorted_starts[0]
    return total_gap / (len(sorted_starts) - 1)


def estimate_contain_join_workspace(
    x_stats: TemporalStatistics, y_stats: TemporalStatistics
) -> float:
    """Predicted state high-water mark of Contain-join under an
    appropriate ordering: open X tuples at the Y sweep point plus Y
    tuples whose ValidFrom falls inside a buffered X lifespan
    (``lambda_y * E[duration_x]``)."""
    open_x = x_stats.expected_open_tuples()
    waiting_y = y_stats.arrival_rate * x_stats.mean_duration
    return open_x + waiting_y


def estimate_overlap_join_workspace(
    x_stats: TemporalStatistics, y_stats: TemporalStatistics
) -> float:
    """Predicted state high-water mark of Overlap-join on TS-ascending
    streams: the open tuples of both inputs."""
    return x_stats.expected_open_tuples() + y_stats.expected_open_tuples()
