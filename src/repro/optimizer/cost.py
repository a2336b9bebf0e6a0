"""Cost model for temporal join planning.

The paper frames the optimizer's choice as a trade-off between

* sorting inputs (to admit a stream algorithm),
* local workspace size (which depends on sort order and data
  statistics), and
* passes over the inputs / disk accesses (nested loops re-scan the
  inner relation per outer tuple).

The model prices those three resources from page counts and the
statistics of Section 6 (:mod:`repro.stats`).  Absolute values are in
abstract cost units; only comparisons between alternatives matter.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import ClassVar, Optional

from ..stats.estimators import TemporalStatistics
from ..streams.registry import TemporalOperator


@dataclass(frozen=True)
class CostModel:
    """Relative prices of the resources a plan consumes."""

    page_read: float = 1.0
    page_write: float = 1.0
    tuple_cpu: float = 0.01
    #: Price per expected state tuple held by a stream operator —
    #: memory pressure, as the paper treats workspace as a first-class
    #: cost.
    workspace_tuple: float = 0.5
    page_capacity: int = 32
    sort_memory_pages: int = 8
    #: Fixed price of dispatching one shard to the warm worker pool.
    #: The pool keeps workers resident across queries, so this is the
    #: cost of a queue round-trip, not of forking a process.
    parallel_worker_startup: float = 2.0
    #: Per-tuple coordinator overhead of a parallel plan.  A shard
    #: ships its operands as int64 column slices and returns index
    #: arrays, never tuples, so the per-tuple price is the slices'
    #: pickle plus lazy payload materialisation.
    parallel_tuple_ship: float = 0.0002
    #: Largest shard count the cost model will consider.
    max_parallel_workers: int = 8
    #: Per-tuple CPU price of the sweep relative to ``tuple_cpu``
    #: (8 us a tuple), *before* its output.  Fitted to the slot-store
    #: batch kernels as the change on top of commit a0c234f introduced
    #: them (Fig-5 generator, 12 000 tuples, kernels alone): 0.45
    #: us/tuple at any depth (bisect probes), plus ~0.3 us of per-tuple
    #: scale carried over from the earlier fit.  The refit against
    #: today's kernels belongs to the least-squares fit of the cost
    #: constants.
    BATCH_CPU_FACTOR: ClassVar[float] = 0.09
    #: What the sweep pays per expected output pair to emit its index
    #: columns: a slice, a sort and two extends per run, spread over
    #: the run's pairs.
    BATCH_PAIR_FACTOR: ClassVar[float] = 0.006

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------
    def pages(self, tuples: int) -> int:
        return math.ceil(tuples / self.page_capacity) if tuples else 0

    def scan_cost(self, tuples: int) -> float:
        """One sequential pass."""
        return self.pages(tuples) * self.page_read + tuples * self.tuple_cpu

    def sort_cost(self, tuples: int) -> float:
        """External merge sort: read+write the data once per pass."""
        if tuples == 0:
            return 0.0
        pages = self.pages(tuples)
        run_pages = self.sort_memory_pages
        runs = math.ceil(pages / run_pages)
        fan_in = max(2, self.sort_memory_pages - 1)
        merge_passes = (
            math.ceil(math.log(runs, fan_in)) if runs > 1 else 0
        )
        passes = 1 + merge_passes
        return passes * pages * (self.page_read + self.page_write) + (
            passes * tuples * self.tuple_cpu
        )

    # ------------------------------------------------------------------
    # whole-operator estimates
    # ------------------------------------------------------------------
    def nested_loop_cost(self, outer: int, inner: int) -> float:
        """Tuple-at-a-time nested loop: the inner relation is re-read
        once per outer tuple (no buffer-pool credit — the conservative
        Section-3 baseline) plus a comparison per pair."""
        inner_rescans = outer * self.pages(inner) * self.page_read
        return (
            self.scan_cost(outer)
            + inner_rescans
            + outer * inner * self.tuple_cpu
        )

    def sweep_cpu_cost(
        self, tuples: int, expected_output: float = 0.0
    ) -> float:
        """CPU price of sweeping ``tuples`` input tuples: a fraction of
        the tuple price per tuple plus a price per expected output
        pair.  The same for every cell of one operator, so it never
        decides which cell wins; page I/O, sorts and workspace do."""
        return (
            tuples * self.BATCH_CPU_FACTOR
            + expected_output * self.BATCH_PAIR_FACTOR
        ) * self.tuple_cpu

    def stream_pass_cost(
        self,
        x_tuples: int,
        y_tuples: int,
        expected_workspace: float,
        expected_output: float = 0.0,
    ) -> float:
        """One synchronized pass of both streams with the given
        expected state size and join output."""
        return (
            self.pages(x_tuples) * self.page_read
            + self.pages(y_tuples) * self.page_read
            + self.sweep_cpu_cost(x_tuples + y_tuples, expected_output)
            + expected_workspace * self.workspace_tuple
        )

    def parallel_stream_cost(
        self,
        x_tuples: int,
        y_tuples: int,
        expected_workspace: float,
        workers: int,
        replicated: float = 0.0,
        expected_output: float = 0.0,
    ) -> float:
        """One time-domain-partitioned pass with ``workers`` shards.

        Each shard sweeps ``1/workers`` of X plus its replicated share
        of Y and emits ``1/workers`` of the output; the expected
        workspace is *not* divided — the open-tuple state around any
        sweep point is a data property, independent of where the cuts
        fall (the shard-local bound equals the Table-1/2
        bound).  The coordinator pays a per-worker startup price and a
        per-tuple ship/merge price, which is what makes serial win on
        small inputs.
        """
        if workers <= 1:
            return self.stream_pass_cost(
                x_tuples,
                y_tuples,
                expected_workspace,
                expected_output=expected_output,
            )
        shipped_y = y_tuples + replicated
        per_shard = self.stream_pass_cost(
            math.ceil(x_tuples / workers),
            math.ceil(shipped_y / workers),
            expected_workspace,
            expected_output=expected_output / workers,
        )
        coordination = (
            workers * self.parallel_worker_startup
            + (x_tuples + shipped_y) * self.parallel_tuple_ship
        )
        return per_shard + coordination


def expected_replication_per_cut(
    x_stats: TemporalStatistics, y_stats: TemporalStatistics
) -> float:
    """Expected Y tuples replicated across one shard boundary.

    A cut at time t forces every Y tuple whose necessity window spans t
    into both neighbouring shards; the window is the Y lifespan widened
    by the owned X lifespans it could pair with, so the expected count
    is the Y arrival rate times the combined mean interval length —
    the interval-length-distribution input the shard-count decision
    needs.
    """
    return y_stats.arrival_rate * (
        x_stats.mean_duration + y_stats.mean_duration
    )


def choose_shard_count(
    model: CostModel,
    x_stats: TemporalStatistics,
    y_stats: TemporalStatistics,
    expected_workspace: float,
    max_workers: int,
    available_cpus: Optional[int] = None,
    expected_output: float = 0.0,
) -> int:
    """The cheapest shard count in [1, max_workers] under the model.

    Returns 1 when no parallel configuration beats the serial pass —
    the parallel-vs-serial decision the planner exposes.

    ``available_cpus`` caps the search at the cores that can actually
    run shards concurrently (default: ``os.cpu_count()``); on a
    single-CPU host the answer is always 1, because time-slicing K
    shards on one core pays all of the coordination for none of the
    speedup.  Callers pass an explicit value when the user granted a
    specific degree of parallelism.
    """
    cpus = available_cpus if available_cpus is not None else os.cpu_count() or 1
    if cpus <= 1:
        return 1
    ceiling = max(1, min(max_workers, model.max_parallel_workers, cpus))
    per_cut = expected_replication_per_cut(x_stats, y_stats)
    best_workers, best_cost = 1, model.stream_pass_cost(
        x_stats.cardinality,
        y_stats.cardinality,
        expected_workspace,
        expected_output=expected_output,
    )
    for workers in range(2, ceiling + 1):
        cost = model.parallel_stream_cost(
            x_stats.cardinality,
            y_stats.cardinality,
            expected_workspace,
            workers,
            replicated=(workers - 1) * per_cut,
            expected_output=expected_output,
        )
        if cost < best_cost:
            best_workers, best_cost = workers, cost
    return best_workers


def expected_workspace_for(
    state_class: str,
    x_stats: TemporalStatistics,
    y_stats: TemporalStatistics,
) -> float:
    """Expected state size per Table 1/2 state class.

    * (d): buffers only — zero state tuples;
    * (a)/(b): open X tuples at the sweep point plus waiting Y tuples;
    * (c): a subset of (a) — modelled as half;
    * '-': no GC criterion — the whole smaller input lingers.
    """
    if state_class in ("d", "a1"):
        return 0.0 if state_class == "d" else 1.0
    open_x = x_stats.expected_open_tuples()
    waiting_y = y_stats.arrival_rate * x_stats.mean_duration
    if state_class in ("a", "b"):
        return open_x + waiting_y
    if state_class in ("c", "b1"):
        return (open_x + waiting_y) / 2.0
    # inappropriate: state degenerates to the inputs themselves
    return float(x_stats.cardinality + y_stats.cardinality)


def _mean_excess(stats: TemporalStatistics, threshold: float) -> float:
    """``E[max(0, d - threshold)]`` for durations ``d`` taken uniform on
    ``[2·mean - max, max]`` — the one spread that the mean and the
    maximum a relation already keeps determine.  The mean of the
    positive part, not the positive part of the mean: a relation that
    is not longer than ``threshold`` *on average* still has tuples that
    are."""
    mean, longest = stats.mean_duration, float(stats.max_duration)
    shortest = 2.0 * mean - longest
    if threshold <= shortest or longest <= shortest:
        return max(0.0, mean - threshold)
    if threshold >= longest:
        return 0.0
    return (longest - threshold) ** 2 / (2.0 * (longest - shortest))


def expected_output_for(
    operator: TemporalOperator,
    x_stats: TemporalStatistics,
    y_stats: TemporalStatistics,
) -> float:
    """Expected output pairs of a join, from the same stationary model
    as the workspace: each Y tuple meets the X tuples arriving in the
    window its predicate leaves open — for containment, what an X
    lifespan has left once a Y lifespan of mean length fits inside,
    ``E[(d_x - E[d_y])+]``; for overlap ``E[d_x] + E[d_y]``.
    Semijoins and self-joins emit no pairs."""
    if operator is TemporalOperator.CONTAIN_JOIN:
        window = _mean_excess(x_stats, y_stats.mean_duration)
    elif operator is TemporalOperator.OVERLAP_JOIN:
        window = x_stats.mean_duration + y_stats.mean_duration
    else:
        return 0.0
    return y_stats.cardinality * x_stats.arrival_rate * window
