"""The traced run: per-layer metrics, measured from outside.

Nothing inside ``src/`` is instrumented for this.  Every layer is timed
by a span recorded here around a call into its public functions, and
every count is read off a public result field (``StreamJoinInfo``,
``ProcessorMetrics``, ``EngineStats``, ``ShardRun``).  One traced round
is:

1. a plain query per config (no spans, no tracer) — the base of the
   ``ratio.*`` / ``optimizer.auto_regret`` / ``obs.*`` figures;
2. one ``auto`` query with a span per pipeline stage (the ledger);
3. the operator replay: the cell the ``auto`` planner picked, re-run
   outside the query on the same operands, piece by piece and once per
   backend;
4. on the workloads that ask for it, the parallel runtime;
5. one ``auto`` query under a ``repro.obs`` tracer.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass
from typing import Iterable

from repro.algebra import LJoin
from repro.columnar import IntervalColumns, fused, kernels
from repro.model import TemporalRelation, TemporalSchema, TemporalTuple
from repro.obs import Tracer, set_tracer
from repro.optimizer import TemporalJoinPlanner, recognize_stream_join
from repro.parallel import execute_parallel, pool_stats, shutdown_pool
from repro.stats import collect_statistics
from repro.streams import BACKENDS, TupleStream

from measure import Tally, query_round, run_pipeline, run_rounds
from workloads import Instance

STAGES = (
    "query.parse_s",
    "query.translate_s",
    "algebra.rewrite_s",
    "semantic.optimize_s",
    "optimizer.execute_s",
)

#: Tables 1-3 quantities, read off each backend's ``ProcessorMetrics``.
TABLE_COUNTS = {
    "streams.comparisons": lambda m: m.comparisons,
    "streams.state_high_water": lambda m: m.workspace_high_water,
    "streams.eviction_checks": lambda m: m.eviction_checks,
    "streams.passes": lambda m: m.passes_x + m.passes_y,
}

#: Every per-layer metric, in reporting order.  One a workload has no
#: layer for (the replay and ``fused.expand_s`` on ``fig8_superstar``,
#: ``parallel.*`` where the parallel runtime is not measured,
#: ``relational.run_s`` where a join reached the stream engine) reads 0.
PER_LAYER = (
    STAGES[:4]
    + (
        "semantic.predicates_removed",
        "optimizer.recognize_s",
        "optimizer.stream_joins",
        "optimizer.execute_s",
        "optimizer.join_s",
        "optimizer.bridge_s",
        "ledger.residual_share",
        "stats.collect_s",
        "optimizer.plan_s",
        "optimizer.alternatives",
        "model.sort_s",
        "streams.sweep_s",
        "columnar.load_s",
        "columnar.kernel_s",
        "columnar.expand_s",
        "fused.kernel_s",
        "fused.expand_s",
    )
    + tuple(f"{name}.{b}" for name in TABLE_COUNTS for b in BACKENDS)
    + (
        "join.output_rows",
        "join.rows_per_input",
        "relational.run_s",
        "relational.comparisons",
        "relational.rows_scanned",
        "relational.rows_materialized",
        "relational.scans_started",
        "ratio.columnar_vs_tuple",
        "ratio.fused_vs_tuple",
        "ratio.fused_vs_columnar",
        "optimizer.auto_regret",
        "parallel.query_s",
        "parallel.picked_share",
        "parallel.tuple_backend_share",
        "parallel.execute_s",
        "parallel.shard_wall_max_s",
        "parallel.shard_wall_sum_s",
        "parallel.overhead_s",
        "parallel.replicated_tuples",
        "parallel.speedup",
        "parallel.pool_spawn_s",
        "obs.trace_overhead_share",
        "obs.spans_per_query",
    )
)

_BRIDGE_SCHEMA = TemporalSchema("bridge", "RowIndex", "Payload")


class Spans:
    """In-memory span recorder: ``(name, start, end, parent)`` per
    span, nested by a stack.  With ``collect`` every span starts on a
    collected heap (outside its timed region), as every query does."""

    def __init__(self, collect: bool = True) -> None:
        self.collect = collect
        self.records: list = []
        self._stack: list[int] = []

    def __call__(self, name: str) -> "_OpenSpan":
        return _OpenSpan(self, name)

    def total(self, name: str) -> float:
        return sum(
            end - start for n, start, end, _ in self.records if n == name
        )

    def self_time(self, name: str) -> float:
        """Duration of the one span called ``name`` minus the part its
        child spans cover."""
        (index,) = [
            i for i, r in enumerate(self.records) if r[0] == name
        ]
        _, start, end, _ = self.records[index]
        covered = sum(
            e - s for _, s, e, parent in self.records if parent == index
        )
        return end - start - covered


class _OpenSpan:
    """One span being timed.  A plain class, not a generator context
    manager: what runs between a child's end and the next child's
    start is charged to the parent's self time, i.e. to the ledger's
    residual, and on a 2 ms query a generator's bookkeeping shows."""

    __slots__ = ("spans", "name", "index", "parent", "start")

    def __init__(self, spans: Spans, name: str) -> None:
        self.spans = spans
        self.name = name

    def __enter__(self) -> None:
        spans = self.spans
        self.index = len(spans.records)
        self.parent = spans._stack[-1] if spans._stack else None
        spans.records.append(None)
        spans._stack.append(self.index)
        if spans.collect:
            gc.collect()
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        spans = self.spans
        spans._stack.pop()
        spans.records[self.index] = (self.name, self.start, end, self.parent)


def available_workers() -> int:
    return min(os.cpu_count() or 1, 4)


def bridged(tuples: Iterable[TemporalTuple]) -> TemporalRelation:
    """The hybrid executor's row bridge, replayed: endpoints kept,
    surrogate = row index, no declared order."""
    return TemporalRelation(
        _BRIDGE_SCHEMA,
        (
            TemporalTuple(index, None, t.valid_from, t.valid_to)
            for index, t in enumerate(tuples)
        ),
    )


def joins_of(plan) -> list[LJoin]:
    found = []
    for child in plan.children():
        found.extend(joins_of(child))
    if isinstance(plan, LJoin):
        found.append(plan)
    return found


# ----------------------------------------------------------------------
# 2. the staged query
# ----------------------------------------------------------------------
def staged_query(instance: Instance, values: dict, tally: Tally):
    """One ``auto`` query under stage spans.  Returns the plan and the
    stream joins it ran."""
    tally.attempted += 1
    # Stage spans must not collect garbage mid-query: the untraced
    # query does not either.
    spans = Spans(collect=False)
    planner = TemporalJoinPlanner(backend="auto")
    gc.collect()
    with spans("query"):
        plan, report, execution = run_pipeline(instance, planner, spans)
        len(execution.rows)
    for stage in STAGES:
        values[stage] = spans.total(stage)
    values["semantic.predicates_removed"] = (
        report.removed_count if report is not None else 0
    )
    join_s = sum(info.wall_seconds for info in execution.stream_joins)
    values["optimizer.stream_joins"] = len(execution.stream_joins)
    values["optimizer.join_s"] = join_s
    values["optimizer.bridge_s"] = values["optimizer.execute_s"] - join_s
    values["ledger.residual_share"] = spans.self_time(
        "query"
    ) / spans.total("query")
    stats = execution.stats
    values["relational.run_s"] = (
        0.0 if execution.stream_joins else values["optimizer.execute_s"]
    )
    values["relational.comparisons"] = stats.comparisons
    values["relational.rows_scanned"] = stats.rows_scanned
    values["relational.rows_materialized"] = stats.rows_materialized
    values["relational.scans_started"] = stats.scans_started
    return plan, execution.stream_joins


# ----------------------------------------------------------------------
# 3. the operator replay
# ----------------------------------------------------------------------
def run_cell(entry, x_sorted, y_sorted, backend: str, spans, name: str):
    """The registry cell on one backend, as the planner runs it."""
    with spans(name):
        processor = entry.build(
            TupleStream.from_relation(x_sorted, name="X"),
            TupleStream.from_relation(y_sorted, name="Y"),
            backend=backend,
        )
        out = processor.run()
    return out, processor.metrics


def kernel_call(module, metrics, x_cols, y_cols, spans, name: str):
    """The bare sweep kernel a processor ran, on loaded columns; the
    cyclic collector is paused as ``ColumnarProcessor.run`` pauses it."""
    kernel = getattr(module, metrics.kernel)
    with spans(name):
        gc.disable()
        try:
            kernel(x_cols.ts, x_cols.te, y_cols.ts, y_cols.te)
        finally:
            gc.enable()


@dataclass
class Replayed:
    """What the replay hands to the parallel section."""

    operator: object
    x_rel: TemporalRelation
    y_rel: TemporalRelation
    entry: object
    x_sorted: TemporalRelation
    y_sorted: TemporalRelation
    #: Serial fused cell, run plus expansion: ``parallel.speedup``'s base.
    serial_fused_s: float


#: Replay spans reported under their own name.
REPLAY_SPANS = (
    "stats.collect_s",
    "optimizer.plan_s",
    "model.sort_s",
    "streams.sweep_s",
    "columnar.load_s",
    "columnar.kernel_s",
    "fused.kernel_s",
    "fused.expand_s",
)


def replay(instance: Instance, plan, stream_joins, values, tally: Tally):
    """Re-run the join the query ran, outside the query.  Returns a
    :class:`Replayed`, or ``None`` without a stream join."""
    spans = Spans()
    joins = joins_of(plan)
    with spans("optimizer.recognize_s"):
        recognised = [recognize_stream_join(join) for join in joins]
    values["optimizer.recognize_s"] = spans.total("optimizer.recognize_s")
    recognised = [r for r in recognised if r is not None]
    if instance.operands is None or len(recognised) != 1:
        return None
    (operator, swapped), (info,) = recognised[0], stream_joins
    left, right = (
        bridged(operand.tuples(instance.catalog))
        for operand in instance.operands
    )
    x_rel, y_rel = (right, left) if swapped else (left, right)

    with spans("stats.collect_s"):
        collect_statistics(x_rel)
        collect_statistics(y_rel)
    planner = TemporalJoinPlanner(backend="auto")
    with spans("optimizer.plan_s"):
        ranked = planner.alternatives(operator, x_rel, y_rel)
    entry = ranked[0].entry
    with spans("model.sort_s"):
        x_sorted = x_rel.sorted_by(entry.x_order)
        y_sorted = y_rel.sorted_by(entry.y_order)

    outputs, metrics = {}, {}
    outputs["tuple"], metrics["tuple"] = run_cell(
        entry, x_sorted, y_sorted, "tuple", spans, "streams.sweep_s"
    )
    with spans("columnar.load_s"):
        x_cols = IntervalColumns.from_tuples(
            x_sorted.tuples, order=entry.x_order, presorted=True
        )
        y_cols = IntervalColumns.from_tuples(
            y_sorted.tuples, order=entry.y_order, presorted=True
        )
    outputs["columnar"], metrics["columnar"] = run_cell(
        entry, x_sorted, y_sorted, "columnar", spans, "columnar.run"
    )
    kernel_call(
        kernels, metrics["columnar"], x_cols, y_cols, spans,
        "columnar.kernel_s",
    )
    outputs["fused"], metrics["fused"] = run_cell(
        entry, x_sorted, y_sorted, "fused", spans, "fused.run"
    )
    kernel_call(
        fused, metrics["fused"], x_cols, y_cols, spans, "fused.kernel_s"
    )
    with spans("fused.expand_s"):
        pairs = list(outputs["fused"])

    for name in REPLAY_SPANS:
        values[name] = spans.total(name)
    # Whatever the columnar processor does beyond loading columns and
    # sweeping them is expansion: index columns -> payload pairs.
    values["columnar.expand_s"] = max(
        0.0,
        spans.total("columnar.run")
        - values["columnar.load_s"]
        - values["columnar.kernel_s"],
    )
    values["optimizer.alternatives"] = len(ranked)
    for name, read in TABLE_COUNTS.items():
        for backend in BACKENDS:
            values[f"{name}.{backend}"] = read(metrics[backend])
    produced = {len(out) for out in outputs.values()} | {len(pairs)}
    tally.attempted += 1
    if produced != {info.output_rows}:
        tally.fail(
            f"{instance.workload}: replay produced {produced} rows, "
            f"the query's join {info.output_rows}"
        )
    values["join.output_rows"] = info.output_rows
    values["join.rows_per_input"] = info.output_rows / (
        len(x_rel) + len(y_rel)
    )
    return Replayed(
        operator, x_rel, y_rel, entry, x_sorted, y_sorted,
        serial_fused_s=spans.total("fused.run") + values["fused.expand_s"],
    )


# ----------------------------------------------------------------------
# 4. the parallel runtime
# ----------------------------------------------------------------------
def parallel_section(
    instance: Instance, replayed: Replayed, values: dict, tally: Tally
) -> None:
    x_tuples, y_tuples = replayed.x_sorted.tuples, replayed.y_sorted.tuples
    workers = available_workers()
    spans = Spans()

    def execute(x_tuples, y_tuples):
        outcome = execute_parallel(
            replayed.entry,
            x_tuples,
            y_tuples,
            shards=workers,
            workers=workers,
            backend="fused",
            mode="process",
        )
        return outcome, list(outcome.results)

    if pool_stats()["size"] == 0:
        # Cold start to the first completed batch, on a sliver of the
        # operands: worker spawn plus their import of the runtime.
        with spans("parallel.pool_spawn_s"):
            execute(x_tuples[:64], y_tuples[:64])
        values["parallel.pool_spawn_s"] = spans.total(
            "parallel.pool_spawn_s"
        )

    planner = TemporalJoinPlanner(
        backend="auto", parallelism=workers, parallel_mode="process"
    )
    tally.attempted += 1
    with spans("parallel.query_s"):
        _, _, execution = run_pipeline(instance, planner)
        produced = len(execution.rows)
    (info,) = execution.stream_joins
    chosen = planner.choose(
        replayed.operator, replayed.x_rel, replayed.y_rel
    )
    values["parallel.query_s"] = spans.total("parallel.query_s")
    values["parallel.picked_share"] = float(info.parallel is not None)
    values["parallel.tuple_backend_share"] = float(
        chosen.backend == "tuple"
    )

    with spans("parallel.execute_s"):
        outcome, results = execute(x_tuples, y_tuples)
    walls = [run.wall_seconds for run in outcome.shard_runs]
    values["parallel.execute_s"] = spans.total("parallel.execute_s")
    values["parallel.shard_wall_max_s"] = max(walls)
    values["parallel.shard_wall_sum_s"] = sum(walls)
    values["parallel.overhead_s"] = values["parallel.execute_s"] - max(
        walls
    )
    values["parallel.replicated_tuples"] = outcome.plan.replicated_total
    values["parallel.serial_fused_s"] = replayed.serial_fused_s
    counts = {produced, len(results), values["join.output_rows"]}
    if outcome.mode != "process" or len(counts) != 1:
        tally.fail(
            f"{instance.workload}: parallel ran {outcome.mode!r}; query, "
            f"executor and serial join row counts {counts}"
        )


# ----------------------------------------------------------------------
# 5. under a repro.obs tracer
# ----------------------------------------------------------------------
def traced_query(instance: Instance, values: dict, tally: Tally) -> None:
    tracer = Tracer("bench")
    spans = Spans()
    tally.attempted += 1
    previous = set_tracer(tracer)
    try:
        with spans("obs.traced_query_s"):
            _, _, execution = run_pipeline(
                instance, TemporalJoinPlanner(backend="auto")
            )
            len(execution.rows)
    finally:
        set_tracer(previous)
    values["obs.traced_query_s"] = spans.total("obs.traced_query_s")
    values["obs.spans_per_query"] = len(tracer.spans)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def per_layer(
    instance: Instance, reference: int, tally: Tally, rounds
) -> dict[str, list]:
    """The traced run; the shared worker pool is stopped before it
    returns, whatever happened."""

    def traced_round(index: int, digest: bool) -> dict:
        values: dict = dict(
            query_round(instance, reference, tally, index, digest)
        )
        plan, stream_joins = staged_query(instance, values, tally)
        replayed = replay(instance, plan, stream_joins, values, tally)
        if instance.parallel and replayed is not None:
            parallel_section(instance, replayed, values, tally)
        traced_query(instance, values, tally)
        return values

    try:
        return run_rounds(rounds, traced_round)
    finally:
        shutdown_pool()
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """``multiprocessing`` starts a tracker process with the first
    shared-memory segment and leaves it to die with its parent; the
    benchmark has to have waited for every process it caused.  There is
    no public way to stop it, hence the private one, if it is there."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def derive(samples: dict[str, list], tally: Tally) -> dict[str, float]:
    """Every ``PER_LAYER`` metric: the median per name (counts must
    repeat exactly), then the figures defined on medians."""
    out: dict[str, float] = {}
    for name, values in samples.items():
        counted = all(isinstance(value, int) for value in values)
        if counted and len(set(values)) > 1:
            tally.fail(f"count {name} did not repeat: {values}")
        out[name] = statistics.median(values)

    # Every time in the traced run is what the clock read, so the
    # derived figures rest on ``wall_s.*``, not on calibrated seconds.
    def speedup(faster: str, slower: str) -> float:
        return out[f"wall_s.{slower}"] / out[f"wall_s.{faster}"]

    out["ratio.columnar_vs_tuple"] = speedup("columnar", "tuple")
    out["ratio.fused_vs_tuple"] = speedup("fused", "tuple")
    out["ratio.fused_vs_columnar"] = speedup("fused", "columnar")
    out["optimizer.auto_regret"] = (
        out["wall_s.auto"] / min(out[f"wall_s.{b}"] for b in BACKENDS)
        - 1.0
    )
    out["obs.trace_overhead_share"] = (
        out["obs.traced_query_s"] / out["wall_s.auto"] - 1.0
    )
    if "parallel.execute_s" in out:
        out["parallel.speedup"] = (
            out["parallel.serial_fused_s"] / out["parallel.execute_s"]
        )
    return {name: out.get(name, 0) for name in PER_LAYER}
