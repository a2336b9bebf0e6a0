"""Parallel execution of range-sharded stream operators.

:func:`execute_parallel` is the parallel twin of
:func:`repro.resilience.executor.execute_entry`: same inputs, same
recovery ladder, same accounting — but the operator runs as K
independent shards.  Every run has one spine: the operands are
columnised (:class:`~repro.columnar.relation.IntervalColumns`), shards
are planned as contiguous index ranges (:mod:`repro.parallel.shards`),
each shard is one task carrying its slices of the endpoint columns,
run by the one shard function
(:func:`repro.parallel.worker.run_task` — ``execute_entry`` itself,
over the shard's slices), which returns an ``array('q')`` index chunk,
and the chunks are wrapped in :class:`LazyResults`, whose payload
tuples materialise on the parent side only when touched.  The two
modes differ only in where that function runs:

* ``"process"`` — each task is submitted to a persistent warm spawn
  pool (:mod:`repro.parallel.pool`), which pickles the task's int64
  slices out and the index chunk back.  No ``TemporalTuple`` is ever
  pickled on this path.
* ``"inline"`` — the tasks run sequentially in-process: deterministic,
  traced in place, and the fallback whenever the worker pool is
  unavailable.

Sort orders are checked once, on the whole operands before they are
cut, by the serial executor's own check
(:func:`~repro.resilience.executor.verify_orders`): STRICT raises,
DEGRADE re-sorts the operand, and the report reads as a serial run's.
Workspace overflows are per shard: each shard runs under the caller's
policy, so a shard raises or spills on its own — siblings never see
it.  Shard reports are merged into one
:class:`~repro.resilience.recovery.ExecutionReport`; each shard's row
is a :class:`ShardRun`, and its time a ``shard:<i>`` span.
Pool infrastructure failures are *visible* degradations: the run falls
back inline and records the exception class in
:attr:`ParallelOutcome.containment` and on the ``parallel:`` span.

Merged output order is deterministic and the same in both modes:
shards concatenate in cut order, which for semijoins reproduces the
serial X-order output exactly; join cells interleave pairs differently
than the serial sweep but are multiset-identical, the same guarantee
the physical backends give each other.
"""

from __future__ import annotations

import os
from array import array
from collections import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..columnar.relation import IntervalColumns
from ..columns import gather
from ..errors import ExecutionError, ReproError
from ..governance.budget import active_token
from ..model.tuples import TemporalTuple
from ..obs.trace import get_tracer
from ..resilience.executor import Operand, verify_orders
from ..resilience.recovery import ExecutionReport, RecoveryPolicy
from ..streams.metrics import ProcessorMetrics
from ..streams.registry import RegistryEntry
from .pool import run_batch
from .shards import RangePlan, ShardRange, plan_ranges
from .worker import run_task

EXECUTION_MODES = ("auto", "process", "inline")


def _available_cpus() -> int:
    return os.cpu_count() or 1


@dataclass
class ShardRun:
    """What one shard did — the shard row.  :meth:`as_dict` is its one
    published form: the join row's and the audit record's shard rows,
    which EXPLAIN ANALYZE renders."""

    #: Published as ``shard``.
    index: int
    operator: str
    backend: str
    #: The batch kernel that swept the shard (``None`` on the
    #: tuple-at-a-time backend).
    kernel: Optional[str]
    x_tuples: int
    y_tuples: int
    owned_lo: int
    owned_hi: int
    #: Published, in milliseconds, as ``wall_ms``.
    wall_seconds: float
    passes_x: int
    passes_y: int
    eviction_checks: int
    output_count: int
    degraded: bool
    fallbacks: int
    residual_filtered: int
    #: Dispatch attempt that produced this row: 0 on the first dispatch
    #: (and for inline shards, which run in-process exactly once), >0
    #: when the shard was re-run after a worker death.
    attempt: int
    #: Worker process that ran the shard (``None`` inline).
    pid: Optional[int]
    #: Real Span objects the shard allocated in the worker — always
    #: reported, so every run can check it stayed zero: a worker never
    #: traces.
    worker_spans_created: int

    @classmethod
    def of(cls, task: dict, summary: dict) -> "ShardRun":
        """The row of one finished shard, whichever mode ran it: what
        its task cut it to, and what its body reported."""
        metrics: ProcessorMetrics = summary["metrics"]
        report: ExecutionReport = summary["report"]
        return cls(
            index=task["index"],
            operator=task["operator"].value,
            backend=task["backend"],
            kernel=metrics.kernel,
            x_tuples=len(task["x_ts"]),
            y_tuples=len(task["y_ts"] or ()),
            owned_lo=task["owned_lo"],
            owned_hi=task["owned_hi"],
            wall_seconds=summary["wall_seconds"],
            passes_x=metrics.passes_x,
            passes_y=metrics.passes_y,
            eviction_checks=metrics.eviction_checks,
            output_count=summary["output_count"],
            degraded=bool(report.fallbacks),
            fallbacks=len(report.fallbacks),
            residual_filtered=summary["residual_filtered"],
            attempt=summary["attempt"],
            pid=summary.get("pid"),
            worker_spans_created=summary.get("worker_spans_created", 0),
        )

    def as_dict(self) -> dict:
        row = dict(vars(self))
        row["shard"] = row.pop("index")
        row["wall_ms"] = round(row.pop("wall_seconds") * 1e3, 3)
        return row


@dataclass
class ParallelOutcome:
    """Merged results plus everything the shards reported.

    ``results`` is a :class:`LazyResults`: list-like, with payload
    tuples materialising on first element access (``len()`` is always
    free).
    """

    results: "LazyResults"
    report: ExecutionReport
    metrics: ProcessorMetrics
    policy: RecoveryPolicy
    backend: str
    mode: str
    workers: int
    plan: RangePlan
    shard_runs: List[ShardRun] = field(default_factory=list)
    #: Containment counters of the process-mode batch (shard_retries,
    #: worker_deaths); ``{"pool_fallback:<exception class>": 1}`` when
    #: the pool failed and the run fell back inline; empty on other
    #: inline runs.
    containment: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return bool(self.report.fallbacks)


# ----------------------------------------------------------------------
# shard tasks and the two modes that run them
# ----------------------------------------------------------------------
def _shard_tasks(
    entry: RegistryEntry,
    plan: RangePlan,
    x_cols: IntervalColumns,
    y_cols: Optional[IntervalColumns],
    backend: str,
    policy: RecoveryPolicy,
    workspace_budget: Optional[int],
) -> List[dict]:
    """One task per planned range: its column slices plus small
    config, everything :func:`~repro.parallel.worker.run_task` reads."""
    shape = entry.operator.shape
    tasks = []
    for shard_range in plan.ranges:
        task = {
            "index": shard_range.index,
            "attempt": 0,
            "operator": entry.operator,
            "x_order": entry.x_order,
            "y_order": entry.y_order,
            "shape": shape,
            "owned_lo": shard_range.owned_lo,
            "owned_hi": shard_range.owned_hi,
            "backend": backend,
            "policy": policy,
            "workspace_budget": workspace_budget,
        }
        y_lo, y_hi = shard_range.y_lo, shard_range.y_hi
        if shape == "self":
            # Kernel input is the context hull range of the X columns.
            x_lo, x_hi = y_lo, y_hi
            task.update(y_base=0, y_ts=None, y_te=None)
        else:
            x_lo, x_hi = shard_range.owned_lo, shard_range.owned_hi
            task.update(
                y_base=y_lo,
                y_ts=y_cols.ts[y_lo:y_hi],
                y_te=y_cols.te[y_lo:y_hi],
            )
        task.update(
            x_base=x_lo, x_ts=x_cols.ts[x_lo:x_hi], x_te=x_cols.te[x_lo:x_hi]
        )
        tasks.append(task)
    return tasks


def _run_inline(tracer, tasks: List[dict]) -> List[tuple]:
    """Run each task in-process, with the shard span wrapping the real
    run so per-shard operator/attempt spans nest underneath it.
    Returns one ``(shard row, summary, chunk)`` per shard."""
    finished = []
    for task in tasks:
        with tracer.span(
            f"shard:{task['index']}", shard=task["index"], attempt=0
        ):
            summary, chunk = run_task(task)
        # No worker ran it: the row names no worker process, and the
        # shard's spans belong to the parent's own trace.
        summary.update(pid=None, worker_spans_created=0)
        finished.append((ShardRun.of(task, summary), summary, chunk))
    return finished


def _run_process(tasks: List[dict], workers: int) -> tuple:
    """Submit the tasks to the warm pool; returns ``(one (shard row,
    summary, chunk) per shard, containment stats)``."""
    token = active_token()
    governance = _governance_payload(token)
    if governance is not None:
        tasks = [dict(task, governance=governance) for task in tasks]
    results, containment = run_batch(tasks, min(workers, len(tasks)), token)
    finished = [
        (ShardRun.of(task, summary), summary, chunk)
        for task, (summary, chunk) in zip(tasks, results)
    ]
    return finished, containment


def _governance_payload(token) -> Optional[dict]:
    """The governance slice a worker can enforce locally: the parent's
    *remaining* deadline (the worker's clock starts at dispatch) and
    the workspace cap.  Page reads stay parent-accounted."""
    if token is None:
        return None
    remaining = token.remaining()
    cap = token.budget.workspace_tuple_cap
    if remaining is None and cap is None:
        return None
    return {
        "deadline_seconds": (
            max(remaining, 0.001) if remaining is not None else None
        ),
        "workspace_tuple_cap": cap,
    }


class LazyResults(abc.Sequence):
    """Merged shard outputs held as positional index columns.

    Shards return shard-local index arrays plus base offsets, never
    payloads; the payload tuples materialise
    (then cache) only when an element is actually touched.  ``len()``
    is free, so consumers that need counts alone — EXPLAIN ANALYZE,
    the metrics layer, cardinality checks — never pay for output
    object construction, and the hybrid executor reads
    :meth:`index_columns` instead of the payload pairs.
    """

    __slots__ = (
        "x_payload",
        "y_payload",
        "_chunks",
        "_length",
        "_columns",
        "_cache",
    )

    def __init__(
        self,
        originals_x: Sequence[TemporalTuple],
        originals_y: Optional[Sequence[TemporalTuple]],
        chunks: Sequence[tuple],
    ):
        #: The operands as handed to :func:`execute_parallel`, which
        #: :meth:`index_columns` positions point into.
        self.x_payload = originals_x
        self.y_payload = originals_y
        self._chunks = chunks
        self._length = sum(len(chunk[0]) for chunk in chunks)
        self._columns: Optional[tuple] = None
        self._cache: Optional[list] = None

    def index_columns(self) -> tuple:
        """Global ``(xi, yj)`` position columns — chunk base plus
        shard-local index, chunks in cut order, so entry ``k`` is the
        ``k``-th merged output.  ``yj`` stays empty for semijoin
        shapes.  Computed once; the chunks are released."""
        if self._columns is None:
            xi, yj = array("q"), array("q")
            for first, second, x_base, y_base in self._chunks:
                xi.extend(map(x_base.__add__, first))
                if second is not None:
                    yj.extend(map(y_base.__add__, second))
            self._columns = (xi, yj)
            self._chunks = ()
        return self._columns

    def _materialised(self) -> list:
        if self._cache is None:
            xi, yj = self.index_columns()
            out = gather(self.x_payload, xi)
            if yj:
                if self.y_payload is None:
                    raise ExecutionError(
                        "pair results require Y originals"
                    )
                out = zip(out, gather(self.y_payload, yj))
            self._cache = list(out)
        return self._cache

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return iter(self._materialised())

    def __getitem__(self, index):
        return self._materialised()[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "materialised" if self._cache is not None else "lazy"
        return f"LazyResults(n={self._length}, {state})"


def _as_columns(operand, order, name: str) -> IntervalColumns:
    """An operand already held as columns is sharded as it is; tuples,
    checked to be in ``order``, are columnised as they are."""
    if isinstance(operand, IntervalColumns):
        return operand
    return IntervalColumns.from_tuples(
        operand, order=order, presorted=True, name=name
    )


def _note_pool_fallback(span, exc: Exception) -> dict:
    """A pool fallback is never silent: the exception class goes on
    the span and into the containment counters the join row (and so
    EXPLAIN ANALYZE and the audit record) carries."""
    span.set(pool_fallback=True, fallback_error=type(exc).__name__)
    return {f"pool_fallback:{type(exc).__name__}": 1}


# ----------------------------------------------------------------------
# the parallel executor
# ----------------------------------------------------------------------
def execute_parallel(
    entry: RegistryEntry,
    x_tuples: Operand,
    y_tuples: Optional[Operand] = None,
    shards: int = 2,
    workers: Optional[int] = None,
    backend: str = "columnar",
    policy: RecoveryPolicy = RecoveryPolicy.STRICT,
    workspace_budget: Optional[int] = None,
    report: Optional[ExecutionReport] = None,
    mode: str = "auto",
) -> ParallelOutcome:
    """Run one registry cell as ``shards`` time-domain shards.

    Operands are claimed to be in the entry's declared orders and held
    to them as ``execute_entry`` holds its own, by
    :func:`~repro.resilience.executor.verify_orders` under either
    policy; an operand may also arrive as the
    :class:`~repro.columnar.relation.IntervalColumns` this function
    would otherwise build from it.  ``workers`` caps the pool size
    (default: one worker per shard); ``mode`` picks ``"process"``
    (shard tasks on the warm worker pool), ``"inline"``
    (sequential in-process), or ``"auto"`` (process when more than one
    worker is useful *and* the host has more than one CPU).

    The ``REPRO_PARALLEL_MODE`` environment variable, when set to one
    of the valid modes, overrides ``mode`` — CI uses it to force the
    process path on single-CPU runners where ``auto`` would stay
    inline.
    """
    env_mode = os.environ.get("REPRO_PARALLEL_MODE")
    if env_mode in EXECUTION_MODES:
        mode = env_mode
    if mode not in EXECUTION_MODES:
        raise ExecutionError(
            f"unknown parallel mode {mode!r}; choose one of "
            f"{EXECUTION_MODES}"
        )
    report = report if report is not None else ExecutionReport()
    unary = entry.operator.shape == "self"
    if not unary and y_tuples is None:
        raise ExecutionError(
            f"{entry.operator.value} is binary; y_tuples is required"
        )

    tracer = get_tracer()
    with tracer.span(
        f"parallel:{entry.operator.value}",
        backend=backend,
        policy=policy.value,
        requested_shards=shards,
    ) as span:
        # The serial executor's check, on whole operands before they
        # are cut: a misorder straddling a cut is in order within both
        # slices, so no shard could see it.
        x_operand, y_operand = verify_orders(
            entry, x_tuples, None if unary else y_tuples, policy, report
        )
        x_cols = _as_columns(x_operand, entry.x_order, "X")
        y_cols = None if unary else _as_columns(y_operand, entry.y_order, "Y")
        plan = plan_ranges(
            entry,
            x_cols.ts,
            x_cols.te,
            y_cols.ts if y_cols is not None else None,
            y_cols.te if y_cols is not None else None,
            shards=shards,
        )
        tasks = _shard_tasks(
            entry, plan, x_cols, y_cols, backend, policy, workspace_budget
        )
        effective_workers = max(
            1,
            min(
                workers if workers is not None else plan.effective_shards,
                plan.effective_shards,
            ),
        )
        finished: Optional[List[tuple]] = None
        containment: dict = {}
        want_process = mode == "process" or (
            mode == "auto"
            and shards > 1
            and (workers is None or workers > 1)
            and _available_cpus() > 1
        )
        # One shard gains nothing from a process hop unless asked for.
        if want_process and len(tasks) >= (2 if mode == "auto" else 1):
            try:
                finished, containment = _run_process(tasks, effective_workers)
            except ReproError:
                raise
            except Exception as exc:
                # Pool infrastructure failed (retries spent, a hung
                # batch, spawn failure): parallelism is an optimisation,
                # correctness falls back inline — but visibly
                # (containment + span), never silently.
                containment = _note_pool_fallback(span, exc)
            else:
                effective_mode = "process"
                for run, _summary, _chunk in finished:
                    _emit_shard_span(tracer, run, span)
        if finished is None:
            finished = _run_inline(tracer, tasks)
            effective_mode = "inline"

        shard_runs: List[ShardRun] = []
        chunks: List[tuple] = []
        metrics = ProcessorMetrics(buffers=0)
        for run, summary, chunk in finished:
            shard_runs.append(run)
            chunks.append(chunk)
            report.absorb(summary["report"])
            metrics.fold(summary["metrics"])
        results = LazyResults(
            x_cols.payload,
            None if y_cols is None else y_cols.payload,
            chunks,
        )
        metrics.output_count = len(results)
        metrics.resilience = report.as_dict()
        span.set(
            mode=effective_mode,
            shards=plan.effective_shards,
            workers=effective_workers,
            skew_ratio=round(plan.skew_ratio, 3),
            replicated=plan.replicated_total,
            boundary_spanning=plan.boundary_spanning,
            output_count=len(results),
        )
        if effective_mode == "process":
            span.set(
                shard_retries=containment.get("shard_retries", 0),
                worker_deaths=containment.get("worker_deaths", 0),
            )

    return ParallelOutcome(
        results=results,
        report=report,
        metrics=metrics,
        policy=policy,
        backend=backend,
        mode=effective_mode,
        workers=effective_workers,
        plan=plan,
        shard_runs=shard_runs,
        containment=containment,
    )


# ----------------------------------------------------------------------
# process-mode shard spans
# ----------------------------------------------------------------------
def _emit_shard_span(tracer, run: ShardRun, parallel_span) -> None:
    """Process-mode shards ran in a worker process, which does not
    trace; each gets one span in the parent trace, named and identified
    as an inline shard's is and timed by its shard row: it ends when it
    is emitted, after the batch, and lasts the row's ``wall_seconds``
    (a duration, so the worker's clock origin does not matter), its
    start clamped so it stays inside the ``parallel:`` span."""
    if not tracer.enabled:
        return
    with tracer.span(
        f"shard:{run.index}", shard=run.index, attempt=run.attempt, pid=run.pid
    ) as span:
        pass
    span.start_ns = max(
        parallel_span.start_ns,
        span.end_ns - round(run.wall_seconds * 1e9),
    )


# Re-exported so tests can reference the range planner via the
# executor module (and to keep ShardRange in the public surface).
__all__ = [
    "EXECUTION_MODES",
    "LazyResults",
    "ParallelOutcome",
    "RangePlan",
    "ShardRange",
    "ShardRun",
    "execute_parallel",
]
