"""The shard body: one function for both modes.

:func:`run_task` is the one way a shard executes, in the parent
(``mode="inline"``) or as a pool task (``mode="process"``), whatever
the backend and recovery policy.  A task carries its own endpoint
column slices; the body wraps them as
:class:`~repro.columnar.relation.IntervalColumns` whose payload is the
shard-local row position and runs them through
:func:`~repro.resilience.executor.execute_entry`, the body every serial
plan runs too: a batch backend sweeps the slices as they are (a
mirrored cell their negations), so a clean shard costs the kernel plus
zero object traffic, and a workspace overflow raises or spills per
shard (sort orders were checked on the whole operands before the cut,
so a shard's own check finds nothing); only the spill, tuple-at-a-time
by nature, builds the shard's tuples (surrogate = position, no
payloads).

The result is ``(summary, chunk)``, where the chunk is
``(first, second, x_base, y_base)``: ``array('q')`` shard-local index
columns plus the bases that make them global.  The parent materialises
payload tuples lazily from its own relation lists, so no
backend/policy combination ever pickles a tuple: a process-mode task
and its result cross the pipe as the pool's own pickles of int64
arrays.
"""

from __future__ import annotations

import os
import time
from array import array
from typing import Optional, Sequence

from ..columnar.relation import IntervalColumns
from ..columns import gather
from ..governance.budget import QueryBudget, active_token, governed
from ..obs.trace import span_creation_count
from ..resilience.executor import execute_entry, index_sides
from ..streams.registry import lookup


def run_task(task: dict) -> tuple:
    """Execute one shard task; returns ``(summary, chunk)``.

    Raises whatever the shard raises (STRICT semantics) — in process
    mode the pool ships the exception back to the parent.
    """
    if task["attempt"] < task.get("fault_exit", 0):
        # Test hook for a worker death: die before the shard runs, on
        # every attempt below ``fault_exit``.  ``1`` heals on the
        # re-run; a value above the pool's retry cap is a poison pill.
        os._exit(2)
    spans_before = span_creation_count()
    started = time.perf_counter()
    gov = task.get("governance")
    if gov is None:
        summary, chunk = run_shard(task)
    else:
        # A pool task carries the parent's remaining deadline and
        # workspace cap so in-worker checkpoints (meter inserts, pass
        # boundaries) fire too.
        with governed(
            QueryBudget(
                deadline_seconds=gov.get("deadline_seconds"),
                workspace_tuple_cap=gov.get("workspace_tuple_cap"),
            )
        ):
            summary, chunk = run_shard(task)
    summary["wall_seconds"] = time.perf_counter() - started
    summary["attempt"] = task["attempt"]
    summary["pid"] = os.getpid()
    # A per-task delta (the counter is process-wide and workers are
    # reused): a worker never traces, so the parent can check it is 0.
    summary["worker_spans_created"] = span_creation_count() - spans_before
    return summary, chunk


def run_shard(task: dict) -> tuple:
    """Sweep one shard; returns ``(summary, chunk)``.

    ``x_ts``/``x_te`` are the shard's X endpoint columns (the context
    hull for self operators) and ``y_ts``/``y_te`` its Y range (``None``
    for self operators).  Raises whatever the shard raises (STRICT
    semantics must propagate the original exception types to the
    caller).
    """
    entry = lookup(task["operator"], task["x_order"], task["y_order"])
    shape, x_base = task["shape"], task["x_base"]
    x_ts = task["x_ts"]
    x_cols = IntervalColumns(
        x_ts, task["x_te"], range(len(x_ts)), entry.x_order, name="X[shard]"
    )
    y_cols = None
    if shape != "self":
        y_ts = task["y_ts"]
        y_cols = IntervalColumns(
            y_ts, task["y_te"], range(len(y_ts)), entry.y_order,
            name="Y[shard]",
        )
    outcome = execute_entry(
        entry,
        x_cols,
        y_cols,
        backend=task["backend"],
        policy=task["policy"],
        workspace_budget=task["workspace_budget"],
    )
    # The shard boundary is where a lazy join output is consumed.
    (x_rows, first), (y_rows, second) = index_sides(outcome.results, shape)
    first = _local_positions(x_rows, first)
    residual_filtered = 0
    if shape == "self":
        # Owner-filter in shard-local coordinates: only positions
        # inside the owned slice of the context window survive.
        lo, hi = task["owned_lo"] - x_base, task["owned_hi"] - x_base
        emitted = len(first)
        first = array("q", (rel for rel in first if lo <= rel < hi))
        residual_filtered = emitted - len(first)
    token = active_token()
    if token is not None:
        # One deadline checkpoint before the result leaves the shard.
        token.check()
    summary = {
        "report": outcome.report,
        "metrics": outcome.metrics,
        "output_count": len(first),
        "residual_filtered": residual_filtered,
    }
    # Positions stay shard-local; the parent adds the bases during its
    # lazy payload materialisation (one addition fewer per output on
    # the shard's critical path).
    chunk = (
        first,
        _local_positions(y_rows, second) if shape == "join" else None,
        x_base,
        task["y_base"],
    )
    return summary, chunk


def _local_positions(
    rows: Optional[Sequence[int]], index: Sequence[int]
) -> array:
    """One side of the decoded output as shard-local positions: the
    kernel's index column as it is unless a rung moved the rows."""
    if rows is not None:
        index = gather(rows, index)
    return array("q", index)
