"""The shard body, and its worker-side shared-memory transport.

:func:`run_shard` is the one way a shard executes, in a pool worker or
in the parent (``mode="inline"``), whatever the backend and recovery
policy.  It wraps the shard's endpoint columns — any int64 buffers — as
:class:`~repro.columnar.relation.IntervalColumns` whose payload is the
shard-local row position and runs them through
:func:`~repro.resilience.executor.execute_entry`, the body every serial
plan runs too: a batch backend sweeps the buffers as they are (a
mirrored cell their negations), so a clean shard costs the kernel plus
zero object traffic, and a workspace overflow raises or spills per
shard (sort orders were checked on the whole operands before the cut,
so a shard's own check finds nothing); only the spill, tuple-at-a-time
by nature, builds the shard's tuples (surrogate = position, no
payloads).

The result is a ``(kind, first, second, x_base, y_base)`` chunk of
``array('q')`` shard-local index columns; the parent adds the bases and
materialises payload tuples lazily from its own relation lists, so no
backend/policy combination ever pickles a tuple.

:func:`run_task` is the process transport around that body: a task
names an operand segment plus column offsets; the worker maps the
segment read-only, runs the shard on the views, and writes the chunk
into a parent-assigned result segment.
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
from ..streams.registry import RegistryEntry, lookup
from . import shm

_SHAPE_KINDS = {
    "semi": shm.RESULT_SEMI,
    "join": shm.RESULT_PAIRS,
    "self": shm.RESULT_SELF,
}


def run_task(task: dict) -> dict:
    """Execute one shard task; returns the queue-sized summary dict.

    Raises whatever the shard raises (STRICT semantics) — the process
    pool ships the exception back to the parent.
    """
    if task.get("attempt", 0) < task.get("fault_exit", 0):
        # Test hook for a worker death: die before any result segment
        # exists, on every attempt below ``fault_exit``.  ``1`` heals on
        # the re-run; a value above the pool's retry cap is a
        # poison pill.
        os._exit(2)
    spans_before = span_creation_count()
    gov = task.get("governance")
    if gov is None:
        summary = _run_shard_body(task)
    else:
        # The parent ships its remaining deadline and workspace cap so
        # in-worker checkpoints (meter inserts, pass boundaries) fire
        # too; page/shm spend stays parent-accounted.
        with governed(
            QueryBudget(
                deadline_seconds=gov.get("deadline_seconds"),
                workspace_tuple_cap=gov.get("workspace_tuple_cap"),
            )
        ):
            summary = _run_shard_body(task)
    summary["pid"] = os.getpid()
    # A per-task delta (the counter is process-wide and workers are
    # reused): a worker never traces, so the parent can check it is 0.
    summary["worker_spans_created"] = span_creation_count() - spans_before
    return summary


def _run_shard_body(task: dict) -> dict:
    started = time.perf_counter()
    entry = lookup(task["operator"], task["x_order"], task["y_order"])
    offsets = task["offsets"]
    x_lo, y_lo = task["x_base"], task["y_base"]
    with shm.MappedColumns(task["segment"]) as mapped:
        x_ts = mapped.view(offsets[0] + x_lo, task["x_len"])
        x_te = mapped.view(offsets[1] + x_lo, task["x_len"])
        y_ts = y_te = None
        if task["y_len"]:
            y_ts = mapped.view(offsets[2] + y_lo, task["y_len"])
            y_te = mapped.view(offsets[3] + y_lo, task["y_len"])
        summary, chunk = run_shard(task, entry, x_ts, x_te, y_ts, y_te)
        shm.write_result(task["result_segment"], *chunk)
    summary["wall_seconds"] = time.perf_counter() - started
    summary["index"] = task["index"]
    summary["attempt"] = task.get("attempt", 0)
    summary["result_segment"] = task["result_segment"]
    return summary


def run_shard(
    task: dict, entry: RegistryEntry, x_ts, x_te, y_ts, y_te
) -> tuple:
    """Sweep one shard; returns ``(summary, chunk)``.

    ``x_ts``/``x_te`` are the shard's X endpoint columns (the context
    hull for self operators) and ``y_ts``/``y_te`` its Y range, or
    ``None`` when that range is empty.  Raises whatever the shard
    raises (STRICT semantics must propagate the original exception
    types to the caller).
    """
    shape, x_base = task["shape"], task["x_base"]
    x_cols = IntervalColumns(
        x_ts, x_te, range(len(x_ts)), entry.x_order, name="X[shard]"
    )
    y_cols = None
    if shape != "self":
        if y_ts is None:
            y_ts = y_te = array("q")
        y_cols = IntervalColumns(
            y_ts, y_te, range(len(y_ts)), entry.y_order, name="Y[shard]"
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
        _SHAPE_KINDS[shape],
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
