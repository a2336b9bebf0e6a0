"""The shard body, and its worker-side shared-memory transport.

:func:`run_shard` is the one way a shard executes, in a pool worker or
in the parent (``mode="inline"``).  It takes the shard's endpoint
columns — any int64 buffers — and runs them in one of two ways:

* **Kernel fast path** — columnar or fused backend, STRICT policy, no
  fault plan, no workspace budget: the cell's sweep kernel runs
  *directly on the endpoint buffers* (wrapped in
  :class:`~repro.columnar.relation.IntervalColumns` endpoint-only
  columns; a mirrored cell on their negations), so the shard costs
  exactly the kernel plus zero object traffic.
* **Resilience ladder** — every other configuration reconstructs the
  shard's tuples from the endpoint buffers (surrogate = global column
  index, no payloads) and runs the unchanged
  :func:`~repro.resilience.executor.execute_entry`, preserving the
  STRICT/QUARANTINE/DEGRADE ladder, fault plans, and retry semantics
  per shard.

Either way the result is a ``(kind, first, second, x_base, y_base)``
chunk of ``array('q')`` index columns; the parent materialises payload
tuples lazily from its own relation lists.  Surrogates of reconstructed
tuples are their global indexes, which the mirrored processors
preserve, so every backend/policy combination encodes without ever
pickling a tuple.

:func:`run_task` is the process transport around that body: a task
names an operand segment plus column offsets; the worker maps the
segment read-only, runs the shard on the views, and writes the chunk
into a parent-assigned result segment.
"""

from __future__ import annotations

import os
import threading
import time
from array import array
from typing import Optional

from ..columnar.backend import cyclic_gc_paused, sweep
from ..columnar.relation import IntervalColumns
from ..governance.budget import QueryBudget, active_token, governed
from ..obs.graft import DEFAULT_MAX_TRACE_BYTES, serialize_tracer
from ..obs.metrics import (
    MetricsRegistry,
    active_registry,
    install_registry,
    uninstall_registry,
)
from ..obs.trace import Tracer, set_tracer, span_creation_count
from ..resilience.recovery import ExecutionReport, RecoveryPolicy
from ..streams.registry import RegistryEntry, lookup
from . import shm

_SHAPE_KINDS = {
    "semi": shm.RESULT_SEMI,
    "join": shm.RESULT_PAIRS,
    "self": shm.RESULT_SELF,
}


def _fault_active(task: dict) -> Optional[dict]:
    """The worker-fault spec for this attempt, or ``None``.

    Faults are gated on the attempt number: a fault with
    ``attempts=1`` fires on the first dispatch only, so the re-dispatch
    deterministically heals — the property the containment differential
    relies on (one crash costs one shard retry, not the batch).
    """
    fault = task.get("worker_fault")
    if fault is None:
        return None
    if task.get("attempt", 0) >= fault.get("attempts", 1):
        return None
    return fault


def run_task(task: dict) -> dict:
    """Execute one shard task; returns the queue-sized summary dict.

    Raises whatever the shard raises (STRICT semantics) — the pool loop
    is responsible for shipping exceptions back to the parent.
    """
    if task.get("fault_exit"):
        # Deterministic crash hook for the segment-lifecycle chaos
        # tests: die before any result segment exists, on *every*
        # attempt (the persistent poison-pill; the healing crash is the
        # worker-fault plan's attempt-gated "kill").
        os._exit(task.get("fault_exit_code", 2))
    fault = _fault_active(task)
    if fault is not None and fault.get("kind") == "kill":
        os._exit(fault.get("exit_code", 3))
    if fault is not None and fault.get("kind") == "stall":
        time.sleep(fault.get("stall_seconds", 2.0))
    spans_before = span_creation_count()
    observe_trace = bool(task.get("observe_trace"))
    observe_metrics = bool(task.get("observe_metrics"))
    worker_tracer = (
        Tracer(f"worker-{os.getpid()}") if observe_trace else None
    )
    worker_registry = MetricsRegistry() if observe_metrics else None
    # Pool workers are reused across queries, so the worker-local
    # tracer/registry MUST be restored in the finally — a leaked tracer
    # would tax (and mis-attribute) every later untraced shard.
    prev_tracer = set_tracer(worker_tracer) if observe_trace else None
    prev_registry = active_registry() if observe_metrics else None
    if observe_metrics:
        install_registry(worker_registry)
    try:
        if worker_tracer is not None:
            with worker_tracer.span(
                f"worker:shard:{task['index']}",
                shard=task["index"],
                attempt=task.get("attempt", 0),
                operator=task.get("operator"),
                backend=task.get("backend"),
            ):
                summary = _run_governed(task)
        else:
            summary = _run_governed(task)
    finally:
        if observe_trace:
            set_tracer(prev_tracer)
        if observe_metrics:
            if prev_registry is not None:
                install_registry(prev_registry)
            else:
                uninstall_registry()
    _attach_observability(
        task, summary, worker_tracer, worker_registry, spans_before
    )
    if fault is not None and fault.get("kind") == "corrupt-result":
        shm.corrupt_result(task["result_segment"])
    return summary


def _run_governed(task: dict) -> dict:
    gov = task.get("governance")
    if gov is not None:
        # The parent ships its remaining deadline and workspace cap so
        # in-worker checkpoints (meter inserts, pass boundaries) fire
        # too; page/shm spend stays parent-accounted.
        with governed(
            QueryBudget(
                deadline_seconds=gov.get("deadline_seconds"),
                workspace_tuple_cap=gov.get("workspace_tuple_cap"),
            )
        ):
            return _run_shard_body(task)
    return _run_shard_body(task)


def _attach_observability(
    task: dict,
    summary: dict,
    tracer: Optional[Tracer],
    registry: Optional[MetricsRegistry],
    spans_before: int,
) -> None:
    """Ship the shard's telemetry in the result summary.

    ``worker_spans_created`` is a per-task *delta* (the module counter
    is process-wide and workers are reused), always reported so the
    parent can enforce the zero-allocation guarantee of untraced runs.
    Trace/metrics payloads are best-effort: a serialisation failure
    drops the telemetry, never the shard result.
    """
    summary["pid"] = os.getpid()
    summary["worker_spans_created"] = span_creation_count() - spans_before
    if tracer is not None:
        try:
            summary["worker_trace"] = serialize_tracer(
                tracer,
                pid=os.getpid(),
                tid=threading.get_native_id(),
                max_bytes=task.get(
                    "trace_max_bytes", DEFAULT_MAX_TRACE_BYTES
                ),
            )
        # Telemetry attach is best-effort by contract: the shard's
        # answer is already computed, and governance errors cannot
        # originate in serialize_tracer/snapshot (no charge points).
        except Exception:  # repro: noqa(REP009)
            summary["worker_trace"] = None
    if registry is not None:
        try:
            summary["worker_metrics"] = registry.snapshot()
        except Exception:  # repro: noqa(REP009)
            summary["worker_metrics"] = None


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
    summary["job"] = task["job"]
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
    if _fast_path_eligible(task, entry):
        return _run_kernel(task, entry, x_ts, x_te, y_ts, y_te)
    return _run_ladder(task, entry, x_ts, x_te, y_ts, y_te)


def _fast_path_eligible(task: dict, entry: RegistryEntry) -> bool:
    return (
        task["backend"] in ("columnar", "fused")
        and task["policy"] is RecoveryPolicy.STRICT
        and task["fault_plan"] is None
        and task["workspace_budget"] is None
        and entry.cell is not None
    )


# ----------------------------------------------------------------------
# kernel fast path
# ----------------------------------------------------------------------
def _run_kernel(task, entry, x_ts, x_te, y_ts, y_te) -> tuple:
    cell, backend = entry.cell, task["backend"]
    shape, x_base = task["shape"], task["x_base"]
    x_cols = IntervalColumns.from_views(
        x_ts, x_te, entry.x_order, name="X[shard]"
    )
    y_cols = None
    if shape != "self":
        empty = array("q")
        y_cols = IntervalColumns.from_views(
            y_ts if y_ts is not None else empty,
            y_te if y_te is not None else empty,
            entry.y_order,
            name="Y[shard]",
        )
    residual_filtered = 0
    second = None
    with cyclic_gc_paused():
        result, stats = sweep(cell, backend, x_cols, y_cols, entry.mirrored)
        if shape == "self":
            # Owner-filter in shard-local coordinates: only positions
            # inside the owned slice of the context window survive.
            lo = task["owned_lo"] - x_base
            hi = task["owned_hi"] - x_base
            first = array("q", (rel for rel in result if lo <= rel < hi))
            residual_filtered = len(result) - len(first)
        elif shape == "semi":
            first = array("q", result)
        elif hasattr(result, "index_columns"):
            # Fused kernels emit lazy JoinRuns; the shard boundary
            # is the consumption point, so expand here.
            first, second = result.index_columns()
        else:
            first = array("q", result[0])
            second = array("q", result[1])
    output_count = len(first)
    token = active_token()
    if token is not None:
        # The kernel bypassed the metered insert path; report its own
        # high-water against the governance workspace cap, and take
        # one deadline checkpoint before the result leaves the shard.
        token.charge_workspace(stats.high_water)
        token.check()
    summary = {
        "report": ExecutionReport(),
        "metrics": _kernel_metrics(
            len(x_cols),
            len(y_cols) if y_cols is not None else 0,
            shape,
            output_count,
            stats,
            backend=backend,
            kernel_name=cell.kernel(backend).__name__,
        ),
        "output_count": output_count,
        "residual_filtered": residual_filtered,
    }
    # Positions stay shard-local; the parent adds the bases during its
    # lazy payload materialisation (one addition fewer per output on
    # the shard's critical path).
    chunk = (_SHAPE_KINDS[shape], first, second, x_base, task["y_base"])
    return summary, chunk


def _kernel_metrics(
    x_read,
    y_read,
    shape,
    output_count,
    stats,
    backend="columnar",
    kernel_name=None,
) -> dict:
    binary = shape != "self"
    return {
        "tuples_read_x": x_read,
        "tuples_read_y": y_read,
        "passes_x": 1,
        "passes_y": 1 if binary else 0,
        "pass_reads_x": [x_read],
        "pass_reads_y": [y_read] if binary else [],
        "buffers": 2,
        "output_count": output_count,
        "comparisons": stats.comparisons,
        "eviction_checks": stats.eviction_checks,
        "backend": backend,
        "kernel": kernel_name,
        "workspace": {
            "high_water": stats.high_water,
            "total_inserted": stats.inserted,
            "total_discarded": stats.discarded,
            "residual": 0,
        },
        "state_high_water": {},
        "resilience": None,
    }


# ----------------------------------------------------------------------
# resilience-ladder path
# ----------------------------------------------------------------------
def _reconstruct(ts, te, base: int) -> list:
    """Payload-free tuples whose surrogate is the global column index —
    the property every processor (mirrored ones included) preserves, so
    outputs encode back to global indexes without identity tricks."""
    return IntervalColumns(ts, te, range(base, base + len(ts)), None).tuples


def _run_ladder(task, entry, x_ts, x_te, y_ts, y_te) -> tuple:
    from ..resilience.executor import execute_entry

    shape = task["shape"]
    x_records = _reconstruct(x_ts, x_te, task["x_base"])
    y_records: Optional[list] = None
    if shape != "self":
        y_records = (
            _reconstruct(y_ts, y_te, task["y_base"])
            if y_ts is not None
            else []
        )
    outcome = execute_entry(
        entry,
        x_records,
        y_records,
        backend=task["backend"],
        policy=task["policy"],
        workspace_budget=task["workspace_budget"],
        fault_plan=task["fault_plan"],
        retry_policy=task["retry_policy"],
        page_capacity=task["page_capacity"],
        sort_memory_pages=task["sort_memory_pages"],
    )
    residual_filtered = 0
    if shape == "self":
        owned_lo, owned_hi = task["owned_lo"], task["owned_hi"]
        first = array("q")
        for emitted in outcome.results:
            if owned_lo <= emitted.surrogate < owned_hi:
                first.append(emitted.surrogate)
            else:
                residual_filtered += 1
        second = None
    elif shape == "join":
        first, second = array("q"), array("q")
        for left, right in outcome.results:
            first.append(left.surrogate)
            second.append(right.surrogate)
    else:
        first = array("q", (t.surrogate for t in outcome.results))
        second = None
    summary = {
        "report": outcome.report,
        "metrics": outcome.metrics.to_dict() if outcome.metrics else {},
        "output_count": len(first),
        "residual_filtered": residual_filtered,
    }
    # Ladder surrogates are already global indexes — bases stay zero.
    return summary, (_SHAPE_KINDS[shape], first, second, 0, 0)
