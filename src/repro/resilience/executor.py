"""The graceful-degradation ladder over registry entries.

:func:`execute_entry` runs one Table-1/2/3 cell on concrete inputs
under a :class:`~repro.resilience.recovery.RecoveryPolicy`, optionally
behind a seeded :class:`~repro.resilience.faults.FaultPlan`:

* ``STRICT`` — any violated assumption raises its original exception
  type (order violations as :class:`~repro.errors.StreamOrderError`,
  budget breaches as :class:`~repro.errors.WorkspaceOverflowError`,
  persistent storage faults as :class:`~repro.errors.StorageFaultError`);
* ``QUARANTINE`` — order/validity-violating tuples are skipped into
  the report's counted side-channel by the streams themselves;
* ``DEGRADE`` — the paper's Section-4.1 trade-off triangle, exercised
  live: an order violation buys a re-sort
  (:func:`~repro.storage.external_sort.external_sort` passes are added
  to the report) and an operator restart; a workspace overflow spills
  both operands to heap files and finishes with a block nested-loop
  whose block size *is* the workspace budget — trading the violated
  memory bound for extra passes, never for a wrong answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..errors import (
    ExecutionError,
    ProcessorStateError,
    StreamOrderError,
    WorkspaceOverflowError,
)
from ..governance.budget import active_token
from ..model.tuples import TemporalTuple
from ..obs.trace import get_tracer
from ..storage.external_sort import external_sort
from ..storage.heap_file import HeapFile
from ..storage.page import DEFAULT_PAGE_CAPACITY
from ..streams.metrics import ProcessorMetrics
from ..streams.processors.baseline import (
    before_predicate,
    contain_predicate,
    contained_predicate,
    overlap_predicate,
)
from ..streams.registry import RegistryEntry, TemporalOperator
from ..streams.stream import TupleStream
from ..streams.workspace import Workspace, WorkspaceMeter
from .faults import FaultPlan, ResilientHeapFile
from .recovery import ExecutionReport, RecoveryPolicy
from .retry import RetryPolicy

Predicate = Callable[[TemporalTuple, TemporalTuple], bool]

#: Fallback oracle for every supported operator: the join predicate
#: (the output shape is the operator's own ``shape``).
_FALLBACKS: dict = {
    TemporalOperator.CONTAIN_JOIN: contain_predicate,
    TemporalOperator.CONTAIN_SEMIJOIN: contain_predicate,
    TemporalOperator.CONTAINED_SEMIJOIN: contained_predicate,
    TemporalOperator.OVERLAP_JOIN: overlap_predicate,
    TemporalOperator.OVERLAP_SEMIJOIN: overlap_predicate,
    TemporalOperator.BEFORE_SEMIJOIN: before_predicate,
    TemporalOperator.SELF_CONTAINED_SEMIJOIN: contained_predicate,
    TemporalOperator.SELF_CONTAIN_SEMIJOIN: contain_predicate,
}

#: Spill block size when the overflow came from a meter limit the
#: caller set directly rather than through ``workspace_budget``.
_DEFAULT_SPILL_BLOCK = 64


@dataclass
class ResilientResult:
    """Output of one resilient execution: the rows, what the resilience
    layer did to produce them, and the operator's own accounting."""

    results: list
    report: ExecutionReport
    metrics: Optional[ProcessorMetrics]
    policy: RecoveryPolicy
    backend: str

    @property
    def degraded(self) -> bool:
        return bool(self.report.fallbacks)


def _meter_of(processor) -> WorkspaceMeter:
    """The operator's joint meter; mirrored processors delegate to the
    inner (upper-half) algorithm's meter."""
    meter = getattr(processor, "meter", None)
    if meter is None:
        meter = processor.inner.meter
    return meter


def _metrics_of(processor) -> ProcessorMetrics:
    return processor.metrics


def _finalise(processor) -> None:
    """Capture stream/workspace counters after an aborted run; mirrored
    processors delegate to the inner algorithm."""
    target = processor
    if not hasattr(target, "_finalise_metrics"):
        target = target.inner
    target._finalise_metrics()


def _exhaust(stream: Optional[TupleStream]) -> None:
    """Finish the stream's scan so tail tuples get order/validity
    checked too.

    One-pass operators may stop reading early (e.g. once the other
    operand is exhausted), which would let violations in the unread
    tail go unnoticed — under QUARANTINE they must still be counted,
    and under DEGRADE an undetected violation means silently dropped
    rows.  This completes the *same* scan; it is not an extra pass.
    """
    if stream is None:
        return
    for _ in stream.drain():
        pass


def execute_entry(
    entry: RegistryEntry,
    x_tuples: Sequence[TemporalTuple],
    y_tuples: Optional[Sequence[TemporalTuple]] = None,
    backend: str = "tuple",
    policy: RecoveryPolicy = RecoveryPolicy.STRICT,
    workspace_budget: Optional[int] = None,
    report: Optional[ExecutionReport] = None,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    page_capacity: int = DEFAULT_PAGE_CAPACITY,
    sort_memory_pages: int = 8,
) -> ResilientResult:
    """Run one registry cell with the chosen recovery policy.

    Inputs are taken as materialised tuple sequences (already in — or
    claimed to be in — the entry's declared orders).  With a
    ``fault_plan`` the operands are staged on heap files wrapped in
    :class:`~repro.resilience.faults.ResilientHeapFile`, so every page
    read runs through fault injection and retry-with-backoff.
    """
    report = report if report is not None else ExecutionReport()
    x_records: List[TemporalTuple] = list(x_tuples)
    unary = entry.y_order is None
    if unary:
        y_records: Optional[List[TemporalTuple]] = None
    else:
        if y_tuples is None:
            raise ExecutionError(
                f"{entry.operator.value} is a binary operator; "
                "y_tuples is required"
            )
        y_records = list(y_tuples)

    def make_stream(records, order, name):
        if fault_plan is not None:
            # The staged file's name feeds the fault plan's draw key;
            # qualifying it with the cell keeps fault schedules of
            # different operators/backends decorrelated under one seed.
            staged = HeapFile(
                f"{entry.operator.value}[{backend}].{name}",
                page_capacity=page_capacity,
            )
            staged.extend(records)
            staged.stats.reset()  # staging traffic is not query cost
            source: object = ResilientHeapFile(
                staged, fault_plan, retry=retry_policy, report=report
            )
            return TupleStream.from_heap_file(
                source,
                order=order,
                name=name,
                recovery=policy,
                report=report,
            )
        return TupleStream.from_tuples(
            records,
            order=order,
            name=name,
            recovery=policy,
            report=report,
        )

    resorted: set = set()
    tracer = get_tracer()
    # At most one re-sort per operand, then one spill: four attempts
    # cover every legal degradation path; a fifth means a logic error.
    for _attempt in range(4):
        x_stream = make_stream(x_records, entry.x_order, "X")
        y_stream = (
            None
            if unary
            else make_stream(y_records, entry.y_order, "Y")
        )
        processor = entry.build(x_stream, y_stream, backend=backend)
        if workspace_budget is not None:
            _meter_of(processor).limit = workspace_budget
        token = active_token()
        if token is not None:
            # Governance rides the metered insert path.  Its errors are
            # terminal on every rung: the except clauses below catch
            # only the two recoverable stream errors, so a deadline,
            # cancellation, or budget breach propagates out of the
            # ladder with its original type — never re-sorted, spilled,
            # or retried.
            _meter_of(processor).token = token
        try:
            with tracer.span(
                "attempt",
                number=_attempt + 1,
                operator=entry.operator.value,
                backend=backend,
                policy=policy.value,
            ):
                results = processor.run()
                if policy is not RecoveryPolicy.STRICT:
                    _exhaust(x_stream)
                    _exhaust(y_stream)
            metrics = _metrics_of(processor)
            metrics.resilience = report.as_dict()
            return ResilientResult(
                results, report, metrics, policy, backend
            )
        except StreamOrderError as error:
            if not getattr(error, "reported", False):
                report.note_order_violation()
            if policy is not RecoveryPolicy.DEGRADE:
                raise
            side = getattr(error, "stream_name", None)
            if tracer.enabled:
                tracer.event(
                    "recovery.re-sort",
                    operator=entry.operator.value,
                    side=side or "both",
                )
            if side is None or "X" in side:
                if "X" in resorted:
                    raise  # re-sorted input violated again: not ours
                resorted.add("X")
                x_records = _resort(
                    x_records,
                    entry.x_order,
                    "X",
                    report,
                    page_capacity,
                    sort_memory_pages,
                )
            if not unary and (side is None or "Y" in side):
                if "Y" in resorted and side is not None:
                    raise
                if "Y" not in resorted:
                    resorted.add("Y")
                    y_records = _resort(
                        y_records,
                        entry.y_order,
                        "Y",
                        report,
                        page_capacity,
                        sort_memory_pages,
                    )
            continue
        except WorkspaceOverflowError:
            report.note_workspace_overflow()
            if policy is not RecoveryPolicy.DEGRADE:
                raise
            if tracer.enabled:
                tracer.event(
                    "recovery.spill",
                    operator=entry.operator.value,
                    budget=workspace_budget,
                )
            results = _finish_by_spill(
                entry,
                x_records,
                y_records,
                workspace_budget,
                report,
                page_capacity,
            )
            _finalise(processor)
            metrics = _metrics_of(processor)
            metrics.resilience = report.as_dict()
            return ResilientResult(
                results, report, metrics, policy, backend
            )
    raise ExecutionError(
        f"{entry.operator.value} kept violating assumptions after "
        "re-sorting both operands — degradation cannot converge"
    )


def _resort(
    records: Sequence[TemporalTuple],
    order,
    label: str,
    report: ExecutionReport,
    page_capacity: int,
    sort_memory_pages: int,
) -> List[TemporalTuple]:
    """DEGRADE's answer to an order violation: buy the declared order
    with an external sort, charging its passes to the report."""
    staged = HeapFile(f"degrade.{label}", page_capacity=page_capacity)
    staged.extend(records)
    outcome = external_sort(
        staged, order, memory_pages=sort_memory_pages
    )
    report.note_fallback(
        "re-sort",
        f"re-sorted {label} ({len(records)} tuples) by [{order}] in "
        f"{outcome.runs_generated} runs / {outcome.merge_passes} merge "
        "passes",
        outcome.total_passes,
    )
    return outcome.output.records()


def _finish_by_spill(
    entry: RegistryEntry,
    x_records: List[TemporalTuple],
    y_records: Optional[List[TemporalTuple]],
    workspace_budget: Optional[int],
    report: ExecutionReport,
    page_capacity: int,
) -> list:
    """DEGRADE's answer to a workspace overflow: spill the operands to
    heap files and finish with a block nested-loop whose resident block
    never exceeds the budget — the memory bound holds, the price is
    extra passes over the spilled inner.
    """
    try:
        predicate = _FALLBACKS[entry.operator]
    except KeyError:  # pragma: no cover - registry and map kept in sync
        raise ExecutionError(
            f"no spill fallback registered for {entry.operator.value}"
        ) from None
    shape = entry.operator.shape
    block = max(1, workspace_budget or _DEFAULT_SPILL_BLOCK)

    x_spill = HeapFile(
        f"spill.{entry.operator.value}.X", page_capacity=page_capacity
    )
    x_spill.extend(x_records)
    inner_records = x_records if shape == "self" else y_records
    if inner_records is None:
        raise ProcessorStateError(
            f"{entry.operator.value} spill fallback needs inner records"
        )
    inner_spill = (
        x_spill
        if shape == "self"
        else HeapFile(
            f"spill.{entry.operator.value}.Y",
            page_capacity=page_capacity,
        )
    )
    if inner_spill is not x_spill:
        inner_spill.extend(inner_records)

    meter = WorkspaceMeter(limit=workspace_budget)
    meter.token = active_token()
    block_space: Workspace = Workspace("spill-block", meter=meter)
    blocks = max(1, math.ceil(len(x_records) / block)) if x_records else 1
    out: list = []
    for start in range(0, max(len(x_records), 1), block):
        chunk = list(
            enumerate(x_records[start : start + block], start=start)
        )
        for _, tup in chunk:
            block_space.insert(tup)
        out.extend(
            _match_block(chunk, inner_spill, predicate, shape)
        )
        block_space.clear()

    # One pass to write the spill files, plus one extra inner pass per
    # block beyond the single planned one — always >= 1, so a report
    # with a spill fallback necessarily shows added passes.
    passes_added = 1 + (blocks - 1)
    report.note_fallback(
        "spill",
        f"spilled {len(x_records)} X tuples; block nested-loop in "
        f"{blocks} blocks of <= {block} (peak resident "
        f"{meter.high_water})",
        passes_added,
    )
    return out


def _match_block(
    chunk: List[Tuple[int, TemporalTuple]],
    inner_spill: HeapFile,
    predicate: Predicate,
    shape: str,
) -> Iterator:
    """One inner scan for one resident block, emitting in X order."""
    if shape == "join":
        matches: List[list] = [[] for _ in chunk]
        for inner in inner_spill.scan():
            for slot, (_, outer) in enumerate(chunk):
                if predicate(outer, inner):
                    matches[slot].append(inner)
        for slot, (_, outer) in enumerate(chunk):
            for inner in matches[slot]:
                yield (outer, inner)
        return
    matched = [False] * len(chunk)
    for position, inner in enumerate(inner_spill.scan()):
        for slot, (index, outer) in enumerate(chunk):
            if matched[slot]:
                continue
            if shape == "self" and position == index:
                continue  # a tuple never pairs with itself
            if predicate(outer, inner):
                matched[slot] = True
    for slot, (_, outer) in enumerate(chunk):
        if matched[slot]:
            yield outer
