"""The one body that runs a registry cell, and its degradation ladder.

:func:`execute_entry` runs one Table-1/2/3 cell on concrete inputs
under a :class:`~repro.resilience.recovery.RecoveryPolicy`.  The
planner's serial plans and every parallel shard go through it, so the
two assumptions the paper's single-pass algorithms rest on — the
operand is in its declared order, the state fits the workspace — are
enforced in one place each.  :func:`verify_orders` checks every
operand's order once, before the cell runs (the parallel executor
calls it too, before it cuts the operands into shards); the cell then
runs once, and an overflow is answered where it happens:

* ``STRICT`` — any violated assumption raises its original exception
  type (order violations as :class:`~repro.errors.StreamOrderError`,
  naming the side, budget breaches as
  :class:`~repro.errors.WorkspaceOverflowError`);
* ``DEGRADE`` — the paper's Section-4.1 trade-off triangle, exercised
  live: an out-of-order operand is re-sorted before the cell runs
  (:func:`~repro.storage.external_sort.external_sort` passes are added
  to the report); a workspace overflow spills both operands to heap
  files and finishes with a block nested-loop whose block size *is*
  the workspace budget — trading the violated memory bound for extra
  passes, never for a wrong answer.

Operands are taken as they already exist — endpoint columns, a
relation, or a tuple sequence (:func:`stream_over`).  Columns check
their order in one C-level pass and a batch backend reads them as they
are, so a clean run builds no :class:`~repro.model.tuples.TemporalTuple`;
the rungs that are tuple-at-a-time by nature (the external re-sort, the
spill) make a column operand build its tuples, once, when they are
reached.  A corrupt page on a re-sort or spill file raises
:class:`~repro.errors.PageCorruptionError` under every policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from ..columnar.relation import IntervalColumns
from ..errors import (
    ExecutionError,
    ProcessorStateError,
    StreamOrderError,
    WorkspaceOverflowError,
)
from ..governance.budget import active_token
from ..model.relation import TemporalRelation
from ..model.sortorder import SortOrder
from ..model.tuples import TemporalTuple
from ..obs.trace import get_tracer
from ..storage.external_sort import external_sort
from ..storage.heap_file import HeapFile
from ..streams.metrics import ProcessorMetrics
from ..streams.processors.baseline import PREDICATES
from ..streams.registry import RegistryEntry
from ..streams.stream import TupleStream
from ..streams.workspace import Workspace, WorkspaceMeter
from .recovery import ExecutionReport, RecoveryPolicy

Predicate = Callable[[TemporalTuple, TemporalTuple], bool]

#: What a cell runs on: columns and relations declare their own sort
#: order; a bare tuple sequence is claimed to be in the entry's.
Operand = Union[IntervalColumns, TemporalRelation, Sequence[TemporalTuple]]

#: Memory pages DEGRADE's external re-sort merges with.
_SORT_MEMORY_PAGES = 8


@dataclass
class ResilientResult:
    """Output of one resilient execution: the rows, what the resilience
    layer did to produce them, and the operator's own accounting."""

    results: Sequence
    report: ExecutionReport
    metrics: Optional[ProcessorMetrics]
    policy: RecoveryPolicy
    backend: str

    @property
    def degraded(self) -> bool:
        return bool(self.report.fallbacks)


def stream_over(
    operand: Operand,
    name: str,
    order: Optional[SortOrder] = None,
    **options,
) -> TupleStream:
    """A stream over one operand as it already exists.  ``order`` is
    what a bare tuple sequence is claimed to be sorted by; ``options``
    are the stream constructors' shared ``verify_order``."""
    if isinstance(operand, IntervalColumns):
        return TupleStream.from_columns(operand, name, **options)
    if isinstance(operand, TemporalRelation):
        return TupleStream.from_relation(operand, name=name, **options)
    return TupleStream.from_tuples(operand, order=order, name=name, **options)


def _tuples_of(operand: Operand) -> Sequence[TemporalTuple]:
    """The operand as tuples, for a rung that is tuple-at-a-time by
    nature; columns build theirs on first use and keep them."""
    return getattr(operand, "tuples", operand)


_surrogate_of = attrgetter("surrogate")


def _positions(payload: Sequence) -> Sequence[int]:
    """The operand row positions a payload column, or a list of emitted
    payload entries, stands for: positions stay as they are; tuples
    (what an operand carries once a cursor, the re-sort or the spill
    has read it) stand for their surrogate."""
    if payload and isinstance(payload[0], TemporalTuple):
        return list(map(_surrogate_of, payload))
    return payload


def index_sides(results, shape: str):
    """A cell's output as the ``(order, index column)`` sides of an
    index-pair relation: output ``k``, in emission order, is row
    ``order[index[k]]`` — or ``index[k]`` where ``order`` is ``None`` —
    paired, for a join, with the Y side's.  For operands whose payload
    entries — tuple surrogates, once tuples were built — are row
    positions.

    The batch backends' lazy outputs (``LazyPairs``, and ``LazyResults``
    of a sharded plan) carry positions into the operands *as the kernel
    read them*, so a side's order is that operand's payload and the
    kernel's index columns are used as they are.  Anything else is a
    sequence of payload entries, or pairs of them, that are the row
    positions themselves.
    """
    if hasattr(results, "index_columns"):
        x_index, y_index = results.index_columns()
        return (
            (_order_of(results.x_payload), x_index),
            (_order_of(results.y_payload), y_index),
        )
    if shape != "join":
        return (None, _positions(results)), (None, ())
    xs, ys = zip(*results) if results else ((), ())
    return (None, _positions(xs)), (None, _positions(ys))


def _order_of(payload: Optional[Sequence]) -> Optional[Sequence[int]]:
    """The row positions a kernel operand's payload stands for, in its
    order; ``None`` when nothing moved the rows (a ``range``).  A
    relation's kept permutation is handed on, not copied per query."""
    if payload is None or isinstance(payload, range):
        return None
    return _positions(payload)


def verify_orders(
    entry: RegistryEntry,
    x_operand: Operand,
    y_operand: Optional[Operand],
    policy: RecoveryPolicy,
    report: ExecutionReport,
) -> Tuple[Operand, Optional[Operand]]:
    """The one order check of both executors: each operand against the
    order the entry declares for it, once, before anything runs.
    Returns the operands to run on.

    A violation is noted on ``report``.  STRICT raises it as a
    :class:`~repro.errors.StreamOrderError` naming the side (``"X"`` or
    ``"Y"``); DEGRADE re-sorts that operand once with
    :func:`~repro.storage.external_sort.external_sort` and runs on the
    result.  An order-free cell reads its operands in any order, so
    nothing is checked.  The check reads no stream, so it adds no pass.
    """
    if entry.order_free:
        return x_operand, y_operand
    x_operand = _in_order(x_operand, entry.x_order, "X", policy, report)
    if y_operand is not None:
        y_operand = _in_order(y_operand, entry.y_order, "Y", policy, report)
    return x_operand, y_operand


def _in_order(
    operand: Operand,
    order: SortOrder,
    side: str,
    policy: RecoveryPolicy,
    report: ExecutionReport,
) -> Operand:
    """One operand in its declared order: as it is, or (DEGRADE)
    re-sorted; a re-sorted operand that still fails raises."""
    violation = _order_violation(operand, order)
    if violation is None:
        return operand
    report.note_order_violation()
    if policy is RecoveryPolicy.DEGRADE:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("recovery.re-sort", side=side)
        operand = _resort(_tuples_of(operand), order, side, report)
        violation = _order_violation(operand, order)
        if violation is None:
            return operand
    raise StreamOrderError(f"operand {side}: {violation}", stream_name=side)


def _order_violation(operand: Operand, order: SortOrder) -> Optional[str]:
    """What breaks the operand's declared order, or ``None``.  Columns
    check their own declaration in one C-level pass, memoised on their
    relation's kept view; a relation, or a bare tuple sequence claimed
    to be in ``order``, gets one tuple-level pass."""
    if isinstance(operand, IntervalColumns):
        try:
            operand.verify_order()
        except StreamOrderError as error:
            return str(error)
        return None
    if isinstance(operand, TemporalRelation):
        operand, order = operand.tuples, operand.order
        if order is None:
            return None
    for previous, current in zip(operand, islice(operand, 1, None)):
        if not order.check(previous, current):
            return (
                f"declared order [{order}] but holds {previous} "
                f"before {current}"
            )
    return None


def execute_entry(
    entry: RegistryEntry,
    x_tuples: Operand,
    y_tuples: Optional[Operand] = None,
    backend: str = "columnar",
    policy: RecoveryPolicy = RecoveryPolicy.STRICT,
    workspace_budget: Optional[int] = None,
    report: Optional[ExecutionReport] = None,
) -> ResilientResult:
    """Run one registry cell with the chosen recovery policy.

    Operands are claimed to be in the entry's declared orders;
    :func:`verify_orders` holds them to it before the cell runs, so the
    cell runs once, on streams that verify nothing.
    """
    report = report if report is not None else ExecutionReport()
    unary = entry.y_order is None
    if not unary and y_tuples is None:
        raise ExecutionError(
            f"{entry.operator.value} is a binary operator; "
            "y_tuples is required"
        )
    x_operand, y_operand = verify_orders(
        entry, x_tuples, None if unary else y_tuples, policy, report
    )
    x_stream = stream_over(x_operand, "X", entry.x_order, verify_order=False)
    y_stream = (
        None
        if unary
        else stream_over(y_operand, "Y", entry.y_order, verify_order=False)
    )
    processor = entry.build(x_stream, y_stream, backend=backend)
    processor.meter.limit = workspace_budget
    # Governance rides the metered insert path.  Its errors are
    # terminal: the except clause below catches only a workspace
    # overflow, so a deadline, cancellation, or budget breach propagates
    # with its original type — never spilled.
    processor.meter.token = active_token()
    tracer = get_tracer()
    try:
        with tracer.span(
            "attempt",
            number=1,
            operator=entry.operator.value,
            backend=backend,
            policy=policy.value,
        ):
            results = processor.run()
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
            _tuples_of(x_operand),
            None if unary else _tuples_of(y_operand),
            workspace_budget,
            report,
        )
        processor._finalise_metrics()
    metrics = processor.metrics
    metrics.resilience = report.as_dict()
    return ResilientResult(results, report, metrics, policy, backend)


def _resort(
    records: Sequence[TemporalTuple],
    order,
    label: str,
    report: ExecutionReport,
) -> List[TemporalTuple]:
    """DEGRADE's answer to an order violation: buy the declared order
    with an external sort, charging its passes to the report."""
    staged = HeapFile(f"degrade.{label}")
    staged.extend(records)
    outcome = external_sort(
        staged, order, memory_pages=_SORT_MEMORY_PAGES
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
    x_records: Sequence[TemporalTuple],
    y_records: Optional[Sequence[TemporalTuple]],
    workspace_budget: int,
    report: ExecutionReport,
) -> list:
    """DEGRADE's answer to a workspace overflow: spill the operands to
    heap files and finish with a block nested-loop whose resident block
    never exceeds the budget — the memory bound holds, the price is
    extra passes over the spilled inner.
    """
    predicate = PREDICATES[entry.operator]
    shape = entry.operator.shape
    # The block is the budget; at a budget of 0 its first insert
    # overflows the meter, typed, before any fallback is recorded.
    block = max(1, workspace_budget)

    x_spill = HeapFile(f"spill.{entry.operator.value}.X")
    x_spill.extend(x_records)
    inner_records = x_records if shape == "self" else y_records
    if inner_records is None:
        raise ProcessorStateError(
            f"{entry.operator.value} spill fallback needs inner records"
        )
    inner_spill = (
        x_spill
        if shape == "self"
        else HeapFile(f"spill.{entry.operator.value}.Y")
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
