"""The cell table, and the one processor of its batch forms.

:data:`CELLS` is the one place a cell of Tables 1-3 is written down:
one row per admissible cell with its operator, the sort order each
operand must declare, its state class, and its two physical forms —
the tuple-at-a-time processor of :mod:`repro.streams.processors` (whose
``operator`` string is the cell's label) and the one
:mod:`~repro.columnar.kernels` sweep every batch run calls.  The
120-entry registry of :mod:`repro.streams.registry` — the rows, their
time-reversal mirrors, the order-free Before-semijoin, '-' everywhere
else — is derived from these rows.

:class:`ColumnarProcessor` runs a cell's kernel under either batch
backend label (``columnar`` or ``fused``: one path, two names) as a
drop-in physical alternative to the cell's tuple processor: same
``TupleStream`` operands, same admission checks (the '-' cells stay
rejected), same output values, and the same
:class:`~repro.streams.metrics.ProcessorMetrics` accounting — so every
Table-1/2/3 state-class verification runs unchanged on both.

The difference is purely physical: operands are drained into
:class:`~repro.columnar.relation.IntervalColumns` up front (one pass,
counted against the stream like any read), and the sweep runs as a batch
kernel over the endpoint columns.  The kernels' ``SweepStats`` are then
folded into the processor's :class:`~repro.streams.workspace.
WorkspaceMeter`, preserving high-water marks, insert/discard totals,
the optional Figure-5 trace, and the optional workspace ``limit``; the
comparison counts are the kernel's probe-scan charge.

A lower-half (mirrored) registry entry runs its upper-half cell on
time-reversed *columns* — Section 4.2.1's symmetry, ``[TS, TE)`` to
``[-TE, -TS)`` — after the drain (and, for a verifying stream, the
order check) of the original streams: row positions do not move, so
index columns and payloads are used as they are.
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from operator import neg
from typing import Callable, Iterator, Optional, Sequence, Tuple

from ..columns import gather
from ..errors import ExecutionError
from ..governance.budget import active_token
from ..model import sortorder as so
from ..streams.processors.base import StreamProcessor
from ..streams.processors.before import BeforeSemijoin
from ..streams.processors.contain_join import ContainJoinTsTe, ContainJoinTsTs
from ..streams.processors.contain_semijoin import (
    ContainedSemijoinTeTs,
    ContainedSemijoinTsTs,
    ContainSemijoinTsTe,
    ContainSemijoinTsTs,
)
from ..streams.processors.overlap import OverlapJoin, OverlapSemijoin
from ..streams.processors.self_semijoin import (
    SelfContainedSemijoin,
    SelfContainSemijoin,
    SelfContainSemijoinDesc,
)
from ..streams.registry import TemporalOperator
from ..streams.stream import TupleStream
from . import kernels
from .fused import LazyPairs
from .kernels import SweepStats
from .relation import IntervalColumns


@contextmanager
def cyclic_gc_paused():
    """Hold the cyclic collector off one batch sweep.

    The sweep allocates monotonically (columns, active entries, output
    rows) and creates no reference cycles, but every allocation burst
    makes the cyclic collector re-scan the whole live graph — on large
    joins that costs more than the kernel itself.  Refcounting alone
    reclaims everything.
    """
    pause_gc = gc.isenabled()
    if pause_gc:
        gc.disable()
    try:
        yield
    finally:
        if pause_gc:
            gc.enable()


@dataclass(frozen=True)
class Cell:
    """One admissible cell of Tables 1-3, in all its forms."""

    operator: TemporalOperator
    #: Table 1's legend, ``streams.registry.STATE_CLASS_DESCRIPTIONS``.
    state_class: str
    #: The tuple-at-a-time processor class (backend "tuple"); its
    #: declared ``x_order``/``y_order`` and ``order_free`` are the row's.
    processor: type
    #: The batch sweep of :mod:`repro.columnar.kernels` (every batch
    #: backend label runs it).
    kernel: Callable
    #: Certified high-water bound of the kernel's slot store ("zero",
    #: "one" or "active-intervals"); the symbolic plan checker diffs it
    #: against the Tables 1-3 derivation.
    slot_bound: str = "active-intervals"

    @property
    def x_order(self) -> so.SortOrder:
        """The sort order X must declare; the time-reversed entry wants
        its mirror."""
        return self.processor.x_order

    @property
    def y_order(self) -> Optional[so.SortOrder]:
        """Y's sort order (``None``: the operator is unary)."""
        return self.processor.y_order

    @property
    def order_free(self) -> bool:
        """True for the order-free Before-semijoin."""
        return self.processor.order_free

    @property
    def label(self) -> str:
        """The tuple processor's own name for the cell; the batch
        processors report ``<backend>-<label>``."""
        return self.processor.operator

    @property
    def shape(self) -> str:
        return self.operator.shape


_T = TemporalOperator

#: label -> cell.  The six rows with ``slot_bound`` "zero"/"one" keep
#: no slot store.
CELLS = {
    cell.label: cell
    for cell in (
        # Table 1 — Contain
        Cell(_T.CONTAIN_JOIN, "a", ContainJoinTsTs,
             kernels.contain_join_ts_ts),
        Cell(_T.CONTAIN_JOIN, "b", ContainJoinTsTe,
             kernels.contain_join_ts_te),
        Cell(_T.CONTAIN_SEMIJOIN, "c", ContainSemijoinTsTs,
             kernels.contain_semijoin_ts_ts),
        Cell(_T.CONTAIN_SEMIJOIN, "d", ContainSemijoinTsTe,
             kernels.contain_semijoin_ts_te, "zero"),
        Cell(_T.CONTAINED_SEMIJOIN, "c", ContainedSemijoinTsTs,
             kernels.contained_semijoin_ts_ts),
        Cell(_T.CONTAINED_SEMIJOIN, "d", ContainedSemijoinTeTs,
             kernels.contained_semijoin_te_ts, "zero"),
        # Table 2 — Overlap
        Cell(_T.OVERLAP_JOIN, "a", OverlapJoin, kernels.overlap_join_ts_ts),
        Cell(_T.OVERLAP_SEMIJOIN, "b", OverlapSemijoin,
             kernels.overlap_semijoin_ts_ts, "zero"),
        # Section 4.2.4 — Before.  The semijoin is single-pass whatever
        # the orders; no sort order bounds the join's state, so it has
        # no row.
        Cell(_T.BEFORE_SEMIJOIN, "d", BeforeSemijoin,
             kernels.before_semijoin, "zero"),
        # Table 3 — self semijoins
        Cell(_T.SELF_CONTAINED_SEMIJOIN, "a1", SelfContainedSemijoin,
             kernels.self_contained_semijoin_ts_te, "one"),
        Cell(_T.SELF_CONTAIN_SEMIJOIN, "a1", SelfContainSemijoinDesc,
             kernels.self_contain_semijoin_ts_te_desc, "one"),
        Cell(_T.SELF_CONTAIN_SEMIJOIN, "b1", SelfContainSemijoin,
             kernels.self_contain_semijoin_ts),
    )
}


def _reversed(columns: IntervalColumns) -> Tuple[array, array]:
    """The endpoint columns under time reversal, ``(-TE, -TS)``."""
    try:
        return (
            array("q", map(neg, columns.te)),
            array("q", map(neg, columns.ts)),
        )
    except OverflowError:
        lowest = -(2**63)  # the one int64 whose negation is not one
        row = next(
            i
            for i, ends in enumerate(zip(columns.ts, columns.te))
            if lowest in ends
        )
        raise ExecutionError(
            f"row {row} of {columns.name!r}: endpoint {lowest} has no "
            "time-reversed image in int64"
        ) from None


class ColumnarProcessor(StreamProcessor):
    """One cell on the batch backend: drain operands into columns, run
    the cell's kernel, emit payloads, and mirror the kernel's
    accounting into the meter."""

    def __init__(
        self,
        cell: Cell,
        backend: str,
        x: TupleStream,
        y: Optional[TupleStream] = None,
        mirrored: bool = False,
    ) -> None:
        self.cell = cell
        #: The batch backend label the plan named ("columnar" or
        #: "fused"); audit records and EXPLAIN ANALYZE surface it per
        #: operator/shard.
        self.backend_name = backend
        self.mirrored = mirrored
        self.operator = f"{backend}-{cell.label}"
        self.x_order, self.y_order = cell.x_order, cell.y_order
        self.order_free = cell.order_free
        if mirrored:
            self.operator = f"mirror({self.operator})"
            self.x_order = self.x_order.mirrored()
            self.y_order = self.y_order and self.y_order.mirrored()
        super().__init__(x, y)
        self.metrics.backend = backend
        self.metrics.kernel = cell.kernel.__name__

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def _drain(self, stream: TupleStream) -> IntervalColumns:
        """One batch pass over a stream, charged to its counters exactly
        like cursor reads (reading below the single-buffer cursor,
        straight from the source factory).  A stream born as columns
        hands them over as they are.  A verifying stream's columns are
        checked in one C-level pass; the executor's streams verify
        nothing, their operands having been checked before the cell
        ran (:func:`repro.resilience.executor.verify_orders`)."""
        columns = stream.columns
        if columns is None:
            columns = IntervalColumns.from_tuples(
                stream._source_factory(),
                order=stream.order,
                name=stream.name,
                presorted=True,
            )
        stream.note_batch_pass(len(columns))
        if stream.verify_order:
            columns.verify_order()
        return columns

    def _absorb(self, stats: SweepStats) -> None:
        """Fold kernel accounting into the processor's meter/metrics.
        Kernels count their end-of-sweep residue as discarded, so the
        meter's ``current`` legitimately stays zero."""
        self.metrics.comparisons += stats.comparisons
        self.metrics.eviction_checks += stats.eviction_checks
        meter = self.meter
        meter.total_inserted += stats.inserted
        meter.total_discarded += stats.discarded
        if stats.high_water > meter.high_water:
            meter.high_water = stats.high_water
        token = active_token()
        if token is not None:
            # Kernels bypass the metered insert path, so the governance
            # workspace cap is enforced here from the kernel's own
            # high-water count — batch granularity: the breach surfaces
            # after the sweep, not mid-kernel.
            token.charge_workspace(stats.high_water)

    # ------------------------------------------------------------------
    # operator body
    # ------------------------------------------------------------------
    def _materialise(self) -> Sequence:
        x_cols = self._drain(self.x)
        y_cols = self._drain(self.y) if self.y is not None else None
        token = active_token()
        if token is not None:
            # Last governance checkpoint before the uninterruptible
            # kernel sweep (the drains above checked at their pass
            # boundaries).
            token.check()
        # The one shape dispatch: unary ("self") kernels take X's two
        # endpoint columns, binary ones X's and Y's.  Output positions
        # index the operands as given, mirrored or not.  A kernel reads
        # each endpoint about three times, and an ``array('q')`` boxes
        # an int per read: it gets lists, one C-level pass per column
        # (the arrays stay the validated, kept and shared form).
        columns: list = []
        for operand in (x_cols, y_cols):
            if operand is not None:
                columns += map(
                    list,
                    _reversed(operand)
                    if self.mirrored
                    else (operand.ts, operand.te),
                )
        out, stats = self.cell.kernel(
            *columns, limit=self.meter.limit, trace=self.meter.trace
        )
        self._absorb(stats)
        if self.cell.shape == "join":
            # Payload pairs only materialise when the caller actually
            # touches them (``len()``, metrics, EXPLAIN and the hybrid
            # executor's index-column read do not).
            return LazyPairs(out, x_cols.payload, y_cols.payload)
        return list(gather(x_cols.payload, out))

    def _execute(self) -> Iterator:
        yield from self._materialise()

    def run(self) -> Sequence:
        """Batch fast path: one kernel call, no per-item generator
        frames.  Semantics match ``list(self)`` exactly (single use,
        output counting, metric finalisation)."""
        with self._executing():
            with cyclic_gc_paused():
                out = self._materialise()
            self.metrics.output_count = len(out)
        return out
