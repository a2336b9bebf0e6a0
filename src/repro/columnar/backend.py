"""Columnar batch-sweep stream processors.

Each class here is a drop-in physical alternative to one tuple-at-a-time
processor in :mod:`repro.streams.processors`: same constructor signature
(``TupleStream`` operands), same admission checks (the '-' cells of
Tables 1-3 stay rejected), same output values (payload tuples / pairs),
and the same :class:`~repro.streams.metrics.ProcessorMetrics` accounting
— so every Table-1/2/3 state-class verification runs unchanged against
this backend.

The difference is purely physical: operands are drained into
:class:`~repro.columnar.relation.IntervalColumns` up front (one pass,
counted against the stream like any read), and the sweep runs as a batch
kernel over the endpoint columns.  The kernels' ``SweepStats`` are then
folded into the processor's :class:`~repro.streams.workspace.
WorkspaceMeter`, preserving high-water marks, insert/discard totals,
the optional Figure-5 trace, and the optional workspace ``limit``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import ExecutionError, StreamOrderError
from ..governance.budget import active_token
from ..model import sortorder as so
from ..model.tuples import TemporalTuple
from ..obs.trace import get_tracer
from ..resilience.recovery import RecoveryPolicy
from ..streams.processors.base import StreamProcessor
from ..streams.stream import TupleStream
from . import fused, kernels
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


class ColumnarProcessor(StreamProcessor):
    """Shared plumbing: drain operands into columns, run one kernel,
    emit payloads, and mirror the kernel's accounting into the meter."""

    #: Sort orders each operand may declare, as in the tuple processors
    #: (``None`` y_orders means the operator is unary).
    x_orders: Sequence[so.SortOrder] = (so.TS_ASC,)
    y_orders: Optional[Sequence[so.SortOrder]] = (so.TS_ASC,)
    #: True for the order-free Before-semijoin.
    order_free: bool = False
    #: Which physical backend this processor family implements; audit
    #: records and EXPLAIN ANALYZE surface it per operator/shard.
    backend_name: str = "columnar"

    def __init__(self, x: TupleStream, y: Optional[TupleStream] = None) -> None:
        super().__init__(x, y)
        if not self.order_free:
            self._require_order(x, tuple(self.x_orders), "X")
            if self.y_orders is not None:
                if y is None:
                    raise TypeError(f"{self.operator} is a binary operator")
                self._require_order(y, tuple(self.y_orders), "Y")
        self.metrics.backend = self.backend_name
        kernel = getattr(type(self), "kernel", None)
        self.metrics.kernel = getattr(kernel, "__name__", None)

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def _drain(self, stream: TupleStream) -> IntervalColumns:
        """One batch pass over a stream, charged to its counters exactly
        like cursor reads (cf. ``mirror_stream``: reading below the
        single-buffer cursor, straight from the source factory).  A
        stream born as columns hands them over as they are.

        Under QUARANTINE the batch shortcut would bypass the cursor's
        side-channel, so the drain goes through the cursor instead and
        the resulting rows are clean by construction."""
        if stream.recovery is RecoveryPolicy.QUARANTINE:
            rows = list(stream.drain())
            return IntervalColumns.from_tuples(
                rows, order=stream.order, name=stream.name, presorted=True
            )
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
            try:
                columns.verify_order()
            except StreamOrderError as error:
                # Tag the offending operand so the resilient executor
                # can re-sort just that side, as the cursor path does.
                error.stream_name = stream.name
                if stream.report is not None:
                    stream.report.note_order_violation()
                    error.reported = True
                raise
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
    def _kernel(
        self, x: IntervalColumns, y: Optional[IntervalColumns]
    ) -> Tuple[Sequence, SweepStats]:
        raise NotImplementedError

    def _materialise(self) -> Sequence:
        x_cols = self._drain(self.x)
        y_cols = self._drain(self.y) if self.y is not None else None
        token = active_token()
        if token is not None:
            # Last governance checkpoint before the uninterruptible
            # kernel sweep (the drains above checked at their pass
            # boundaries).
            token.check()
        out, stats = self._kernel(x_cols, y_cols)
        self._absorb(stats)
        return out

    def _execute(self) -> Iterator:
        yield from self._materialise()

    def run(self) -> Sequence:
        """Batch fast path: one kernel call, no per-item generator
        frames.  Semantics match ``list(self)`` exactly (single use,
        output counting, metric finalisation)."""
        if self._consumed:
            raise ExecutionError(
                f"{self.operator} has already been executed; stream "
                "processors are single-use"
            )
        self._consumed = True
        tracer = get_tracer()
        with tracer.span(
            f"operator:{self.operator}", backend=self.backend_name
        ) as span:
            with cyclic_gc_paused():
                out = self._materialise()
            self.metrics.output_count = len(out)
            self._finalise_metrics()
            if tracer.enabled:
                span.set(**self.metrics.to_dict())
        return out


class _SemijoinKernelMixin:
    """Binary semijoins: kernel emits X positions, output is X payloads."""

    kernel = None  # staticmethod set by subclasses

    def _kernel(self, x, y):
        idx, stats = type(self).kernel(
            x.ts, x.te, y.ts, y.te,
            limit=self.meter.limit, trace=self.meter.trace,
        )
        payload = x.payload
        return [payload[i] for i in idx], stats


class _JoinKernelMixin:
    """Binary joins, columnar and fused alike: whatever the kernel
    emits — eager ``(xi, yj)`` index columns or fused
    :class:`~repro.columnar.fused.JoinRuns` — is wrapped in
    :class:`~repro.columnar.fused.LazyPairs`, so payload pairs only
    materialise when the caller actually touches them (``len()``,
    metrics, EXPLAIN and the hybrid executor's index-column read do
    not)."""

    kernel = None

    def _kernel(self, x, y):
        out, stats = type(self).kernel(
            x.ts, x.te, y.ts, y.te,
            limit=self.meter.limit, trace=self.meter.trace,
        )
        return LazyPairs(out, x.payload, y.payload), stats


class _SelfKernelMixin:
    """Unary self semijoins: kernel sees only the X columns."""

    kernel = None

    def _kernel(self, x, y):
        idx, stats = type(self).kernel(
            x.ts, x.te, limit=self.meter.limit, trace=self.meter.trace
        )
        payload = x.payload
        return [payload[i] for i in idx], stats


# ----------------------------------------------------------------------
# Table 1 — Contain
# ----------------------------------------------------------------------
class ColumnarContainJoinTsTs(_JoinKernelMixin, ColumnarProcessor):
    operator = "columnar-contain-join[TS^,TS^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TS_ASC,)
    kernel = staticmethod(kernels.contain_join_ts_ts)


class ColumnarContainJoinTsTe(_JoinKernelMixin, ColumnarProcessor):
    operator = "columnar-contain-join[TS^,TE^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TE_ASC,)
    kernel = staticmethod(kernels.contain_join_ts_te)


class ColumnarContainSemijoinTsTs(_SemijoinKernelMixin, ColumnarProcessor):
    operator = "columnar-contain-semijoin[TS^,TS^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TS_ASC,)
    kernel = staticmethod(kernels.contain_semijoin_ts_ts)


class ColumnarContainSemijoinTsTe(_SemijoinKernelMixin, ColumnarProcessor):
    operator = "columnar-contain-semijoin[TS^,TE^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TE_ASC,)
    kernel = staticmethod(kernels.contain_semijoin_ts_te)


class ColumnarContainedSemijoinTsTs(_SemijoinKernelMixin, ColumnarProcessor):
    operator = "columnar-contained-semijoin[TS^,TS^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TS_ASC,)
    kernel = staticmethod(kernels.contained_semijoin_ts_ts)


class ColumnarContainedSemijoinTeTs(_SemijoinKernelMixin, ColumnarProcessor):
    operator = "columnar-contained-semijoin[TE^,TS^]"
    x_orders = (so.TE_ASC,)
    y_orders = (so.TS_ASC,)
    kernel = staticmethod(kernels.contained_semijoin_te_ts)


# ----------------------------------------------------------------------
# Table 2 — Overlap
# ----------------------------------------------------------------------
class ColumnarOverlapJoin(_JoinKernelMixin, ColumnarProcessor):
    operator = "columnar-overlap-join[TS^,TS^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TS_ASC,)
    kernel = staticmethod(kernels.overlap_join_ts_ts)


class ColumnarOverlapSemijoin(_SemijoinKernelMixin, ColumnarProcessor):
    operator = "columnar-overlap-semijoin[TS^,TS^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TS_ASC,)
    kernel = staticmethod(kernels.overlap_semijoin_ts_ts)


# ----------------------------------------------------------------------
# Section 4.2.4 — Before
# ----------------------------------------------------------------------
class ColumnarBeforeSemijoin(_SemijoinKernelMixin, ColumnarProcessor):
    operator = "columnar-before-semijoin"
    order_free = True
    kernel = staticmethod(kernels.before_semijoin)


# ----------------------------------------------------------------------
# Table 3 — self semijoins
# ----------------------------------------------------------------------
class ColumnarSelfContainedSemijoin(_SelfKernelMixin, ColumnarProcessor):
    operator = "columnar-contained-semijoin[X,X][TS^,TE^]"
    x_orders = (so.TS_TE_ASC,)
    y_orders = None
    kernel = staticmethod(kernels.self_contained_semijoin_ts_te)


class ColumnarSelfContainSemijoinDesc(_SelfKernelMixin, ColumnarProcessor):
    operator = "columnar-contain-semijoin[X,X][TSv,TEv]"
    x_orders = (so.TS_TE_DESC,)
    y_orders = None
    kernel = staticmethod(kernels.self_contain_semijoin_ts_te_desc)


class ColumnarSelfContainSemijoin(_SelfKernelMixin, ColumnarProcessor):
    operator = "columnar-contain-semijoin[X,X][TS^]"
    x_orders = (so.TS_ASC,)
    y_orders = None
    kernel = staticmethod(kernels.self_contain_semijoin_ts)


# ======================================================================
# Fused endpoint-event sweep backend
# ======================================================================
class FusedProcessor(ColumnarProcessor):
    """Shared plumbing for the fused backend: same drain/absorb/metrics
    contract as :class:`ColumnarProcessor`, but the kernels come from
    :mod:`repro.columnar.fused` — one endpoint-event sweep per query
    over a disposal-keyed slot store — and join output stays lazy.

    ``slot_bound`` names the certified high-water bound of the cell's
    slot store ("zero", "one", or "active-intervals"); the symbolic
    plan checker diffs it against the Tables 1-3 derivation."""

    backend_name = "fused"
    #: Slot-store high-water bound certified by ``repro.analysis``.
    slot_bound: str = "active-intervals"


# ----------------------------------------------------------------------
# Table 1 — Contain
# ----------------------------------------------------------------------
class FusedContainJoinTsTs(_JoinKernelMixin, FusedProcessor):
    operator = "fused-contain-join[TS^,TS^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TS_ASC,)
    kernel = staticmethod(fused.contain_join_ts_ts)


class FusedContainJoinTsTe(_JoinKernelMixin, FusedProcessor):
    operator = "fused-contain-join[TS^,TE^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TE_ASC,)
    kernel = staticmethod(fused.contain_join_ts_te)


class FusedContainSemijoinTsTs(_SemijoinKernelMixin, FusedProcessor):
    operator = "fused-contain-semijoin[TS^,TS^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TS_ASC,)
    kernel = staticmethod(fused.contain_semijoin_ts_ts)


class FusedContainSemijoinTsTe(_SemijoinKernelMixin, FusedProcessor):
    operator = "fused-contain-semijoin[TS^,TE^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TE_ASC,)
    kernel = staticmethod(fused.contain_semijoin_ts_te)
    slot_bound = "zero"


class FusedContainedSemijoinTsTs(_SemijoinKernelMixin, FusedProcessor):
    operator = "fused-contained-semijoin[TS^,TS^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TS_ASC,)
    kernel = staticmethod(fused.contained_semijoin_ts_ts)


class FusedContainedSemijoinTeTs(_SemijoinKernelMixin, FusedProcessor):
    operator = "fused-contained-semijoin[TE^,TS^]"
    x_orders = (so.TE_ASC,)
    y_orders = (so.TS_ASC,)
    kernel = staticmethod(fused.contained_semijoin_te_ts)
    slot_bound = "zero"


# ----------------------------------------------------------------------
# Table 2 — Overlap
# ----------------------------------------------------------------------
class FusedOverlapJoin(_JoinKernelMixin, FusedProcessor):
    operator = "fused-overlap-join[TS^,TS^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TS_ASC,)
    kernel = staticmethod(fused.overlap_join_ts_ts)


class FusedOverlapSemijoin(_SemijoinKernelMixin, FusedProcessor):
    operator = "fused-overlap-semijoin[TS^,TS^]"
    x_orders = (so.TS_ASC,)
    y_orders = (so.TS_ASC,)
    kernel = staticmethod(fused.overlap_semijoin_ts_ts)
    slot_bound = "zero"


# ----------------------------------------------------------------------
# Section 4.2.4 — Before
# ----------------------------------------------------------------------
class FusedBeforeSemijoin(_SemijoinKernelMixin, FusedProcessor):
    operator = "fused-before-semijoin"
    order_free = True
    kernel = staticmethod(fused.before_semijoin)
    slot_bound = "zero"


# ----------------------------------------------------------------------
# Table 3 — self semijoins
# ----------------------------------------------------------------------
class FusedSelfContainedSemijoin(_SelfKernelMixin, FusedProcessor):
    operator = "fused-contained-semijoin[X,X][TS^,TE^]"
    x_orders = (so.TS_TE_ASC,)
    y_orders = None
    kernel = staticmethod(fused.self_contained_semijoin_ts_te)
    slot_bound = "one"


class FusedSelfContainSemijoinDesc(_SelfKernelMixin, FusedProcessor):
    operator = "fused-contain-semijoin[X,X][TSv,TEv]"
    x_orders = (so.TS_TE_DESC,)
    y_orders = None
    kernel = staticmethod(fused.self_contain_semijoin_ts_te_desc)
    slot_bound = "one"


class FusedSelfContainSemijoin(_SelfKernelMixin, FusedProcessor):
    operator = "fused-contain-semijoin[X,X][TS^]"
    x_orders = (so.TS_ASC,)
    y_orders = None
    kernel = staticmethod(fused.self_contain_semijoin_ts)
