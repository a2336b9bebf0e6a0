"""Instrumented tuple streams (Section 4.1).

A stream is "an ordered sequence of data objects".  A
:class:`TupleStream` wraps any tuple source with:

* a declared :class:`~repro.model.sortorder.SortOrder` (optionally
  verified on the fly — a violated declaration raises
  :class:`~repro.errors.StreamOrderError` instead of silently producing
  wrong join results; the resilient executor checks its operands once,
  up front, and builds streams that do not),
* a single input buffer (the paper's ``x_b``), reflecting the
  stream-processing rule that a computation "has access only to one
  element at a time and only in the specified ordering",
* counters for tuples read and passes over the stream, so benchmarks
  can verify single-pass claims.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from ..errors import ExecutionError, StreamOrderError, StreamStateError
from ..governance.budget import active_token
from ..model.relation import TemporalRelation
from ..model.sortorder import SortOrder
from ..model.tuples import TemporalTuple
from ..obs.trace import get_tracer
from ..storage.heap_file import HeapFile
from ..storage.iostats import IOStats


class TupleStream:
    """A one-buffer, forward-only cursor over sorted temporal tuples.

    With ``verify_order``, a tuple read out of the declared order
    raises :class:`~repro.errors.StreamOrderError` naming the stream.
    The executor checks its operands before it builds their streams
    (:func:`repro.resilience.executor.verify_orders`), so its streams
    verify nothing; the per-read check is for streams used directly.
    """

    def __init__(
        self,
        source_factory: Callable[[], Iterator[TemporalTuple]],
        order: Optional[SortOrder] = None,
        name: str = "stream",
        verify_order: bool = True,
    ) -> None:
        self._source_factory = source_factory
        self.order = order
        self.name = name
        self.verify_order = verify_order and order is not None
        self.tuples_read = 0
        self.passes = 0
        #: ``tuples_read`` snapshot taken when each pass opened; the
        #: diffs are the per-pass read counts (:attr:`pass_reads`),
        #: recorded at zero per-tuple cost.
        self._pass_bases: list[int] = []
        #: The whole source as endpoint columns, when it was born that
        #: way (:meth:`from_columns`); batch processors take these as
        #: they are instead of columnising the tuples.
        self.columns = None
        self._iterator: Optional[Iterator[TemporalTuple]] = None
        self._buffer: Optional[TemporalTuple] = None
        self._previous: Optional[TemporalTuple] = None
        self._exhausted = False
        self._started = False

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_relation(
        cls,
        relation: TemporalRelation,
        name: Optional[str] = None,
        verify_order: bool = True,
    ) -> "TupleStream":
        """A stream over a relation, inheriting its declared order."""
        return cls(
            lambda: iter(relation.tuples),
            order=relation.order,
            name=name or relation.schema.relation_name,
            verify_order=verify_order,
        )

    @classmethod
    def from_columns(
        cls,
        columns,
        name: str,
        verify_order: bool = True,
    ) -> "TupleStream":
        """A stream over an operand born as endpoint columns (an
        :class:`~repro.columnar.relation.IntervalColumns`), inheriting
        its declared order.  A batch processor drains
        :attr:`columns`; only a cursor read makes the operand build
        its tuples."""
        stream = cls(
            lambda: iter(columns.tuples),
            order=columns.order,
            name=name,
            verify_order=verify_order,
        )
        stream.columns = columns
        return stream

    @classmethod
    def from_tuples(
        cls,
        tuples: Iterable[TemporalTuple],
        order: Optional[SortOrder] = None,
        name: str = "stream",
        verify_order: bool = True,
    ) -> "TupleStream":
        """A stream over an in-memory (restartable) tuple sequence."""
        materialised = tuple(tuples)
        return cls(
            lambda: iter(materialised),
            order=order,
            name=name,
            verify_order=verify_order,
        )

    @classmethod
    def from_heap_file(
        cls,
        heap_file: HeapFile,
        order: Optional[SortOrder] = None,
        name: Optional[str] = None,
        stats: Optional[IOStats] = None,
        verify_order: bool = True,
    ) -> "TupleStream":
        """A stream backed by a simulated disk file; every restart is a
        fresh scan charged to the file's I/O stats."""
        return cls(
            lambda: heap_file.scan(stats=stats),
            order=order,
            name=name or heap_file.name,
            verify_order=verify_order,
        )

    # ------------------------------------------------------------------
    # cursor protocol
    # ------------------------------------------------------------------
    @property
    def buffer(self) -> Optional[TemporalTuple]:
        """The tuple currently in the input buffer (the paper's
        ``x_b``), or ``None`` before the first :meth:`advance` or after
        exhaustion."""
        return self._buffer

    @property
    def exhausted(self) -> bool:
        """True once the buffer is empty and the source is drained."""
        return self._exhausted and self._buffer is None

    @property
    def pass_reads(self) -> list:
        """Tuples read by each pass separately (one entry per pass, in
        order).  ``restart()`` resets order verification but never the
        counters, so without this breakdown a rewinding consumer (a
        nested loop's inner) would report one aggregated total instead
        of per-pass counts."""
        bases = self._pass_bases
        return [
            (bases[i + 1] if i + 1 < len(bases) else self.tuples_read)
            - base
            for i, base in enumerate(bases)
        ]

    def advance(self) -> Optional[TemporalTuple]:
        """Load the next tuple into the buffer, returning it (or
        ``None`` at end of stream)."""
        if self._iterator is None:
            if self._exhausted:
                return None
            self._open()
        if self._iterator is None:
            raise StreamStateError(
                f"stream {self.name!r} failed to open an iterator"
            )
        previous = self._buffer
        nxt = next(self._iterator, None)
        if nxt is None:
            self._previous = previous
            self._buffer = None
            self._exhausted = True
            self._iterator = None
            tracer = get_tracer()
            if tracer.enabled:
                reads = self.pass_reads
                tracer.event(
                    "stream.pass",
                    stream=self.name,
                    number=self.passes,
                    read=reads[-1] if reads else 0,
                )
            return None
        self.tuples_read += 1
        if (
            self.verify_order
            and previous is not None
            and self.order is not None
            and not self.order.check(previous, nxt)
        ):
            raise StreamOrderError(
                f"stream {self.name!r} declared order [{self.order}] "
                f"but produced {previous} before {nxt}",
                stream_name=self.name,
            )
        self._previous = previous
        self._buffer = nxt
        return nxt

    def restart(self) -> None:
        """Rewind to the beginning for another pass.  The pass counter
        lets tests prove single-pass claims (``stream.passes == 1``)."""
        self._iterator = None
        self._buffer = None
        self._previous = None
        self._exhausted = False
        self._started = False

    def drain(self) -> Iterator[TemporalTuple]:
        """Consume the remainder of the stream tuple by tuple."""
        if self._buffer is None:
            self.advance()
        while self._buffer is not None:
            current = self._buffer
            self.advance()
            yield current

    def _open(self) -> None:
        if self._started and self._iterator is None and not self._exhausted:
            raise ExecutionError(
                f"stream {self.name!r} is in an inconsistent state"
            )
        self._iterator = self._source_factory()
        self._started = True
        # A fresh pass must re-check the ordering from its own first
        # tuple: comparing across pass boundaries would misreport a
        # legal rewind (last tuple of pass N vs first of pass N+1) as
        # an order violation.
        self._previous = None
        self._buffer = None
        self._pass_bases.append(self.tuples_read)
        self.passes += 1
        token = active_token()
        if token is not None:
            # Pass boundaries are governance checkpoints: multi-pass
            # plans (re-sorts, spills, rewinding nested loops) observe
            # deadline/cancellation between passes even when the pages
            # themselves are served from memory.
            token.check()

    def note_batch_pass(self, count: int) -> None:
        """Account one whole-stream batch read (the columnar drain,
        which bypasses the single-buffer cursor) exactly like a cursor
        pass: pass counter, per-pass base, read total, and the same
        trace hook.  The read was the whole source, so the
        cursor is left exhausted: a later :meth:`drain` finds nothing
        more to scan instead of re-reading it tuple by tuple."""
        self._pass_bases.append(self.tuples_read)
        self.passes += 1
        self.tuples_read += count
        self._iterator = None
        self._buffer = None
        self._started = True
        self._exhausted = True
        token = active_token()
        if token is not None:
            token.check()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "stream.pass",
                stream=self.name,
                number=self.passes,
                read=count,
                batch=True,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TupleStream({self.name!r}, order={self.order}, "
            f"read={self.tuples_read}, passes={self.passes})"
        )
