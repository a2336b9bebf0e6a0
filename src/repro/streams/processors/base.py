"""Base class and shared plumbing for stream processors.

A stream processor (Section 4.1) consumes one or two sorted
:class:`~repro.streams.stream.TupleStream` inputs, keeps local state in
:class:`~repro.streams.workspace.Workspace` spaces, and emits an output
stream.  Concrete operators declare the sort order each operand must
carry and implement :meth:`StreamProcessor._execute` as a generator;
the base class wires up workspace metering, the sort-order admission
checks of those declarations, and the :class:`~repro.streams.metrics.
ProcessorMetrics` report.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from ...errors import ExecutionError, UnsupportedSortOrderError
from ...model.sortorder import SortAttribute, SortOrder, order_satisfies
from ...model.tuples import TemporalTuple
from ...obs.trace import get_tracer
from ..metrics import ProcessorMetrics
from ..stream import TupleStream
from ..workspace import Workspace, WorkspaceMeter, WorkspaceReport


def ts_key(tup: TemporalTuple) -> int:
    """Sweep key of a ValidFrom-sorted stream."""
    return tup.valid_from


def te_key(tup: TemporalTuple) -> int:
    """Sweep key of a ValidTo-sorted stream."""
    return tup.valid_to


def sweep_key(order: SortOrder) -> Callable[[TemporalTuple], int]:
    """The sweep key of a stream sorted by ``order``: its primary
    endpoint."""
    if order.primary.attribute is SortAttribute.VALID_FROM:
        return ts_key
    return te_key


class StreamProcessor(abc.ABC):
    """Common machinery for unary and binary stream operators."""

    #: Human-readable operator name (set by subclasses).
    operator: str = "stream-processor"
    #: The sort order each operand must declare — for a cell processor,
    #: its row of Tables 1-3.  ``None`` admits any order; a declared
    #: ``y_order`` makes the operator binary.
    x_order: Optional[SortOrder] = None
    y_order: Optional[SortOrder] = None
    #: True when the algorithm works whatever the operands' orders
    #: (Before-semijoin): the declared orders are then not checked.
    order_free: bool = False

    def __init__(
        self,
        x: TupleStream,
        y: Optional[TupleStream] = None,
    ) -> None:
        if self.y_order is not None and y is None:
            raise TypeError(f"{self.operator} is a binary operator")
        self.x = x
        self.y = y
        self.meter = WorkspaceMeter()
        self.metrics = ProcessorMetrics(
            buffers=1 if y is None else 2
        )
        self._workspaces: list[Workspace] = []
        self._consumed = False
        if not self.order_free:
            for stream, order, role in (
                (x, self.x_order, "X"), (y, self.y_order, "Y")
            ):
                if order is not None:
                    self._require_order(stream, order, role)

    # ------------------------------------------------------------------
    # admission checks
    # ------------------------------------------------------------------
    def _require_order(
        self, stream: TupleStream, required: SortOrder, role: str
    ) -> None:
        """Reject streams whose declared order cannot support the
        algorithm — the executable form of the '-' cells in Tables 1-3."""
        if order_satisfies(stream.order, required):
            return
        raise UnsupportedSortOrderError(
            f"{self.operator} requires the {role} stream sorted by "
            f"[{required}]; stream {stream.name!r} declares "
            f"[{stream.order}]"
        )

    # ------------------------------------------------------------------
    # workspace management
    # ------------------------------------------------------------------
    def new_workspace(self, name: str) -> Workspace:
        """A state space wired into this operator's joint meter."""
        ws: Workspace = Workspace(name, meter=self.meter)
        self._workspaces.append(ws)
        return ws

    def note_comparison(self, count: int = 1) -> None:
        self.metrics.comparisons += count

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _execute(self) -> Iterator:
        """The operator body; yields output tuples/pairs."""

    @contextmanager
    def _executing(self) -> Iterator[None]:
        """One execution: refused when the processor already ran, under
        the ``operator:`` span, metrics finalised when the body
        completes."""
        if self._consumed:
            raise ExecutionError(
                f"{self.operator} has already been executed; stream "
                "processors are single-use"
            )
        self._consumed = True
        with get_tracer().span(f"operator:{self.operator}"):
            yield
            self._finalise_metrics()

    def __iter__(self) -> Iterator:
        with self._executing():
            for item in self._execute():
                self.metrics.output_count += 1
                yield item

    def run(self) -> list:
        """Execute to completion and return the materialised output.
        Should the body raise, ``output_count`` still counts the items
        it emitted first."""
        out: list = []
        with self._executing():
            try:
                out.extend(self._execute())
            finally:
                self.metrics.output_count += len(out)
        return out

    def _finalise_metrics(self) -> None:
        self.metrics.tuples_read_x = self.x.tuples_read
        self.metrics.passes_x = self.x.passes
        self.metrics.pass_reads_x = self.x.pass_reads
        if self.y is not None:
            self.metrics.tuples_read_y = self.y.tuples_read
            self.metrics.passes_y = self.y.passes
            self.metrics.pass_reads_y = self.y.pass_reads
        self.metrics.workspace = WorkspaceReport.from_meter(self.meter)
        self.metrics.state_high_water = {
            ws.name: ws.high_water for ws in self._workspaces
        }
