"""Base class and shared plumbing for stream processors.

A stream processor (Section 4.1) consumes one or two sorted
:class:`~repro.streams.stream.TupleStream` inputs, keeps local state in
:class:`~repro.streams.workspace.Workspace` spaces, and emits an output
stream.  Concrete operators implement :meth:`StreamProcessor._execute`
as a generator; the base class wires up workspace metering, sort-order
admission checks, and the :class:`~repro.streams.metrics.
ProcessorMetrics` report.
"""

from __future__ import annotations

import abc
from typing import Iterator, Optional, Sequence

from ...errors import ExecutionError, UnsupportedSortOrderError
from ...model.sortorder import SortOrder, order_satisfies
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


class StreamProcessor(abc.ABC):
    """Common machinery for unary and binary stream operators."""

    #: Human-readable operator name (set by subclasses).
    operator: str = "stream-processor"

    def __init__(
        self,
        x: TupleStream,
        y: Optional[TupleStream] = None,
    ) -> None:
        self.x = x
        self.y = y
        self.meter = WorkspaceMeter()
        self.metrics = ProcessorMetrics(
            buffers=1 if y is None else 2
        )
        self._workspaces: list[Workspace] = []
        self._consumed = False

    # ------------------------------------------------------------------
    # admission checks
    # ------------------------------------------------------------------
    def _require_order(
        self,
        stream: TupleStream,
        acceptable: Sequence[SortOrder],
        role: str,
    ) -> None:
        """Reject streams whose declared order cannot support the
        algorithm — the executable form of the '-' cells in Tables 1-3."""
        if any(
            order_satisfies(stream.order, required) for required in acceptable
        ):
            return
        wanted = " or ".join(f"[{o}]" for o in acceptable)
        raise UnsupportedSortOrderError(
            f"{self.operator} requires the {role} stream sorted by "
            f"{wanted}; stream {stream.name!r} declares "
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

    def __iter__(self) -> Iterator:
        if self._consumed:
            raise ExecutionError(
                f"{self.operator} has already been executed; stream "
                "processors are single-use"
            )
        self._consumed = True
        with get_tracer().span(f"operator:{self.operator}"):
            for item in self._execute():
                self.metrics.output_count += 1
                yield item
            self._finalise_metrics()

    def run(self) -> list:
        """Execute to completion and return the materialised output."""
        return list(self)

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
