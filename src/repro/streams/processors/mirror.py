"""Time-reversal mirroring (Section 4.2.1's symmetry remark).

"Sorting both relations X and Y on attribute ValidTo in descending
order would have the same effect as sorting them on attribute ValidFrom
in ascending order because of symmetry (although the ValidFrom and
ValidTo attributes exchange their roles); the lower half of Table 1 is
therefore the mirror image of the upper half."

We make that argument executable: reversing time maps the lifespan
``[TS, TE)`` to ``[-TE, -TS)`` and turns a ValidTo-descending stream
into a ValidFrom-ascending one, while preserving containment and
overlap (and swapping the operands of *before*, which therefore has
no mirrored cell).  A processor for a lower-half sort-order row is
therefore obtained by mirroring the inputs, running the upper-half
algorithm, and un-mirroring the outputs — no new garbage-collection
analysis needed.
"""

from __future__ import annotations

from typing import Callable, Iterator, Union

from ...model.tuples import TemporalTuple
from ..metrics import ProcessorMetrics
from ..stream import TupleStream
from ..workspace import WorkspaceMeter
from .base import StreamProcessor

JoinOutput = Union[TemporalTuple, tuple]


def mirror_tuple(tup: TemporalTuple) -> TemporalTuple:
    """Reverse time: ``[TS, TE)`` becomes ``[-TE, -TS)``.  An
    involution — applying it twice restores the tuple."""
    return TemporalTuple(
        tup.surrogate, tup.value, -tup.valid_to, -tup.valid_from
    )


def mirror_stream(stream: TupleStream) -> TupleStream:
    """A view of ``stream`` with every tuple time-reversed and the
    declared sort order mirrored (TS^ <-> TEv).  Reading the view pulls
    from, and is counted against, the original stream."""

    def factory() -> Iterator[TemporalTuple]:
        # Bypass the original stream's single-buffer cursor: mirroring
        # happens below any processor, so the inner processor's reads
        # drive the original source directly.
        return (mirror_tuple(t) for t in stream._source_factory())

    mirrored = TupleStream(
        factory,
        order=stream.order.mirrored() if stream.order else None,
        name=f"mirror({stream.name})",
        verify_order=stream.verify_order,
    )
    return mirrored


class MirroredProcessor:
    """Run an upper-half algorithm on time-reversed inputs.

    Parameters
    ----------
    factory:
        Builds the inner processor from the mirrored streams, e.g.
        ``lambda mx, my: ContainJoinTsTs(mx, my)``.
    x, y:
        The original (lower-half-sorted) streams; ``y`` may be ``None``
        for unary operators.
    """

    operator = "mirrored"

    def __init__(
        self,
        factory: Callable[..., StreamProcessor],
        x: TupleStream,
        y: TupleStream | None = None,
    ) -> None:
        mirrored = [mirror_stream(s) for s in (x, y) if s is not None]
        self.inner = factory(*mirrored)
        self.operator = f"mirror({self.inner.operator})"

    def __iter__(self) -> Iterator[JoinOutput]:
        for item in self.inner:
            if isinstance(item, tuple):
                left, right = item
                yield (mirror_tuple(left), mirror_tuple(right))
            else:
                yield mirror_tuple(item)

    def run(self) -> list:
        return list(self)

    @property
    def meter(self) -> WorkspaceMeter:
        """The inner algorithm's joint workspace meter — where a
        workspace budget and a governance token attach."""
        return self.inner.meter

    def _finalise_metrics(self) -> None:
        self.inner._finalise_metrics()

    @property
    def metrics(self) -> ProcessorMetrics:
        """The inner algorithm's metrics (workspace, comparisons,
        output count).  Stream-side read counters refer to the mirrored
        views, which pull one-for-one from the originals."""
        return self.inner.metrics
