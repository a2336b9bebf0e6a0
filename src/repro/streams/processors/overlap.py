"""Overlap-join and Overlap-semijoin (Section 4.2.4, Table 2).

The operator uses the TQuel-style general ``overlap`` of the Superstar
query: lifespans sharing at least one timepoint,
``X.TS < Y.TE and Y.TS < X.TE``.

Table 2's finding: the only stream-appropriate orderings are both
inputs on ValidFrom ascending (or, by mirror symmetry, both on ValidTo
descending).  With that ordering:

* :class:`OverlapJoin` keeps, as state, exactly the tuples whose
  lifespans span the opposite buffer's ValidFrom — the set of "open"
  intervals of a plane sweep (state class (a));
* :class:`OverlapSemijoin` needs no state at all beyond the two input
  buffers (state class (b)): because only existence is needed, the
  single buffered Y tuple with the largest unprocessed span decides
  each X tuple.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ...errors import ProcessorStateError
from ...model import sortorder as so
from ...model.interval import (
    Disposal,
    ends_by_start,
    lifespans_intersect,
)
from ...model.tuples import TemporalTuple
from ..policies import AdvancePolicy
from ..stream import TupleStream
from .base import StreamProcessor, ts_key
from .baseline import overlap_predicate
from .sweep import SymmetricSweepJoin


class OverlapJoin(SymmetricSweepJoin):
    """Overlap-join with both inputs sorted on ValidFrom ascending.

    Garbage collection: a state tuple from either side is disposable
    once its ValidTo is at or below the opposite buffer's ValidFrom —
    every future tuple of the opposite stream starts after the state
    tuple has ended, so their lifespans cannot share a point.
    """

    operator = "overlap-join[TS^,TS^]"

    def __init__(
        self,
        x: TupleStream,
        y: TupleStream,
        policy: Optional[AdvancePolicy] = None,
    ) -> None:
        super().__init__(x, y, policy=policy)
        self._require_order(x, (so.TS_ASC,), "X")
        self._require_order(y, (so.TS_ASC,), "Y")

    match = staticmethod(lifespans_intersect)
    x_sweep_key = staticmethod(ts_key)
    y_sweep_key = staticmethod(ts_key)
    x_disposal = y_disposal = Disposal("valid_to", "valid_from")


class OverlapSemijoin(StreamProcessor):
    """Overlap-semijoin(X, Y) with both inputs on ValidFrom ascending:
    emit each X tuple whose lifespan intersects some Y lifespan.

    The algorithm holds only the two input buffers (Table 2, state
    class (b)).  For the buffered pair:

    * if they overlap, ``x_b`` is emitted and X advances (``y_b`` is
      retained — it may also overlap later X tuples);
    * if ``y_b.TE <= x_b.TS``, the Y tuple ends before the current X
      begins; since future X tuples start no earlier, ``y_b`` is
      useless forever and Y advances;
    * otherwise ``y_b.TS >= x_b.TE``: no Y tuple overlaps ``x_b``
      (future Y tuples start even later), so ``x_b`` is dropped and X
      advances.
    """

    operator = "overlap-semijoin[TS^,TS^]"

    def __init__(self, x: TupleStream, y: TupleStream) -> None:
        super().__init__(x, y)
        self._require_order(x, (so.TS_ASC,), "X")
        self._require_order(y, (so.TS_ASC,), "Y")

    def _execute(self) -> Iterator[TemporalTuple]:
        if self.y is None:
            raise ProcessorStateError(f"{self.operator} needs a Y stream")
        self.x.advance()
        self.y.advance()
        while True:
            x_buf = self.x.buffer
            if x_buf is None:
                return
            y_buf = self.y.buffer
            if y_buf is None:
                # No Y tuples remain; no further X tuple can match.
                return
            self.note_comparison()
            if overlap_predicate(x_buf, y_buf):
                yield x_buf
                self.x.advance()
            elif ends_by_start(y_buf, x_buf):
                self.y.advance()
            else:
                self.x.advance()
