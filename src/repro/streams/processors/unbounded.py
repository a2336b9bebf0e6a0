"""A deliberately GC-free sweep join, for measuring what happens on the
'-' rows of Tables 1 and 2.

When a sort-order combination admits no garbage-collection criterion,
a single-pass stream join is still *possible* — by retaining every
consumed tuple — but the local workspace degenerates to the size of the
inputs.  :class:`UnboundedStateJoin` implements exactly that, so
benchmarks can contrast its linear state growth with the bounded state
of the appropriate orderings.
"""

from __future__ import annotations

from typing import Callable

from ...model import sortorder as so
from ...model.tuples import TemporalTuple
from ..stream import TupleStream
from .sweep import SymmetricSweepJoin


class UnboundedStateJoin(SymmetricSweepJoin):
    """Single-pass symmetric join that never garbage-collects.

    Accepts any sort orders (it performs no admission check) and any
    join predicate; the price is a workspace that retains every tuple
    until the opposite stream is exhausted.
    """

    operator = "unbounded-state-join"
    #: Only the sweep keys read these orders: any order is admitted.
    x_order, y_order = so.TS_ASC, so.TS_ASC
    order_free = True

    def __init__(
        self,
        x: TupleStream,
        y: TupleStream,
        predicate: Callable[[TemporalTuple, TemporalTuple], bool],
    ) -> None:
        super().__init__(x, y)
        self.predicate = predicate

    def match(self, x_tuple: TemporalTuple, y_tuple: TemporalTuple) -> bool:
        return self.predicate(x_tuple, y_tuple)

    x_disposal = y_disposal = None
