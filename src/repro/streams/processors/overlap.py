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
  each X tuple — a :class:`~.semijoin.TwoBufferMerge`.
"""

from __future__ import annotations

from ...model import sortorder as so
from ...model.interval import Disposal, ends_by_start, lifespans_intersect
from .semijoin import TwoBufferMerge
from .sweep import SymmetricSweepJoin


class OverlapJoin(SymmetricSweepJoin):
    """Overlap-join with both inputs sorted on ValidFrom ascending.

    Garbage collection: a state tuple from either side is disposable
    once its ValidTo is at or below the opposite buffer's ValidFrom —
    every future tuple of the opposite stream starts after the state
    tuple has ended, so their lifespans cannot share a point.
    """

    operator = "overlap-join[TS^,TS^]"
    x_order, y_order = so.TS_ASC, so.TS_ASC
    match = staticmethod(lifespans_intersect)
    x_disposal = y_disposal = Disposal("valid_to", "valid_from")


class OverlapSemijoin(TwoBufferMerge):
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

    With no Y tuples left, no further X tuple can match.
    """

    operator = "overlap-semijoin[TS^,TS^]"
    x_order, y_order = so.TS_ASC, so.TS_ASC
    match = staticmethod(lifespans_intersect)
    y_advances = staticmethod(ends_by_start)
