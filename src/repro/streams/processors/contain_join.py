"""Contain-join stream processors (Section 4.2.1, Figure 5, Table 1).

``Contain-join(X, Y)`` outputs the pair ``(x, y)`` whenever the lifespan
of ``x`` strictly contains that of ``y``:
``X.TS < Y.TS`` and ``Y.TE < X.TE`` — the *during* relationship of
Figure 2 read from the containing side.

Two sort-order combinations admit a bounded-workspace single-pass
algorithm (the (a) and (b) rows of Table 1):

* :class:`ContainJoinTsTs` — both streams on ValidFrom ascending; the
  state is {X tuples whose lifespan spans the Y buffer's ValidFrom}
  union {Y tuples whose ValidFrom lies within a buffered X lifespan}.
* :class:`ContainJoinTsTe` — X on ValidFrom ascending, Y on ValidTo
  ascending; the state is {X tuples whose lifespan spans the Y buffer's
  ValidTo} union {Y tuples contained in a buffered X lifespan}.

Their time-reversal mirrors (both ValidTo descending; ValidTo
descending with ValidFrom descending) are obtained through the
same classes by mirroring the streams — see
:func:`repro.streams.registry.lookup`.

For any other combination no garbage-collection criterion exists; the
registry reports those as inappropriate, and
:class:`UnboundedStateJoin` (in :mod:`.unbounded`) demonstrates the
linear state growth empirically.
"""

from __future__ import annotations

from ...model import sortorder as so
from ...model.interval import Disposal, contains_lifespan
from .sweep import SymmetricSweepJoin


class ContainJoinTsTs(SymmetricSweepJoin):
    """Contain-join with both inputs sorted on ValidFrom ascending.

    Garbage collection (Section 4.2.1, step 3):

    * an X state tuple is disposable once ``X.TE <= y_b.TS`` — every
      future Y starts at or after ``y_b.TS``, so its lifespan cannot end
      strictly inside X's;
    * a Y state tuple is disposable once ``Y.TS <= x_b.TS`` — every
      future X starts at or after ``x_b.TS`` and therefore cannot start
      strictly before Y does.
    """

    operator = "contain-join[TS^,TS^]"
    x_order, y_order = so.TS_ASC, so.TS_ASC
    match = staticmethod(contains_lifespan)
    x_disposal = Disposal("valid_to", "valid_from")
    y_disposal = Disposal("valid_from", "valid_from")


class ContainJoinTsTe(SymmetricSweepJoin):
    """Contain-join with X sorted on ValidFrom ascending and Y sorted on
    ValidTo ascending (state class (b) of Table 1).

    Garbage collection:

    * an X state tuple is disposable once ``X.TE <= y_b.TE`` — future Y
      tuples end at or after ``y_b.TE``, never strictly inside X;
    * a Y state tuple is disposable once ``Y.TS <= x_b.TS`` — future X
      tuples cannot start strictly before it.
    """

    operator = "contain-join[TS^,TE^]"
    x_order, y_order = so.TS_ASC, so.TE_ASC
    match = staticmethod(contains_lifespan)
    x_disposal = Disposal("valid_to", "valid_to")
    y_disposal = Disposal("valid_from", "valid_from")
