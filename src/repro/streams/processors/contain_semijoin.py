"""Contain-semijoin and Contained-semijoin stream processors
(Section 4.2.2, Figure 6, Table 1).

``Contain-semijoin(X, Y)`` selects the X tuples whose lifespan strictly
contains the lifespan of *some* Y tuple.  ``Contained-semijoin(X, Y)``
selects the X tuples whose lifespan lies strictly inside some Y
lifespan.  Because a semijoin can emit a tuple as soon as its first
match is found, the paper devises algorithms that are cheaper than the
corresponding joins:

* With X on ValidFrom ascending and Y on ValidTo ascending, the
  Figure-6 sweep answers Contain-semijoin(X, Y) — and, run with the
  roles swapped, Contained-semijoin(X, Y) — using *only the two input
  buffers* (state class (d) of Table 1) — a
  :class:`~.semijoin.TwoBufferMerge`.

* With both inputs on ValidFrom ascending, bounded state suffices
  (state class (c)): the workspace holds only tuples whose lifespans
  span the opposite buffer's ValidFrom, shrinking further because
  matched tuples leave immediately — a
  :class:`~.semijoin.HeldSideSweep`.
"""

from __future__ import annotations

from ...model import sortorder as so
from ...model.interval import (
    Disposal,
    contains_lifespan,
    starts_no_later,
    starts_strictly_before,
    within_lifespan,
)
from ..policies import X, Y
from .semijoin import HeldSideSweep, TwoBufferMerge


class ContainSemijoinTsTe(TwoBufferMerge):
    """Figure 6: Contain-semijoin(X, Y) with X on ValidFrom ascending
    and Y on ValidTo ascending — one buffer per stream, single pass of
    each.

    For the buffered pair ``(x_b, y_b)``:

    * ``y_b.TS <= x_b.TS`` — ``y_b`` starts no later than ``x_b`` and
      (since X is ValidFrom-sorted) no later than any future X tuple;
      it can never be strictly inside one, so Y advances;
    * else if ``y_b.TE < x_b.TE`` — the semijoin condition holds:
      ``x_b`` is emitted, X advances, and ``y_b`` stays buffered (it may
      also witness later X tuples);
    * else ``y_b.TE >= x_b.TE`` — no current or future Y tuple ends
      strictly inside ``x_b`` (Y is ValidTo-sorted), so ``x_b`` is
      dropped and X advances.

    Once Y is exhausted, every skipped Y tuple was provably useless for
    all future X tuples, so nothing remains.
    """

    operator = "contain-semijoin[TS^,TE^]"
    x_order, y_order = so.TS_ASC, so.TE_ASC
    match = staticmethod(contains_lifespan)
    y_advances = staticmethod(starts_no_later)


class ContainedSemijoinTeTs(TwoBufferMerge):
    """Figure 6 with the roles swapped: Contained-semijoin(X, Y) with X
    on ValidTo ascending and Y on ValidFrom ascending — one buffer per
    stream (the (d) entry in Table 1's ValidTo^/ValidFrom^ row).

    Each X tuple is emitted when strictly inside the buffered Y tuple;
    an X tuple starting no later than the buffered (and every future) Y
    tuple can never be contained and is dropped.  Otherwise
    ``x_b.TE >= y_b.TE``: ``x_b`` is not inside ``y_b``, but a later Y
    (with a larger lifespan end) may still contain it, so Y advances.
    """

    operator = "contained-semijoin[TE^,TS^]"
    x_order, y_order = so.TE_ASC, so.TS_ASC
    match = staticmethod(within_lifespan)
    y_advances = staticmethod(starts_strictly_before)


class ContainSemijoinTsTs(HeldSideSweep):
    """Contain-semijoin(X, Y) with both inputs on ValidFrom ascending —
    bounded state (class (c) of Table 1).

    The sweep consumes tuples in global ValidFrom order.  X tuples wait
    in the workspace until a Y tuple strictly inside them arrives (then
    they are emitted and leave) or until ``X.TE <= y_b.TS`` proves no
    future Y can be inside them.  Y tuples need never be stored: a Y
    tuple consumed at sweep position ``y.TS <= x_b.TS`` cannot lie
    strictly inside any future X tuple.  With no further Y, pending and
    future X tuples all fail.
    """

    operator = "contain-semijoin[TS^,TS^]"
    x_order, y_order = so.TS_ASC, so.TS_ASC
    match = staticmethod(contains_lifespan)
    held = X
    inserts = staticmethod(starts_no_later)
    x_disposal = Disposal("valid_to", "valid_from")
    evicts_after_insert = True


class ContainedSemijoinTsTs(HeldSideSweep):
    """Contained-semijoin(X, Y) with both inputs on ValidFrom ascending
    — bounded state (class (c)).

    Y tuples wait in the workspace while their lifespan spans the X
    buffer's ValidFrom (``Y.TE > x_b.TS``); each X tuple is decided the
    moment it is consumed, because the sweep guarantees every Y tuple
    starting strictly before it has already been consumed into the
    state (or safely evicted).  Remaining Y tuples cannot contain
    anything once X is exhausted.
    """

    operator = "contained-semijoin[TS^,TS^]"
    x_order, y_order = so.TS_ASC, so.TS_ASC
    match = staticmethod(within_lifespan)
    held = Y
    inserts = staticmethod(starts_strictly_before)
    y_disposal = Disposal("valid_to", "valid_from")
