"""Self semijoins — Contained-semijoin(X, X) and Contain-semijoin(X, X)
(Section 4.2.3, Figure 7, Table 3).

When both operands are the *same* stream, applying the binary semijoin
algorithms would scan it twice.  The paper's single-scan algorithms
avoid this:

* :class:`SelfContainedSemijoin` — with primary sort ValidFrom
  ascending and secondary ValidTo ascending, selecting the tuples whose
  lifespan is strictly contained in some *other* tuple's lifespan needs
  exactly **one state tuple** plus the input buffer (Table 3, (a)) —
  a :class:`~.semijoin.RunningExtremum`.  This is the operator that
  answers the semantically optimised Superstar query in one pass.

* :class:`SelfContainSemijoinDesc` — the order-dual: with primary
  ValidFrom *descending* and secondary ValidTo descending, selecting
  the tuples that strictly contain some other tuple also needs one
  state tuple (Table 3's second row), on the same driver.

* :class:`SelfContainSemijoin` — Contain-semijoin(X, X) on ValidFrom
  ascending keeps a bounded candidate set: tuples still "open" at the
  sweep position that have not yet been proven containers
  (Table 3, (b): a subset of the overlapping successors) — a
  :class:`~.semijoin.HeldSideSweep` over one stream.
"""

from __future__ import annotations

from ...model import sortorder as so
from ...model.interval import (
    Disposal,
    HasLifespan,
    contains_lifespan,
    ends_no_later,
    ends_strictly_before,
    within_lifespan,
)
from ..policies import X
from .semijoin import HeldSideSweep, RunningExtremum


class SelfContainedSemijoin(RunningExtremum):
    """Contained-semijoin(X, X) in one scan with one state tuple.

    Invariant: the state tuple ``x_s`` has the maximum ValidTo among
    all tuples read so far (on ties, the latest ValidFrom).  A newly
    read ``x_b`` is strictly contained in *some* earlier tuple iff it is
    strictly contained in ``x_s``:

    * ``x_s.TS == x_b.TS`` — no earlier tuple can strictly contain
      ``x_b``'s start; ``x_b`` (whose ValidTo is >= ``x_s``'s by the
      secondary sort) becomes the state;
    * ``x_s.TE <= x_b.TE`` — ``x_b`` ends last so far and becomes the
      state;
    * otherwise ``x_s.TS < x_b.TS`` and ``x_b.TE < x_s.TE`` — ``x_b``
      is strictly inside ``x_s`` and is emitted; ``x_s`` stays.

    By the secondary sort the first case is one of the second, so
    ``x_s`` gives way exactly when it ends no later than ``x_b``.
    """

    operator = "contained-semijoin[X,X][TS^,TE^]"
    x_order = so.TS_TE_ASC
    match = staticmethod(within_lifespan)
    replaced_by = staticmethod(ends_no_later)


def _ends_later_or_starts_with(x_s: HasLifespan, x_b: HasLifespan) -> bool:
    """The descending state gives way to ``x_b`` when ``x_b`` ends
    strictly earlier, or starts with it: the secondary descending sort
    then gives ``x_b.TE <= x_s.TE``, and with equal endpoints either
    tuple serves equally."""
    return ends_strictly_before(x_b, x_s) or x_b.valid_from == x_s.valid_from


class SelfContainSemijoinDesc(RunningExtremum):
    """Contain-semijoin(X, X) in one scan with one state tuple, for
    input sorted ValidFrom *descending* with secondary ValidTo
    descending (the (a) entry of Table 3's second row).

    Order-dual invariant: the state tuple has the minimum ValidTo so
    far (on ties, the earliest-read, i.e. largest, ValidFrom).  A newly
    read tuple strictly contains some earlier tuple iff it strictly
    contains the state tuple.
    """

    operator = "contain-semijoin[X,X][TSv,TEv]"
    x_order = so.TS_TE_DESC
    match = staticmethod(contains_lifespan)
    replaced_by = staticmethod(_ends_later_or_starts_with)


class SelfContainSemijoin(HeldSideSweep):
    """Contain-semijoin(X, X) on ValidFrom ascending — single scan with
    a bounded candidate workspace (Table 3, (b)).

    Containers always arrive before the tuples they contain (their
    ValidFrom is strictly smaller), so each tuple read is probed against
    the candidate set; every candidate that strictly contains it is
    emitted and retired.  Candidates whose ValidTo is at or before the
    new tuple's ValidFrom can no longer contain anything and are
    garbage-collected, keeping the state within the stream's maximum
    overlap depth.
    """

    operator = "contain-semijoin[X,X][TS^]"
    x_order = so.TS_ASC
    match = staticmethod(contains_lifespan)
    held = X
    x_disposal = Disposal("valid_to", "valid_from")
