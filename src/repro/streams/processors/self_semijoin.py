"""Self semijoins — Contained-semijoin(X, X) and Contain-semijoin(X, X)
(Section 4.2.3, Figure 7, Table 3).

When both operands are the *same* stream, applying the binary semijoin
algorithms would scan it twice.  The paper's single-scan algorithms
avoid this:

* :class:`SelfContainedSemijoin` — with primary sort ValidFrom
  ascending and secondary ValidTo ascending, selecting the tuples whose
  lifespan is strictly contained in some *other* tuple's lifespan needs
  exactly **one state tuple** plus the input buffer (Table 3, (a)).
  This is the operator that answers the semantically optimised
  Superstar query in one pass.

* :class:`SelfContainSemijoinDesc` — the order-dual: with primary
  ValidFrom *descending* and secondary ValidTo descending, selecting
  the tuples that strictly contain some other tuple also needs one
  state tuple (Table 3's second row).

* :class:`SelfContainSemijoin` — Contain-semijoin(X, X) on ValidFrom
  ascending keeps a bounded candidate set: tuples still "open" at the
  sweep position that have not yet been proven containers
  (Table 3, (b): a subset of the overlapping successors).
"""

from __future__ import annotations

from typing import Iterator

from ...errors import ProcessorStateError
from ...model import sortorder as so
from ...model.interval import (
    Disposal,
    contains_lifespan,
    ends_no_later,
    ends_strictly_before,
)
from ...model.tuples import TemporalTuple
from ..stream import TupleStream
from .base import StreamProcessor


class SelfContainedSemijoin(StreamProcessor):
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
    """

    operator = "contained-semijoin[X,X][TS^,TE^]"

    def __init__(self, x: TupleStream) -> None:
        super().__init__(x)
        self._require_order(x, (so.TS_TE_ASC,), "X")
        self.state = self.new_workspace("state")

    def _execute(self) -> Iterator[TemporalTuple]:
        first = self.x.advance()
        if first is None:
            return
        self.state.insert(first)
        while True:
            x_buf = self.x.advance()
            if x_buf is None:
                return
            x_s = self.state.peek()
            if x_s is None:
                raise ProcessorStateError(
                    f"{self.operator}: state tuple vanished mid-scan"
                )
            self.note_comparison()
            if x_s.valid_from == x_buf.valid_from:
                self.state.replace(x_buf)
            elif ends_no_later(x_s, x_buf):
                self.state.replace(x_buf)
            else:
                yield x_buf


class SelfContainSemijoinDesc(StreamProcessor):
    """Contain-semijoin(X, X) in one scan with one state tuple, for
    input sorted ValidFrom *descending* with secondary ValidTo
    descending (the (a) entry of Table 3's second row).

    Order-dual invariant: the state tuple has the minimum ValidTo so
    far (on ties, the earliest-read, i.e. largest, ValidFrom).  A newly
    read tuple strictly contains some earlier tuple iff it strictly
    contains the state tuple.
    """

    operator = "contain-semijoin[X,X][TSv,TEv]"

    def __init__(self, x: TupleStream) -> None:
        super().__init__(x)
        self._require_order(x, (so.TS_TE_DESC,), "X")
        self.state = self.new_workspace("state")

    def _execute(self) -> Iterator[TemporalTuple]:
        first = self.x.advance()
        if first is None:
            return
        self.state.insert(first)
        while True:
            x_buf = self.x.advance()
            if x_buf is None:
                return
            x_s = self.state.peek()
            if x_s is None:
                raise ProcessorStateError(
                    f"{self.operator}: state tuple vanished mid-scan"
                )
            self.note_comparison()
            if contains_lifespan(x_buf, x_s):
                yield x_buf
            if ends_strictly_before(x_buf, x_s):
                self.state.replace(x_buf)
            elif x_buf.valid_from == x_s.valid_from:
                # Secondary descending sort gives x_buf.TE <= x_s.TE;
                # with equal endpoints either tuple serves equally.
                self.state.replace(x_buf)


class SelfContainSemijoin(StreamProcessor):
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
    x_disposal = Disposal("valid_to", "valid_from")

    def __init__(self, x: TupleStream) -> None:
        super().__init__(x)
        self._require_order(x, (so.TS_ASC,), "X")
        self.state = self.new_workspace("candidates")

    def _execute(self) -> Iterator[TemporalTuple]:
        while True:
            x_buf = self.x.advance()
            if x_buf is None:
                return
            self.state.evict(self.x_disposal, x_buf)
            state = self.state.items
            self.metrics.comparisons += len(state)
            matched = [c for c in state if contains_lifespan(c, x_buf)]
            for candidate in matched:
                self.state.remove(candidate)
                yield candidate
            self.state.insert(x_buf)
