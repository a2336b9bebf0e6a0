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
  buffers* (state class (d) of Table 1).

* With both inputs on ValidFrom ascending, bounded state suffices
  (state class (c)): the workspace holds only tuples whose lifespans
  span the opposite buffer's ValidFrom, shrinking further because
  matched tuples leave immediately.
"""

from __future__ import annotations

from typing import Iterator

from ...errors import ProcessorStateError
from ...model import sortorder as so
from ...model.interval import (
    Disposal,
    contains_lifespan,
    ends_strictly_before,
    starts_no_later,
    starts_strictly_before,
)
from ...model.tuples import TemporalTuple
from ..stream import TupleStream
from .base import StreamProcessor


class ContainSemijoinTsTe(StreamProcessor):
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
    """

    operator = "contain-semijoin[TS^,TE^]"

    def __init__(self, x: TupleStream, y: TupleStream) -> None:
        super().__init__(x, y)
        self._require_order(x, (so.TS_ASC,), "X")
        self._require_order(y, (so.TE_ASC,), "Y")

    def _execute(self) -> Iterator[TemporalTuple]:
        if self.y is None:
            raise ProcessorStateError(f"{self.operator} needs a Y stream")
        self.x.advance()
        self.y.advance()
        while self.x.buffer is not None:
            x_buf = self.x.buffer
            y_buf = self.y.buffer
            if y_buf is None:
                # Every skipped Y tuple was provably useless for all
                # future X tuples; with Y exhausted nothing remains.
                return
            self.note_comparison()
            if starts_no_later(y_buf, x_buf):
                self.y.advance()
            elif ends_strictly_before(y_buf, x_buf):
                yield x_buf
                self.x.advance()
            else:
                self.x.advance()


class ContainedSemijoinTeTs(StreamProcessor):
    """Figure 6 with the roles swapped: Contained-semijoin(X, Y) with X
    on ValidTo ascending and Y on ValidFrom ascending — one buffer per
    stream (the (d) entry in Table 1's ValidTo^/ValidFrom^ row).

    Each X tuple is emitted when strictly inside the buffered Y tuple;
    an X tuple starting no later than the buffered (and every future) Y
    tuple can never be contained and is dropped.
    """

    operator = "contained-semijoin[TE^,TS^]"

    def __init__(self, x: TupleStream, y: TupleStream) -> None:
        super().__init__(x, y)
        self._require_order(x, (so.TE_ASC,), "X")
        self._require_order(y, (so.TS_ASC,), "Y")

    def _execute(self) -> Iterator[TemporalTuple]:
        if self.y is None:
            raise ProcessorStateError(f"{self.operator} needs a Y stream")
        self.x.advance()
        self.y.advance()
        while self.y.buffer is not None:
            y_buf = self.y.buffer
            x_buf = self.x.buffer
            if x_buf is None:
                return
            self.note_comparison()
            if starts_no_later(x_buf, y_buf):
                # No current or future Y starts strictly before x_b.
                self.x.advance()
            elif ends_strictly_before(x_buf, y_buf):
                yield x_buf
                self.x.advance()
            else:
                # x_b.TE >= y_b.TE: not inside y_b, but a later Y (with
                # a larger lifespan end) may still contain it.
                self.y.advance()


class ContainSemijoinTsTs(StreamProcessor):
    """Contain-semijoin(X, Y) with both inputs on ValidFrom ascending —
    bounded state (class (c) of Table 1).

    The sweep consumes tuples in global ValidFrom order.  X tuples wait
    in the workspace until a Y tuple strictly inside them arrives (then
    they are emitted and leave) or until ``X.TE <= y_b.TS`` proves no
    future Y can be inside them.  Y tuples need never be stored: a Y
    tuple consumed at sweep position ``y.TS <= x_b.TS`` cannot lie
    strictly inside any future X tuple.
    """

    operator = "contain-semijoin[TS^,TS^]"
    x_disposal = Disposal("valid_to", "valid_from")

    def __init__(self, x: TupleStream, y: TupleStream) -> None:
        super().__init__(x, y)
        self._require_order(x, (so.TS_ASC,), "X")
        self._require_order(y, (so.TS_ASC,), "Y")
        self.x_state = self.new_workspace("x-state")

    def _execute(self) -> Iterator[TemporalTuple]:
        if self.y is None:
            raise ProcessorStateError(f"{self.operator} needs a Y stream")
        self.x.advance()
        self.y.advance()
        while True:
            x_buf = self.x.buffer
            y_buf = self.y.buffer
            if y_buf is None:
                # No further Y: pending and future X tuples all fail.
                return
            if x_buf is None and not self.x_state:
                # X is exhausted and every candidate is decided.
                return
            if x_buf is not None and starts_no_later(x_buf, y_buf):
                self.x_state.insert(x_buf)
                self.x.advance()
            else:
                state = self.x_state.items
                self.metrics.comparisons += len(state)
                matched = [
                    c for c in state if contains_lifespan(c, y_buf)
                ]
                for candidate in matched:
                    self.x_state.remove(candidate)
                    yield candidate
                self.y.advance()
            y_buf = self.y.buffer
            if y_buf is not None:
                self.x_state.evict(self.x_disposal, y_buf)


class ContainedSemijoinTsTs(StreamProcessor):
    """Contained-semijoin(X, Y) with both inputs on ValidFrom ascending
    — bounded state (class (c)).

    Y tuples wait in the workspace while their lifespan spans the X
    buffer's ValidFrom (``Y.TE > x_b.TS``); each X tuple is decided the
    moment it is consumed, because the sweep guarantees every Y tuple
    starting strictly before it has already been seen.
    """

    operator = "contained-semijoin[TS^,TS^]"
    y_disposal = Disposal("valid_to", "valid_from")

    def __init__(self, x: TupleStream, y: TupleStream) -> None:
        super().__init__(x, y)
        self._require_order(x, (so.TS_ASC,), "X")
        self._require_order(y, (so.TS_ASC,), "Y")
        self.y_state = self.new_workspace("y-state")

    def _execute(self) -> Iterator[TemporalTuple]:
        if self.y is None:
            raise ProcessorStateError(f"{self.operator} needs a Y stream")
        self.x.advance()
        self.y.advance()
        while True:
            x_buf = self.x.buffer
            y_buf = self.y.buffer
            if x_buf is None:
                # Remaining Y tuples cannot contain anything still
                # undecided.
                return
            if y_buf is not None and starts_strictly_before(y_buf, x_buf):
                self.y_state.insert(y_buf)
                self.y.advance()
                continue
            # Decide x_b now: every Y starting strictly before it has
            # been consumed into the state (or safely evicted).
            for candidate in self.y_state:
                self.note_comparison()
                if contains_lifespan(candidate, x_buf):
                    yield x_buf
                    break
            self.x.advance()
            x_buf = self.x.buffer
            if x_buf is not None:
                self.y_state.evict(self.y_disposal, x_buf)
