"""Merge-based stream joins for the equality-bearing Allen operators.

Footnote 8 of the paper: "For non-inequality constraints, an obvious
stream processing method appears to be sorting both relations on
attributes that are involved in the equalities followed by a
conventional merge-join (and perhaps combined with filtering using
inequality constraints)."

This module carries that out for the Figure-2 operators whose explicit
constraints contain an equality:

* :class:`EqualJoin` — ``X.TS = Y.TS and X.TE = Y.TE``; both inputs on
  (ValidFrom^, ValidTo^), merged on the full (TS, TE) key;
* :class:`MeetsJoin` — ``X.TE = Y.TS``; X on ValidTo^, Y on
  ValidFrom^, merged on X.TE vs Y.TS;
* :class:`StartsJoin` — ``X.TS = Y.TS and X.TE < Y.TE``; both on
  ValidFrom^, merged on TS with the inequality as a residual filter;
* :class:`FinishesJoin` — ``X.TE = Y.TE and X.TS > Y.TS``; both on
  ValidTo^, merged on TE with the residual filter.

The inverse operators are obtained by swapping the operands at the call
site (``met-by(X, Y) == meets(Y, X)`` with the pair transposed).

All four share :class:`EndpointMergeJoin`: a classic sort-merge join on
one endpoint per side, buffering same-key groups (the merge join's
usual workspace) and applying a residual predicate to each pair.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ...model import sortorder as so
from ...model.interval import ends_strictly_before, starts_strictly_before
from ...model.tuples import TemporalTuple
from ..stream import TupleStream
from .base import StreamProcessor, sweep_key

Residual = Callable[[TemporalTuple, TemporalTuple], bool]


class EndpointMergeJoin(StreamProcessor):
    """Sort-merge join on one endpoint per stream — each stream's sweep
    key, the primary endpoint of its declared order — with a
    ``residual`` join condition evaluated over each same-key pair."""

    operator = "endpoint-merge-join"
    x_order: so.SortOrder
    y_order: so.SortOrder
    residual: Optional[Residual] = None

    def __init__(
        self, x: TupleStream, y: Optional[TupleStream] = None
    ) -> None:
        super().__init__(x, y)
        self._x_key = sweep_key(self.x_order)
        self._y_key = sweep_key(self.y_order)
        self.x_group = self.new_workspace("x-group")
        self.y_group = self.new_workspace("y-group")

    def _execute(self) -> Iterator[tuple[TemporalTuple, TemporalTuple]]:
        self.x.advance()
        self.y.advance()
        while self.x.buffer is not None and self.y.buffer is not None:
            x_val = self._x_key(self.x.buffer)
            y_val = self._y_key(self.y.buffer)
            self.note_comparison()
            if x_val < y_val:
                self.x.advance()
            elif y_val < x_val:
                self.y.advance()
            else:
                yield from self._join_groups(x_val)

    def _join_groups(
        self, key: int
    ) -> Iterator[tuple[TemporalTuple, TemporalTuple]]:
        while (
            self.x.buffer is not None and self._x_key(self.x.buffer) == key
        ):
            self.x_group.insert(self.x.buffer)
            self.x.advance()
        while (
            self.y.buffer is not None and self._y_key(self.y.buffer) == key
        ):
            self.y_group.insert(self.y.buffer)
            self.y.advance()
        for x_tuple in self.x_group:
            for y_tuple in self.y_group:
                self.note_comparison()
                if self.residual is None or self.residual(x_tuple, y_tuple):
                    yield (x_tuple, y_tuple)
        self.x_group.clear()
        self.y_group.clear()


class EqualJoin(EndpointMergeJoin):
    """``X equal Y``: identical lifespans.  Merging on ValidFrom with
    the ValidTo equality as residual needs both inputs on
    (ValidFrom^, ValidTo^) so equal-start groups are contiguous."""

    operator = "equal-join[TS^TE^,TS^TE^]"
    x_order, y_order = so.TS_TE_ASC, so.TS_TE_ASC
    residual = staticmethod(lambda a, b: a.valid_to == b.valid_to)


class MeetsJoin(EndpointMergeJoin):
    """``X meets Y``: ``X.TE = Y.TS``.  X on ValidTo^, Y on
    ValidFrom^."""

    operator = "meets-join[TE^,TS^]"
    x_order, y_order = so.TE_ASC, so.TS_ASC


class StartsJoin(EndpointMergeJoin):
    """``X starts Y``: shared start, X ends strictly earlier.  Both on
    ValidFrom^, inequality filtered per pair."""

    operator = "starts-join[TS^,TS^]"
    x_order, y_order = so.TS_ASC, so.TS_ASC
    residual = staticmethod(ends_strictly_before)


class FinishesJoin(EndpointMergeJoin):
    """``X finishes Y``: shared end, X starts strictly later.  Both on
    ValidTo^."""

    operator = "finishes-join[TE^,TE^]"
    x_order, y_order = so.TE_ASC, so.TE_ASC
    residual = staticmethod(lambda a, b: starts_strictly_before(b, a))
