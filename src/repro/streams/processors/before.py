"""Before-join and Before-semijoin (Section 4.2.4).

``Before-join(X, Y)`` pairs ``x`` with ``y`` whenever ``X.TE < Y.TS``
(Allen's *before*: a gap separates the lifespans).  The paper's
findings, which these implementations make measurable:

* **No sort order bounds the join's state.**  Once an X tuple has ended
  before the current sweep position it matches *every* later Y tuple,
  so a single-pass stream implementation must retain it until Y is
  exhausted (:class:`BeforeJoinSweep` demonstrates the Theta(|X|)
  state growth).
* **Sorting still helps nested loops**: with the inner stream sorted on
  ValidFrom descending, the inner scan can stop at the first
  non-matching tuple instead of reading the inner relation in its
  entirety (:class:`BeforeJoinSortedInner`).
* **The semijoin is trivial**: ``x`` has a later Y iff
  ``x.TE < max(Y.TS)``, so one scan of Y (computing the maximum
  ValidFrom) followed by one scan of X answers Before-semijoin with two
  buffers and no sort requirement at all
  (:class:`BeforeSemijoin`).
"""

from __future__ import annotations

from typing import Iterator, Optional

from ...model import sortorder as so
from ...model.interval import (
    Disposal,
    ends_before,
    ends_before_start,
    starts_after,
)
from ...model.tuples import TemporalTuple
from .base import StreamProcessor
from .baseline import before_predicate
from .sweep import SymmetricSweepJoin


class BeforeJoinSweep(SymmetricSweepJoin):
    """Single-pass Before-join over two ValidFrom-ascending streams.

    Correct, but deliberately illustrative of the paper's negative
    result: an X state tuple is disposable only when Y is exhausted, so
    the workspace high-water mark grows linearly with |X|.  Y tuples
    never need to be stored (an X tuple consumed later can only start
    later, never end before an already-seen Y starts... unless streams
    are consumed unevenly, which the min-key policy avoids; Y state
    tuples are therefore retained only while the X buffer could still
    precede them).
    """

    operator = "before-join[TS^,TS^]"
    x_order, y_order = so.TS_ASC, so.TS_ASC
    match = staticmethod(ends_before_start)
    # An ended X tuple matches every later-starting Y tuple: no
    # criterion can ever retire it while Y still flows.
    x_disposal = None
    # A Y state tuple is useful only if a future X can end before its
    # start; future X start at or after x_b.TS and span at least one
    # timepoint.
    y_disposal = Disposal("valid_from", "valid_from")


class BeforeJoinSortedInner(StreamProcessor):
    """Nested-loop Before-join with early termination on a sorted inner
    stream (the paper: "with proper sort orders, nested-loop join can
    avoid scanning the inner relation in its entirety").

    The inner (Y) stream must be sorted on ValidFrom *descending*: for
    each outer tuple the scan emits matches until the first Y tuple
    with ``Y.TS <= x.TE`` and then stops — every subsequent Y starts no
    later and cannot match either.
    """

    operator = "before-join[nested,TSv-inner]"
    y_order = so.TS_DESC

    def _execute(self) -> Iterator[tuple[TemporalTuple, TemporalTuple]]:
        while True:
            outer = self.x.advance()
            if outer is None:
                return
            self.y.restart()
            while True:
                inner = self.y.advance()
                if inner is None:
                    break
                self.note_comparison()
                if before_predicate(outer, inner):
                    yield (outer, inner)
                else:
                    break  # early termination: no later Y can match


class BeforeSemijoin(StreamProcessor):
    """Before-semijoin(X, Y): emit the X tuples that end strictly
    before some Y tuple starts.

    One scan of Y establishes ``max(Y.TS)``; one scan of X filters with
    ``X.TE < max(Y.TS)``.  The workspace is a single running maximum —
    independent of sort orders, exactly as Section 4.2.4 claims.
    """

    operator = "before-semijoin"
    #: The row's listing in Tables 1-3; no order is required.
    x_order, y_order = so.TS_ASC, so.TS_ASC
    order_free = True

    def _execute(self) -> Iterator[TemporalTuple]:
        latest_start: Optional[int] = None
        for y_tuple in self.y.drain():
            self.note_comparison()
            if latest_start is None or starts_after(y_tuple, latest_start):
                latest_start = y_tuple.valid_from
        if latest_start is None:
            return
        for x_tuple in self.x.drain():
            self.note_comparison()
            if ends_before(x_tuple, latest_start):
                yield x_tuple
