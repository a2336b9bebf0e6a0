"""Nested-loop baselines (the paper's 'conventional approach').

Section 3 observes that conventional systems process less-than joins
with nested loops.  These operators serve two roles here:

* correctness oracles — every stream processor's output is compared
  against the corresponding nested-loop result in the test suite;
* the baseline side of every benchmark, with comparison counts and
  stream passes reported so the stream algorithms' advantage is
  measurable.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ...errors import ProcessorStateError
from ...model.interval import (
    contains_lifespan,
    ends_before_start,
    lifespans_intersect,
)
from ...model.tuples import TemporalTuple
from ..stream import TupleStream
from .base import StreamProcessor

Predicate = Callable[[TemporalTuple, TemporalTuple], bool]


class NestedLoopJoin(StreamProcessor):
    """Tuple-at-a-time nested loop join: for every X tuple, rescan Y.

    The inner stream is restarted per outer tuple, so ``passes_y``
    grows with ``|X|`` — the multiple-scan behaviour stream processing
    avoids.  Works for *any* join predicate and any (or no) sort order.
    """

    operator = "nested-loop-join"

    def __init__(
        self, x: TupleStream, y: TupleStream, predicate: Predicate
    ) -> None:
        super().__init__(x, y)
        self.predicate = predicate

    def _execute(self) -> Iterator[tuple[TemporalTuple, TemporalTuple]]:
        if self.y is None:
            raise ProcessorStateError(f"{self.operator} needs a Y stream")
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
                if self.predicate(outer, inner):
                    yield (outer, inner)


class NestedLoopSemijoin(StreamProcessor):
    """Nested-loop semijoin: emit each X tuple with a matching Y tuple.

    Stops the inner scan at the first match, which is the strongest
    reasonable nested-loop contender for semijoin baselines.
    """

    operator = "nested-loop-semijoin"

    def __init__(
        self, x: TupleStream, y: TupleStream, predicate: Predicate
    ) -> None:
        super().__init__(x, y)
        self.predicate = predicate

    def _execute(self) -> Iterator[TemporalTuple]:
        if self.y is None:
            raise ProcessorStateError(f"{self.operator} needs a Y stream")
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
                if self.predicate(outer, inner):
                    yield outer
                    break


class NestedLoopSelfSemijoin(StreamProcessor):
    """Nested-loop form of semijoin(X, X): each tuple is matched against
    every *other* tuple of the same stream (a tuple never pairs with
    itself, matching the self-semijoin semantics of Section 4.2.3)."""

    operator = "nested-loop-self-semijoin"

    def __init__(self, x: TupleStream, predicate: Predicate) -> None:
        super().__init__(x)
        self.predicate = predicate

    def _execute(self) -> Iterator[TemporalTuple]:
        tuples = list(self.x.drain())
        for i, outer in enumerate(tuples):
            for j, inner in enumerate(tuples):
                if i == j:
                    continue
                self.note_comparison()
                if self.predicate(outer, inner):
                    yield outer
                    break


# ----------------------------------------------------------------------
# predicate library for the temporal operators of Section 4.2
# ----------------------------------------------------------------------
def contain_predicate(x: TemporalTuple, y: TemporalTuple) -> bool:
    """Contain-join(X,Y): the lifespan of X contains that of Y —
    ``X.TS < Y.TS`` and ``Y.TE < X.TE``."""
    return contains_lifespan(x, y)


def contained_predicate(x: TemporalTuple, y: TemporalTuple) -> bool:
    """Contained-semijoin(X,Y) condition: X's lifespan lies strictly
    inside Y's."""
    return contain_predicate(y, x)

def overlap_predicate(x: TemporalTuple, y: TemporalTuple) -> bool:
    """The TQuel general overlap of the Superstar query: the lifespans
    share at least one timepoint."""
    return lifespans_intersect(x, y)


def before_predicate(x: TemporalTuple, y: TemporalTuple) -> bool:
    """Before-join(X,Y): X's lifespan ends before Y's begins, with a
    gap (Allen's *before*: ``X.TE < Y.TS``)."""
    return ends_before_start(x, y)


def same_surrogate(x: TemporalTuple, y: TemporalTuple) -> bool:
    return x.surrogate == y.surrogate


def conjoin(*predicates: Predicate) -> Predicate:
    """AND-combine predicates (e.g. equi-join on surrogate plus a
    temporal condition)."""

    def combined(x: TemporalTuple, y: TemporalTuple) -> bool:
        return all(p(x, y) for p in predicates)

    return combined


# Imported down here because the registry module builds its table from
# the processors, which import the predicates above.
from ..registry import TemporalOperator  # noqa: E402

#: The join predicate of every temporal operator — its correctness
#: semantics, which the nested loop, the spill and the oracles evaluate
#: (what is emitted follows from the operator's own ``shape``).
PREDICATES: dict[TemporalOperator, Predicate] = {
    TemporalOperator.CONTAIN_JOIN: contain_predicate,
    TemporalOperator.CONTAIN_SEMIJOIN: contain_predicate,
    TemporalOperator.CONTAINED_SEMIJOIN: contained_predicate,
    TemporalOperator.OVERLAP_JOIN: overlap_predicate,
    TemporalOperator.OVERLAP_SEMIJOIN: overlap_predicate,
    TemporalOperator.BEFORE_JOIN: before_predicate,
    TemporalOperator.BEFORE_SEMIJOIN: before_predicate,
    TemporalOperator.SELF_CONTAINED_SEMIJOIN: contained_predicate,
    TemporalOperator.SELF_CONTAIN_SEMIJOIN: contain_predicate,
}
