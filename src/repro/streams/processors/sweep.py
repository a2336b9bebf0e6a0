"""The symmetric sweep skeleton shared by the binary stream joins.

The Contain-join and Overlap-join algorithms of Sections 4.2.1 and
4.2.4 share one shape:

1. *Read phase* — choose an input stream (via an
   :class:`~repro.streams.policies.AdvancePolicy`) and consume its
   buffered tuple;
2. *Join phase* — probe the consumed tuple against the opposite state
   space, emitting every pair that satisfies the join condition;
3. copy the consumed tuple into its own state space (it may join with
   tuples not yet read from the opposite stream);
4. *Garbage-collection phase* — evict state tuples that the
   operator-specific safety criteria prove can never match a future
   tuple of the opposite stream.

Correctness is independent of the advancement policy: only tuples that
provably cannot participate in further results are evicted, and a pair
is emitted exactly once — when the second of its two tuples is
consumed.  The policy (and the sort orders) determine how large the
state spaces grow, which is exactly the trade-off Table 1 describes.
"""

from __future__ import annotations

import abc
from typing import Iterator, Optional

from ...errors import ProcessorStateError
from ...model.interval import Disposal, bulk_forms, disposable_at
from ...model.sortorder import SortOrder
from ...model.tuples import TemporalTuple
from ..policies import AdvancePolicy, LambdaPolicy, MinKeyPolicy, X, Y
from ..stream import TupleStream
from .base import StreamProcessor, sweep_key


class SymmetricSweepJoin(StreamProcessor):
    """Base class for two-stream sweep joins with per-side GC rules.

    Subclasses configure:

    * :attr:`x_order` / :attr:`y_order` — each stream's sort order,
      whose primary endpoint is its monotone sweep key (TS for
      ValidFrom-sorted streams, TE for ValidTo-sorted ones);
    * :meth:`match` — the join condition;
    * :attr:`x_disposal` — the declared rule retiring an X state tuple
      that can match neither the current Y buffer nor anything after it
      (``None``: no such rule exists);
    * :attr:`y_disposal` — symmetric, against the X buffer.
    """

    x_order: SortOrder
    y_order: SortOrder
    x_disposal: Optional[Disposal]
    y_disposal: Optional[Disposal]

    def __init__(
        self,
        x: TupleStream,
        y: Optional[TupleStream] = None,
        policy: Optional[AdvancePolicy] = None,
    ) -> None:
        super().__init__(x, y)
        self.policy = policy or MinKeyPolicy(
            sweep_key(self.x_order), sweep_key(self.y_order)
        )
        self.x_state = self.new_workspace("x-state")
        self.y_state = self.new_workspace("y-state")

    @abc.abstractmethod
    def match(self, x_tuple: TemporalTuple, y_tuple: TemporalTuple) -> bool:
        """The join condition."""

    @classmethod
    def lambda_policy(
        cls, inter_arrival_x: float, inter_arrival_y: float
    ) -> LambdaPolicy:
        """The paper's 1/lambda advancement heuristic instantiated for
        this operator's declared disposal rules: advancing one stream
        moves its sweep key, which each rule's bound names, forward."""
        x_rule, y_rule = cls.x_disposal, cls.y_disposal
        return LambdaPolicy(
            inter_arrival_x,
            inter_arrival_y,
            sweep_key(cls.x_order),
            sweep_key(cls.y_order),
            y_disposable_if_x_advances=(
                lambda y_tup, next_x: disposable_at(y_tup, y_rule, next_x)
            ),
            x_disposable_if_y_advances=(
                lambda x_tup, next_y: disposable_at(x_tup, x_rule, next_y)
            ),
        )

    # ------------------------------------------------------------------
    # the sweep
    # ------------------------------------------------------------------
    def _execute(self) -> Iterator[tuple[TemporalTuple, TemporalTuple]]:
        # The probe filters a whole state list through ``match``'s bulk
        # forms: X state tuples are its first argument, Y its second.
        x_held, y_held = bulk_forms(self.match)
        metrics = self.metrics
        self.x.advance()
        self.y.advance()
        while True:
            x_buf = self.x.buffer
            y_buf = self.y.buffer
            # Early termination (Section 4.2.1 step 5): once a stream is
            # exhausted and its state is empty, nothing the other stream
            # still holds can produce output.
            if x_buf is None and not self.x_state:
                return
            if y_buf is None and not self.y_state:
                return
            if x_buf is None and y_buf is None:
                return
            if x_buf is None:
                side = Y
            elif y_buf is None:
                side = X
            else:
                side = self.policy.choose(
                    x_buf, y_buf, self.x_state, self.y_state
                )

            if side == X:
                consumed = x_buf
                if consumed is None:
                    raise ProcessorStateError(
                        f"{self.operator}: policy chose X with no X buffer"
                    )
                # The join phase probes every state tuple: one charge
                # per candidate, made once; pairs leave in state order.
                state = self.y_state.items
                metrics.comparisons += len(state)
                for candidate in y_held(consumed, state):
                    yield (consumed, candidate)
                # A consumed tuple joins future opposite tuples only if
                # the opposite stream can still produce any.
                if not self.y.exhausted:
                    self.x_state.insert(consumed)
                self.x.advance()
            else:
                consumed = y_buf
                if consumed is None:
                    raise ProcessorStateError(
                        f"{self.operator}: policy chose Y with no Y buffer"
                    )
                state = self.x_state.items
                metrics.comparisons += len(state)
                for candidate in x_held(state, consumed):
                    yield (candidate, consumed)
                if not self.x.exhausted:
                    self.y_state.insert(consumed)
                self.y.advance()

            self._garbage_collect(side)

    def _garbage_collect(self, consumed: str) -> None:
        """Step 3 of the Section-4.2.1 algorithm, after consuming from
        side ``consumed``.  Each state is disposed of against the
        opposite buffer.  The consumed side's opposite buffer has not
        moved since the last pass left only survivors against it, so of
        that state only the tuple just inserted needs the check; the
        other state, whose bound did move, gets the full pass."""
        y_buf = self.y.buffer
        if y_buf is not None:
            if consumed == X:
                self.x_state.evict_newest(self.x_disposal, y_buf)
            else:
                self.x_state.evict(self.x_disposal, y_buf)
        elif self.y.exhausted:
            self.x_state.clear()
        x_buf = self.x.buffer
        if x_buf is not None:
            if consumed == Y:
                self.y_state.evict_newest(self.y_disposal, x_buf)
            else:
                self.y_state.evict(self.y_disposal, x_buf)
        elif self.x.exhausted:
            self.y_state.clear()
