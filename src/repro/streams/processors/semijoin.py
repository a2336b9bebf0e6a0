"""The three semijoin drivers (Sections 4.2.2-4.2.4, Figure 6,
Tables 1-3).

A semijoin can emit an X tuple as soon as one witness is found, so the
paper's semijoin algorithms are cheaper than the joins' symmetric sweep
(:mod:`.sweep`).  They come in three shapes, one driver each.  A cell's
processor declares its operand orders, its ``match`` comparator — the
semijoin condition asked of ``(x, y)``, one of
:mod:`repro.model.interval`'s — and only what its shape varies:

* :class:`TwoBufferMerge` — nothing is stored beyond the two input
  buffers (state classes (b) and (d)); the ``y_advances`` test;
* :class:`HeldSideSweep` — one side's tuples wait in a workspace until
  the other side's tuples probe them (state class (c), Table 3 (b));
  the ``held`` side, its ``inserts`` test, its declared ``Disposal``
  (``x_disposal`` or ``y_disposal``) and whether eviction also runs
  after an insert;
* :class:`RunningExtremum` — one state tuple, the extremum of the
  tuples read so far (Table 3 (a)); the ``replaced_by`` comparator.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ...model.interval import Disposal, bulk_forms
from ...model.tuples import TemporalTuple
from ..policies import X
from ..stream import TupleStream
from .base import StreamProcessor

Comparator = Callable[[TemporalTuple, TemporalTuple], bool]


class TwoBufferMerge(StreamProcessor):
    """Decide each buffered pair ``(x_b, y_b)`` with one comparison:

    * ``match(x_b, y_b)`` — ``x_b`` is emitted and X advances; ``y_b``
      stays buffered, as it may witness later X tuples too;
    * else ``y_advances(y_b, x_b)`` — the sort orders prove ``y_b``
      useless for ``x_b`` and every later X tuple, so Y advances;
    * else no current or future Y tuple matches ``x_b``: it is dropped
      and X advances.

    The merge ends when either stream runs dry.
    """

    match: Comparator
    y_advances: Comparator

    def _execute(self) -> Iterator[TemporalTuple]:
        x, y = self.x, self.y
        match, y_advances = self.match, self.y_advances
        x.advance()
        y.advance()
        while True:
            x_buf, y_buf = x.buffer, y.buffer
            if x_buf is None or y_buf is None:
                return
            self.note_comparison()
            if match(x_buf, y_buf):
                yield x_buf
                x.advance()
            elif y_advances(y_buf, x_buf):
                y.advance()
            else:
                x.advance()


class HeldSideSweep(StreamProcessor):
    """Hold one side's tuples until the other side's tuples probe them.

    While ``inserts(held_b, probe_b)`` holds for the two buffers, the
    held side's buffer joins the workspace; otherwise the probe side's
    buffer is consumed and probed against every held tuple.  Held X
    tuples are the output, so each one the probe matches is emitted and
    leaves (one comparison per held tuple); a held Y tuple only
    witnesses, so the probing X tuple is emitted at the first match
    (one comparison per held tuple visited).  Over one stream — a self
    semijoin — each tuple probes the held ones and is then held itself.

    After every probe, and after every insert too when
    ``evicts_after_insert``, the held side's declared ``Disposal``
    retires in one pass the held tuples it proves useless against the
    probe side's new buffer.  The sweep ends when the probe side runs
    dry, or when the held side has and nothing is held.
    """

    held: str
    inserts: Comparator
    evicts_after_insert = False

    def __init__(
        self, x: TupleStream, y: Optional[TupleStream] = None
    ) -> None:
        super().__init__(x, y)
        self.state = self.new_workspace(f"{self.held}-state")

    def _execute(self) -> Iterator[TemporalTuple]:
        held_x = self.held == X
        held, probe = (self.x, self.y) if held_x else (self.y, self.x)
        if probe is None:  # a self semijoin: X is both sides
            probe = held
        rule: Disposal = self.x_disposal if held_x else self.y_disposal
        state, match, metrics = self.state, self.match, self.metrics
        held_first = bulk_forms(match).held_first
        held.advance()
        if probe is not held:
            probe.advance()
        while True:
            held_b, probe_b = held.buffer, probe.buffer
            if probe_b is None or (held_b is None and not state):
                return
            if (
                probe is not held
                and held_b is not None
                and self.inserts(held_b, probe_b)
            ):
                state.insert(held_b)
                held.advance()
                if not self.evicts_after_insert:
                    continue
            else:
                if held_x:
                    candidates = state.items
                    metrics.comparisons += len(candidates)
                    for candidate in held_first(candidates, probe_b):
                        state.remove(candidate)
                        yield candidate
                else:
                    for candidate in state:
                        metrics.comparisons += 1
                        if match(probe_b, candidate):
                            yield probe_b
                            break
                if probe is held:
                    state.insert(probe_b)
                probe.advance()
            probe_b = probe.buffer
            if probe_b is not None:
                state.evict(rule, probe_b)


class RunningExtremum(StreamProcessor):
    """One scan with one state tuple: the extremum of the tuples read so
    far, kept such that a new tuple matches *some* earlier tuple iff it
    matches the state.  Every tuple after the first is emitted when
    ``match(x_b, state)`` holds and becomes the state when
    ``replaced_by(state, x_b)`` does."""

    replaced_by: Comparator

    def __init__(
        self, x: TupleStream, y: Optional[TupleStream] = None
    ) -> None:
        super().__init__(x, y)
        self.state = self.new_workspace("state")

    def _execute(self) -> Iterator[TemporalTuple]:
        match, replaced_by = self.match, self.replaced_by
        x_s = self.x.advance()
        if x_s is None:
            return
        self.state.insert(x_s)
        for x_buf in iter(self.x.advance, None):
            self.note_comparison()
            if match(x_buf, x_s):
                yield x_buf
            if replaced_by(x_s, x_buf):
                self.state.replace(x_buf)
                x_s = x_buf
