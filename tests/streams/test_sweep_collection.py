"""The symmetric sweep's incremental garbage collection against the full
pass it replaces.

After consuming side S, :class:`SymmetricSweepJoin` re-checks S's own
state only for the tuple it just inserted: that state is bounded by the
opposite buffer, which has not moved since the last pass left only
survivors against it.  The reference below runs the full ``surviving``
pass on both states every step, as the sweep did before; every cell
must read the same output, trace and counts from both.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import TemporalTuple
from repro.streams import contain_predicate
from repro.streams.processors import (
    BeforeJoinSweep,
    ContainJoinTsTe,
    ContainJoinTsTs,
    OverlapJoin,
    UnboundedStateJoin,
)

from .conftest import make_stream


class FullPass:
    """The sweep's collection as a full pass over both states."""

    def _garbage_collect(self, consumed: str) -> None:
        y_buf = self.y.buffer
        if y_buf is not None:
            self.x_state.evict(self.x_disposal, y_buf)
        elif self.y.exhausted:
            self.x_state.clear()
        x_buf = self.x.buffer
        if x_buf is not None:
            self.y_state.evict(self.y_disposal, x_buf)
        elif self.x.exhausted:
            self.y_state.clear()


CELLS = [
    ContainJoinTsTs,
    ContainJoinTsTe,
    OverlapJoin,
    BeforeJoinSweep,
    UnboundedStateJoin,
]

REFERENCE = {
    cls: type(f"FullPass{cls.__name__}", (FullPass, cls), {})
    for cls in CELLS
}

#: Spans on a seven-point grid: endpoints tie across and within sides.
tie_heavy_spans = st.lists(
    st.tuples(st.integers(0, 6), st.integers(1, 3)), max_size=14
)


def _run(cls, xs, ys, inter_arrivals):
    x = make_stream(xs, cls.x_order, name="X")
    y = make_stream(ys, cls.y_order, name="Y")
    extra = (contain_predicate,) if issubclass(cls, UnboundedStateJoin) else ()
    processor = cls(x, y, *extra)
    if inter_arrivals is not None:
        processor.policy = cls.lambda_policy(*inter_arrivals)
    processor.meter.enable_trace()
    out = processor.run()
    workspace = processor.metrics.workspace
    return (
        [(a.surrogate, b.surrogate) for a, b in out],
        processor.meter.trace,
        processor.metrics.comparisons,
        workspace.total_inserted,
        workspace.total_discarded,
        workspace.high_water,
    )


@pytest.mark.parametrize("cls", CELLS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize(
    "inter_arrivals",
    [None, (1.0, 1.0), (3.0, 1.5), (0.5, 2.0)],
    ids=["min-key", "lambda-1-1", "lambda-3-1.5", "lambda-0.5-2"],
)
@settings(max_examples=60, deadline=None)
@given(x_spans=tie_heavy_spans, y_spans=tie_heavy_spans)
def test_incremental_collection_is_the_full_pass(
    cls, inter_arrivals, x_spans, y_spans
):
    xs = [TemporalTuple(i, i, ts, ts + d) for i, (ts, d) in enumerate(x_spans)]
    ys = [TemporalTuple(i, i, ts, ts + d) for i, (ts, d) in enumerate(y_spans)]
    assert _run(cls, xs, ys, inter_arrivals) == _run(
        REFERENCE[cls], xs, ys, inter_arrivals
    )
