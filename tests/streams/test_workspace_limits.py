"""Tests for bounded workspaces — the Section-4.1 trade-off triangle:
local workspace vs sort order vs passes."""

import pytest

from repro.errors import WorkspaceOverflowError
from repro.model import TE_ASC, TS_ASC, TemporalTuple
from repro.model.interval import Disposal
from repro.streams import (
    ContainJoinTsTs,
    ContainSemijoinTsTe,
    UnboundedStateJoin,
    Workspace,
    WorkspaceMeter,
    contain_predicate,
)

from .conftest import make_stream


def staircase(n, step=10, duration=8, tag="x", offset=0):
    return [
        TemporalTuple(
            f"{tag}{i}", i, step * i + offset, step * i + offset + duration
        )
        for i in range(n)
    ]


class TestWorkspaceLimit:
    def test_limit_enforced(self):
        meter = WorkspaceMeter(limit=3)
        ws = Workspace(meter=meter)
        for i in range(3):
            ws.insert(i)
        with pytest.raises(WorkspaceOverflowError):
            ws.insert(99)

    def test_eviction_frees_budget(self):
        meter = WorkspaceMeter(limit=2)
        ws = Workspace(meter=meter)
        ws.insert(TemporalTuple("a", 1, 0, 1))
        ws.insert(TemporalTuple("b", 2, 0, 2))
        ended = Disposal("valid_to", "valid_from")
        ws.evict(ended, TemporalTuple("y", 0, 1, 2))
        ws.insert(TemporalTuple("c", 3, 0, 3))  # fits again
        assert len(ws) == 2

    def test_no_limit_by_default(self):
        ws = Workspace()
        for i in range(10_000):
            ws.insert(i)
        assert len(ws) == 10_000


class TestBudgetedOperators:
    """The paper's point, made executable: under a fixed memory budget
    the appropriate sort order succeeds where the GC-free approach
    cannot."""

    def budgeted(self, processor, budget):
        processor.meter.limit = budget
        return processor

    def test_bounded_algorithm_fits_small_budget(self):
        xs = staircase(300, tag="x")
        ys = staircase(300, duration=4, tag="y", offset=2)
        join = self.budgeted(
            ContainJoinTsTs(
                make_stream(xs, TS_ASC, "X"), make_stream(ys, TS_ASC, "Y")
            ),
            budget=8,
        )
        out = join.run()  # no overflow
        assert len(out) > 0

    def test_unbounded_approach_overflows_same_budget(self):
        xs = staircase(300, tag="x")
        ys = staircase(300, duration=4, tag="y", offset=2)
        join = self.budgeted(
            UnboundedStateJoin(
                make_stream(xs, TS_ASC, "X"),
                make_stream(ys, TS_ASC, "Y"),
                contain_predicate,
            ),
            budget=8,
        )
        with pytest.raises(WorkspaceOverflowError):
            join.run()

    def test_zero_state_semijoin_fits_zero_budget(self):
        xs = staircase(100, duration=9, tag="x")
        ys = staircase(100, duration=4, tag="y", offset=2)
        semi = self.budgeted(
            ContainSemijoinTsTe(
                make_stream(xs, TS_ASC, "X"), make_stream(ys, TE_ASC, "Y")
            ),
            budget=0,
        )
        semi.run()  # buffers only — never touches the state budget
