"""Unit tests for workspace accounting."""

import pytest

from repro.errors import WorkspaceStateError
from repro.model import TemporalTuple
from repro.model.interval import Disposal
from repro.streams import Workspace, WorkspaceMeter, WorkspaceReport

#: The Section-4.2.1 X-side rule: held ``TE <= buffer.TS``.
ENDED = Disposal("valid_to", "valid_from")


def ending(end):
    return TemporalTuple("s", end, end - 1, end)


def starting(start):
    return TemporalTuple("b", start, start, start + 1)


class TestWorkspace:
    def test_insert_and_len(self):
        ws = Workspace()
        ws.insert("a")
        ws.insert("b")
        assert len(ws) == 2
        assert list(ws) == ["a", "b"]
        assert bool(ws)

    def test_high_water_tracks_peak(self):
        ws = Workspace()
        for end in (1, 2, 3):
            ws.insert(ending(end))
        ws.evict(ENDED, starting(2))
        ws.insert(ending(4))
        assert len(ws) == 2
        assert ws.high_water == 3

    def test_evict_counts(self):
        ws = Workspace()
        for end in range(1, 6):
            ws.insert(ending(end))
        # Ties dispose: the tuple ending exactly at the buffer's start
        # is over under the half-open convention.
        assert ws.evict(ENDED, starting(3)) == 3
        assert [t.valid_to for t in ws] == [4, 5]
        assert ws.total_discarded == 3

    def test_evict_by_start(self):
        ws = Workspace()
        for start in range(4):
            ws.insert(TemporalTuple("s", start, start, 10))
        assert ws.evict(Disposal("valid_from", "valid_from"), starting(1)) == 2
        assert [t.valid_from for t in ws] == [2, 3]

    def test_never_rule_evicts_nothing(self):
        ws = Workspace()
        ws.insert(ending(1))
        assert ws.evict(None, starting(5)) == 0
        assert len(ws) == 1

    def test_remove_specific(self):
        ws = Workspace()
        ws.insert("a")
        ws.insert("b")
        ws.remove("a")
        assert list(ws) == ["b"]

    def test_clear(self):
        ws = Workspace()
        ws.insert("a")
        assert ws.clear() == 1
        assert not ws

    def test_replace_keeps_one(self):
        ws = Workspace()
        ws.replace("a")
        ws.replace("b")
        assert list(ws) == ["b"]
        assert ws.high_water == 1
        assert ws.peek() == "b"

    def test_peek_empty(self):
        assert Workspace().peek() is None


class TestRemoveIdentity:
    """Regression: ``remove`` used ``list.remove``, which (a) raised a
    bare ``ValueError`` for absent items and (b) removed the *first
    equal* item — so with duplicate rows (equal ``TemporalTuple``
    objects are common in real relations) the wrong state tuple could be
    retired and the accounting corrupted."""

    def test_remove_absent_raises_descriptive_error(self):
        ws = Workspace("x-state")
        ws.insert("a")
        with pytest.raises(WorkspaceStateError, match="x-state"):
            ws.remove("zzz")
        # The failed removal must not touch the accounting.
        assert ws.total_discarded == 0
        assert len(ws) == 1

    def test_duplicates_removed_by_identity(self):
        first = TemporalTuple("s", "v", 0, 10)
        second = TemporalTuple("s", "v", 0, 10)
        assert first == second and first is not second
        ws = Workspace()
        ws.insert(first)
        ws.insert(second)
        ws.remove(second)
        assert len(ws) == 1
        assert next(iter(ws)) is first  # not merely equal: the same one

    def test_each_duplicate_retires_exactly_once(self):
        dup = [TemporalTuple("s", "v", 0, 10) for _ in range(3)]
        meter = WorkspaceMeter()
        ws = Workspace(meter=meter)
        for t in dup:
            ws.insert(t)
        for t in dup:
            ws.remove(t)
        assert len(ws) == 0
        assert meter.total_discarded == 3
        assert meter.current == 0
        # Removing one of them again is now a state error.
        ws.insert(dup[0])
        ws.remove(dup[0])
        with pytest.raises(WorkspaceStateError):
            ws.remove(dup[0])


class TestWorkspaceMeter:
    def test_joint_high_water(self):
        meter = WorkspaceMeter()
        a = Workspace("a", meter=meter)
        b = Workspace("b", meter=meter)
        a.insert(1)
        b.insert(2)
        b.insert(3)
        a.clear()
        b.insert(4)
        # Peak was 3 (1 in a, 2 in b); after evicting a and adding to b
        # the current is 3 again but never exceeded 3.
        assert meter.high_water == 3
        assert meter.current == 3
        assert meter.total_inserted == 4
        assert meter.total_discarded == 1

    def test_report_snapshot(self):
        meter = WorkspaceMeter()
        ws = Workspace(meter=meter)
        ws.insert(1)
        ws.insert(2)
        ws.remove(1)
        report = WorkspaceReport.from_meter(meter)
        assert report.high_water == 2
        assert report.residual == 1
        assert report.total_inserted == 2
        assert report.total_discarded == 1
