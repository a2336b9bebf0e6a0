"""Storage-layer hardening: page checksums and stream restart
semantics."""

import pytest

from repro.errors import PageCorruptionError, StreamOrderError
from repro.model import TemporalTuple
from repro.model.sortorder import TS_ASC
from repro.resilience import RecoveryPolicy
from repro.resilience.executor import execute_entry
from repro.storage import HeapFile
from repro.storage.page import Page
from repro.streams import TupleStream
from repro.streams.registry import TemporalOperator, lookup


def tuples(n, start=0):
    return [TemporalTuple(f"s{i}", i, i, i + 2) for i in range(start, start + n)]


class TestPageChecksums:
    def test_append_maintains_checksum_incrementally(self):
        page = Page(0, capacity=8)
        for tup in tuples(5):
            page.append(tup)
            assert page.checksum == page.compute_checksum()
        page.verify()  # clean page verifies silently

    def test_tampering_detected_on_scan(self):
        f = HeapFile.from_records("victim", tuples(10), page_capacity=4)
        f._pages[1]._records[0] = TemporalTuple("evil", 99, 0, 1)
        with pytest.raises(PageCorruptionError):
            list(f.scan())

    def test_tampering_detected_on_page_fetch(self):
        f = HeapFile.from_records("victim", tuples(10), page_capacity=4)
        f._pages[2]._records.pop()
        f.page(0)  # untouched pages still verify
        with pytest.raises(PageCorruptionError):
            f.page(2)

    @pytest.mark.parametrize("policy", list(RecoveryPolicy))
    def test_corrupt_page_is_typed_under_every_policy(self, policy):
        """No recovery rung absorbs a corrupt page: a cell whose operand
        is read off it raises the typed error whatever its policy."""
        f = HeapFile.from_records("victim", tuples(10), page_capacity=4)
        f._pages[1]._records[0] = TemporalTuple("evil", 99, 0, 1)
        entry = lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)
        with pytest.raises(PageCorruptionError):
            execute_entry(entry, f.scan(), tuples(3), policy=policy)


class TestStreamRestart:
    def test_restart_resets_order_verification(self):
        """A fresh pass re-checks ordering from its own first tuple;
        the last tuple of pass N must not be compared against the
        first tuple of pass N+1."""
        data = tuples(5)  # ascending: any rewind jumps backwards
        stream = TupleStream.from_tuples(data, order=TS_ASC)
        assert list(stream.drain()) == data
        stream.restart()
        assert list(stream.drain()) == data  # no StreamOrderError
        assert stream.passes == 2

    def test_mid_pass_restart_also_resets(self):
        data = tuples(5)
        stream = TupleStream.from_tuples(data, order=TS_ASC)
        stream.advance()
        stream.advance()
        stream.restart()
        assert list(stream.drain()) == data
        assert stream.tuples_read == 2 + len(data)

    def test_violations_within_a_pass_still_raise(self):
        data = [tuples(1)[0], TemporalTuple("late", 9, 9, 11), tuples(1)[0]]
        stream = TupleStream.from_tuples(data, order=TS_ASC)
        with pytest.raises(StreamOrderError):
            list(stream.drain())
