"""Unit tests for pages and heap files."""

import pytest

from repro.errors import StorageError
from repro.model import TemporalTuple
from repro.obs.trace import Tracer, set_tracer
from repro.storage import HeapFile, IOStats, Page


def tuples(n, start=0):
    return [TemporalTuple(f"s{i}", i, start + i, start + i + 5) for i in range(n)]


class TestPage:
    def test_capacity_enforced(self):
        page = Page(0, capacity=2)
        page.append("a")
        page.append("b")
        assert page.is_full
        with pytest.raises(StorageError):
            page.append("c")

    def test_bad_capacity(self):
        with pytest.raises(StorageError):
            Page(0, capacity=0)

    def test_iteration_order(self):
        page = Page(0, capacity=4)
        for item in "abc":
            page.append(item)
        assert list(page) == ["a", "b", "c"]
        assert len(page) == 3


class TestHeapFile:
    def test_append_allocates_pages(self):
        f = HeapFile("t", page_capacity=4)
        f.extend(tuples(10))
        assert f.num_pages == 3
        assert f.num_records == 10

    def test_from_records_resets_load_cost(self):
        f = HeapFile.from_records("t", tuples(10), page_capacity=4)
        assert f.stats.page_writes == 0
        assert f.stats.tuple_writes == 0

    def test_scan_returns_insertion_order(self):
        data = tuples(10)
        f = HeapFile.from_records("t", data, page_capacity=4)
        assert list(f.scan()) == data

    def test_scan_charges_io(self):
        f = HeapFile.from_records("t", tuples(10), page_capacity=4)
        list(f.scan())
        assert f.stats.page_reads == 3
        assert f.stats.tuple_reads == 10
        assert f.stats.scans_started == 1

    def test_scan_with_external_stats(self):
        f = HeapFile.from_records("t", tuples(8), page_capacity=4)
        external = IOStats()
        list(f.scan(stats=external))
        assert external.page_reads == 2
        assert f.stats.page_reads == 0

    def test_repeated_scans_accumulate(self):
        f = HeapFile.from_records("t", tuples(8), page_capacity=4)
        list(f.scan())
        list(f.scan())
        assert f.stats.scans_started == 2
        assert f.stats.page_reads == 4

    def test_records_is_free(self):
        f = HeapFile.from_records("t", tuples(8), page_capacity=4)
        assert f.records() == tuples(8)
        assert f.stats.page_reads == 0

    def test_empty_file(self):
        f = HeapFile("empty")
        assert f.num_pages == 0
        assert list(f.scan()) == []


class TestPageReadEvents:
    """Under ``Tracer(io_events=True)`` every page charged to
    ``HeapFile.stats`` is one ``page.read`` event naming that page."""

    def read_traced(self, io_events, read):
        f = HeapFile.from_records("t", tuples(10), page_capacity=4)
        tracer = Tracer("io", io_events=io_events)
        previous = set_tracer(tracer)
        try:
            with tracer.span("read") as span:
                read(f)
        finally:
            set_tracer(previous)
        pages = [
            event["attributes"]["page"]
            for event in span.events
            if event["name"] == "page.read"
            and event["attributes"]["file"] == "t"
        ]
        return f, pages

    def test_scan_emits_one_event_per_page_read(self):
        f, pages = self.read_traced(True, lambda f: list(f.scan()))
        assert f.stats.page_reads == 3
        assert pages == [0, 1, 2]

    def test_page_emits_one_event_per_fetch(self):
        f, pages = self.read_traced(
            True, lambda f: [f.page(i) for i in (2, 0, 2)]
        )
        assert f.stats.page_reads == 3
        assert pages == [2, 0, 2]

    def test_no_events_when_io_events_is_off(self):
        def read(f):
            list(f.scan())
            f.page(1)

        f, pages = self.read_traced(False, read)
        assert f.stats.page_reads == 4
        assert pages == []


class TestIOStats:
    def test_snapshot_and_delta(self):
        stats = IOStats()
        stats.record_page_read(3)
        before = stats.snapshot()
        stats.record_page_read(2)
        stats.record_tuple_read(7)
        delta = stats.delta_since(before)
        assert delta.page_reads == 2
        assert delta.tuple_reads == 7

    def test_total_page_io(self):
        stats = IOStats(page_reads=3, page_writes=4)
        assert stats.total_page_io == 7

    def test_reset(self):
        stats = IOStats(page_reads=3)
        stats.reset()
        assert stats.page_reads == 0
