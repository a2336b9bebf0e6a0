"""Heap files — the on-'disk' representation of relations and runs.

A :class:`HeapFile` is an append-only sequence of pages.  Scans count
page and tuple reads against the file's :class:`~repro.storage.iostats.
IOStats` (or a caller-provided one), which is how benchmarks observe
"the relation was scanned three times" for conventional plans versus
"once" for stream plans.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from ..governance.budget import active_token
from ..obs.trace import get_tracer
from .iostats import IOStats
from .page import DEFAULT_PAGE_CAPACITY, Page


class HeapFile:
    """An append-only paged file of records."""

    def __init__(
        self,
        name: str,
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
        stats: Optional[IOStats] = None,
    ) -> None:
        self.name = name
        self.page_capacity = page_capacity
        self.stats = stats if stats is not None else IOStats()
        self._pages: list[Page] = []

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: Any) -> None:
        """Append one record, allocating (and 'writing') pages as they
        fill."""
        if not self._pages or self._pages[-1].is_full:
            self._pages.append(
                Page(len(self._pages), capacity=self.page_capacity)
            )
            self.stats.record_page_write()
        self._pages[-1].append(record)
        self.stats.record_tuple_write()

    def extend(self, records: Iterable[Any]) -> None:
        for record in records:
            self.append(record)

    @classmethod
    def from_records(
        cls,
        name: str,
        records: Iterable[Any],
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
        stats: Optional[IOStats] = None,
    ) -> "HeapFile":
        """Bulk-load a file; the load traffic is then cleared so the
        file starts with zero counters (load cost is not query cost)."""
        f = cls(name, page_capacity=page_capacity, stats=stats)
        f.extend(records)
        f.stats.reset()
        return f

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def num_records(self) -> int:
        return sum(len(p) for p in self._pages)

    def page(self, index: int, stats: Optional[IOStats] = None) -> Page:
        """Fetch one page, charging a page read and verifying its
        checksum, so corruption surfaces at read time as
        :class:`~repro.errors.PageCorruptionError` instead of as
        silently wrong answers."""
        (stats or self.stats).record_page_read()
        token = active_token()
        if token is not None:
            # Governance checkpoint: every physical page read charges
            # the page budget and observes deadline/cancellation, so a
            # blown deadline surfaces within one page of work.
            token.charge_pages(1)
        tracer = get_tracer()
        if tracer.io_events:
            tracer.event("page.read", file=self.name, page=index)
        page = self._pages[index]
        page.verify()
        return page

    def scan(self, stats: Optional[IOStats] = None) -> Iterator[Any]:
        """Full sequential scan; charges one page read per page and one
        tuple read per record, plus a scan-started event.  Each page is
        checksum-verified as it is fetched."""
        accounting = stats or self.stats
        accounting.record_scan()
        tracer = get_tracer()
        token = active_token()
        for index, page in enumerate(self._pages):
            accounting.record_page_read()
            if token is not None:
                token.charge_pages(1)
            if tracer.io_events:
                tracer.event("page.read", file=self.name, page=index)
            page.verify()
            for record in page:
                accounting.record_tuple_read()
                yield record

    def records(self) -> list[Any]:
        """All records *without* charging I/O (for tests/assertions)."""
        return [record for page in self._pages for record in page]

    def __len__(self) -> int:
        return self.num_records

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HeapFile({self.name!r}, {self.num_records} records on "
            f"{self.num_pages} pages)"
        )
