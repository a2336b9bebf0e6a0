"""Simulated storage substrate: pages, heap files and external sort,
all instrumented with I/O counters so query plans can be compared by
disk accesses and passes over streams."""

from .external_sort import ExternalSortResult, external_sort
from .heap_file import HeapFile
from .iostats import IOStats
from .page import DEFAULT_PAGE_CAPACITY, Page

__all__ = [
    "DEFAULT_PAGE_CAPACITY",
    "ExternalSortResult",
    "HeapFile",
    "IOStats",
    "Page",
    "external_sort",
]
