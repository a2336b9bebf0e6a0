"""I/O accounting for the simulated storage layer.

The paper's third stream-processing tradeoff is "multiple passes over
input streams (i.e. the number of disk accesses)".  Every storage
component threads an :class:`IOStats` object so benchmarks can report
page reads/writes and scan counts instead of guessing from wall-clock
time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IOStats:
    """Mutable counters for simulated disk traffic."""

    page_reads: int = 0
    page_writes: int = 0
    tuple_reads: int = 0
    tuple_writes: int = 0
    scans_started: int = 0

    def record_page_read(self, count: int = 1) -> None:
        self.page_reads += count

    def record_page_write(self, count: int = 1) -> None:
        self.page_writes += count

    def record_tuple_read(self, count: int = 1) -> None:
        self.tuple_reads += count

    def record_tuple_write(self, count: int = 1) -> None:
        self.tuple_writes += count

    def record_scan(self) -> None:
        self.scans_started += 1

    @property
    def total_page_io(self) -> int:
        """Pages moved in either direction."""
        return self.page_reads + self.page_writes

    def snapshot(self) -> "IOStats":
        """An immutable-by-convention copy of the current counters."""
        return IOStats(
            page_reads=self.page_reads,
            page_writes=self.page_writes,
            tuple_reads=self.tuple_reads,
            tuple_writes=self.tuple_writes,
            scans_started=self.scans_started,
        )

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        """Counter differences relative to an earlier snapshot."""
        return IOStats(
            page_reads=self.page_reads - earlier.page_reads,
            page_writes=self.page_writes - earlier.page_writes,
            tuple_reads=self.tuple_reads - earlier.tuple_reads,
            tuple_writes=self.tuple_writes - earlier.tuple_writes,
            scans_started=self.scans_started - earlier.scans_started,
        )

    def reset(self) -> None:
        self.page_reads = 0
        self.page_writes = 0
        self.tuple_reads = 0
        self.tuple_writes = 0
        self.scans_started = 0
