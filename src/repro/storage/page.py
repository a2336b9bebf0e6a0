"""Simulated disk pages.

A :class:`Page` is a fixed-capacity container of records.  There is no
byte-level serialization — the simulation cares about *counts* (how many
pages a scan touches), not encodings — but each page does carry a real
checksum over its records so that corruption is *detectable* — a
:class:`~repro.errors.PageCorruptionError` — not silently returned to
the executor.
"""

from __future__ import annotations

from zlib import crc32
from typing import Any, Iterator, Sequence

from ..errors import PageCorruptionError, StorageError

#: Default number of records per simulated page.  Small enough that
#: modest relations span many pages, which keeps page-count differences
#: between plans visible in benchmarks.
DEFAULT_PAGE_CAPACITY = 32

#: CRC of an empty page (seed value for the incremental update).
_EMPTY_CRC = 0


def _record_crc(record: Any, running: int) -> int:
    return crc32(repr(record).encode("utf-8", "replace"), running)


class Page:
    """A fixed-capacity slotted page of records."""

    __slots__ = ("page_id", "capacity", "_records", "_checksum")

    def __init__(self, page_id: int, capacity: int = DEFAULT_PAGE_CAPACITY):
        if capacity < 1:
            raise StorageError("page capacity must be positive")
        self.page_id = page_id
        self.capacity = capacity
        self._records: list[Any] = []
        self._checksum: int = _EMPTY_CRC

    @property
    def records(self) -> Sequence[Any]:
        return tuple(self._records)

    @property
    def is_full(self) -> bool:
        return len(self._records) >= self.capacity

    @property
    def checksum(self) -> int:
        """The stored checksum, maintained incrementally on append."""
        return self._checksum

    def append(self, record: Any) -> None:
        if self.is_full:
            raise StorageError(
                f"page {self.page_id} is full ({self.capacity} records)"
            )
        self._records.append(record)
        self._checksum = _record_crc(record, self._checksum)

    def compute_checksum(self) -> int:
        """Recompute the checksum from the records actually present."""
        running = _EMPTY_CRC
        for record in self._records:
            running = _record_crc(record, running)
        return running

    def verify(self) -> None:
        """Compare the stored checksum against the records.

        Raises :class:`~repro.errors.PageCorruptionError` on mismatch —
        the scan-side half of the append-time checksum contract.
        """
        if self.compute_checksum() != self._checksum:
            raise PageCorruptionError(
                f"page {self.page_id} failed checksum verification "
                f"({len(self._records)} records)"
            )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Page(id={self.page_id}, {len(self)}/{self.capacity})"
