"""Shared-memory segments for the zero-copy shard runtime.

The sweep kernels read immutable sorted endpoint columns — exactly the
shape ``multiprocessing.shared_memory`` serves for free.  The parent
publishes the ``IntervalColumns`` endpoint arrays of both operands into
one segment; workers map it read-only and run kernels directly on
``memoryview`` slices, so no ``TemporalTuple`` payload ever crosses the
process boundary.  Shard outputs come back the same way: each worker
writes its result as ``array('q')`` index offsets into a small result
segment whose name the parent assigned up front, which lets the parent
unlink every segment it handed out even when a worker crashed before
producing anything.

Naming is deterministic (``repro-<pid>-<counter>-<tag>``) so replays
hold and no ambient randomness is needed; collisions with stale
segments from a dead process are resolved by advancing the counter.

CPython < 3.13 registers *every* ``SharedMemory`` — attached ones
included — with the resource tracker (bpo-38119).  Spawned pool
workers inherit the parent's tracker fd, so all registrations land in
one shared name-set: attach-time re-registration is an idempotent
no-op there, and the single ``unlink()`` per name (always performed by
the parent) removes it.  Nothing must *unregister* a name it did not
unlink — that would strip the parent's claim and leave the tracker
complaining about the later legitimate unlink.
"""

from __future__ import annotations

import itertools
import os
import zlib
from array import array
from multiprocessing import shared_memory
from typing import List, Optional, Sequence, Tuple

from ..governance.budget import active_token

_ITEM = 8  # bytes per int64 column element
_COUNTER = itertools.count()

#: Result-segment encodings (header word 0).
RESULT_SEMI = 0  # one index column (semijoin / before-semijoin)
RESULT_PAIRS = 1  # two parallel index columns (join pairs)
RESULT_SELF = 2  # one owner-filtered global index column (Table 3)

#: kind, len(first), len(second), x_base, y_base, payload crc32
_HEADER_ITEMS = 6


class SegmentIntegrityError(RuntimeError):
    """A result segment's payload does not match its stored checksum.
    A worker writes its segment before it replies, so a torn write
    means a dead worker; a summary whose segment still fails the check
    means shared memory itself is not to be trusted.  Deliberately
    *not* a :class:`~repro.errors.ReproError`: the executor treats it
    as a pool failure and runs the join inline, visibly."""


def segment_name(tag: str) -> str:
    """A fresh deterministic segment name for this process."""
    return f"repro-{os.getpid()}-{next(_COUNTER)}-{tag}"


def create_segment(size: int, tag: str) -> shared_memory.SharedMemory:
    """Create a fresh segment, advancing the name counter past any
    stale segment left by a crashed previous process."""
    while True:
        try:
            return shared_memory.SharedMemory(
                name=segment_name(tag), create=True, size=max(size, _ITEM)
            )
        except FileExistsError:
            continue


def destroy_segment(name: str) -> None:
    """Best-effort unlink of a segment this process handed out.

    Safe to call for segments that were never created (a worker crashed
    first) or already reaped — both are simply gone.
    """
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    except ValueError:
        # A worker killed between creating its segment and sizing it
        # (a broken pool terminates every worker) leaves an empty one,
        # which cannot be mapped, so it is unlinked by name.
        import _posixshmem

        _posixshmem.shm_unlink(f"/{name}")
        return
    try:
        segment.close()
        # Parent-side sweep of a parent-owned name: destroy_segment
        # only ever runs in the parent, reclaiming the result segments
        # it assigned (a worker that died or was killed mid-write left
        # no handle), so this is creator-unlink in disguise.
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - unlink race
        pass


# ----------------------------------------------------------------------
# operand segments (parent writes, workers read)
# ----------------------------------------------------------------------
class ColumnSegment:
    """One segment holding concatenated int64 endpoint columns.

    The parent keeps the handle open for the whole batch (workers map
    the same pages) and unlinks it in ``close()``; column boundaries
    travel to workers as plain ``(offset, length)`` pairs in the task
    dicts, so the segment itself needs no header.
    """

    def __init__(self, columns: Sequence[Sequence[int]], tag: str = "ops"):
        self.lengths: List[int] = [len(column) for column in columns]
        self.offsets: List[int] = []
        offset = 0
        for length in self.lengths:
            self.offsets.append(offset)
            offset += length
        token = active_token()
        if token is not None:
            # Governance checkpoint: operand publication is where a
            # parallel query claims its shared memory, so the shm-byte
            # budget is charged before the segment is created.
            token.charge_shm(offset * _ITEM)
        self.segment = create_segment(offset * _ITEM, tag)
        self.name = self.segment.name
        view = self.segment.buf
        for column, start in zip(columns, self.offsets):
            if len(column):
                data = column if isinstance(column, array) else array("q", column)
                view[start * _ITEM : (start + len(column)) * _ITEM] = memoryview(
                    data
                ).cast("B")

    def close(self) -> None:
        """Release and unlink; idempotent."""
        if self.segment is None:
            return
        try:
            self.segment.close()
            self.segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass
        self.segment = None


class MappedColumns:
    """Worker-side read-only mapping of a :class:`ColumnSegment`.

    ``view(offset, length)`` hands out int64 ``memoryview`` slices; all
    exported views must be released before the segment can close, so
    use this as a context manager.
    """

    def __init__(self, name: str):
        self.segment = shared_memory.SharedMemory(name=name)
        self._cast = self.segment.buf.cast("q")
        self._views: List[memoryview] = [self._cast]

    def view(self, offset: int, length: int) -> memoryview:
        sliced = self._cast[offset : offset + length]
        self._views.append(sliced)
        return sliced

    def __enter__(self) -> "MappedColumns":
        return self

    def __exit__(self, *exc_info) -> None:
        for view in self._views:
            view.release()
        self._views.clear()
        self.segment.close()


# ----------------------------------------------------------------------
# result segments (worker writes, parent reads and unlinks)
# ----------------------------------------------------------------------
def write_result(
    name: str,
    kind: int,
    first: array,
    second: Optional[array] = None,
    x_base: int = 0,
    y_base: int = 0,
) -> None:
    """Create the parent-assigned result segment and fill it with the
    shard's index arrays.  ``x_base``/``y_base`` are the offsets the
    parent must add to map the positions back to global column indexes
    (zero when the arrays already hold global indexes).  The worker
    only closes its mapping: the parent reaps the segment (or sweeps
    it after a crash)."""
    second = second if second is not None else array("q")
    size = (_HEADER_ITEMS + len(first) + len(second)) * _ITEM
    token = active_token()
    if token is not None:
        token.charge_shm(size)
    # No unlink here by design: the segment name is parent-assigned
    # and the parent reaps it (read_result) or sweeps it after a
    # crash — the worker unlinking would race the parent's read.
    segment = shared_memory.SharedMemory(name=name, create=True, size=size)
    try:
        crc = 0
        for column in (first, second):
            if len(column):
                crc = zlib.crc32(memoryview(column).cast("B"), crc)
        header = array(
            "q", [kind, len(first), len(second), x_base, y_base, crc]
        )
        view = segment.buf
        view[: _HEADER_ITEMS * _ITEM] = memoryview(header).cast("B")
        offset = _HEADER_ITEMS * _ITEM
        for column in (first, second):
            if len(column):
                nbytes = len(column) * _ITEM
                view[offset : offset + nbytes] = memoryview(column).cast("B")
                offset += nbytes
    finally:
        segment.close()


def read_result(name: str) -> Tuple[int, array, array, int, int]:
    """Copy a result segment out of shared memory and unlink it.

    Returns ``(kind, first, second, x_base, y_base)``; the copies are
    straight ``frombytes`` memcpys, never element loops.  The payload
    is verified against the header's crc32 — a mismatch raises
    :class:`SegmentIntegrityError` (after unlinking: a corrupt segment
    must not linger in ``/dev/shm``).
    """
    segment = shared_memory.SharedMemory(name=name)
    try:
        view = segment.buf
        cast = view.cast("q")
        try:
            kind = cast[0]
            first_len, second_len = cast[1], cast[2]
            x_base, y_base = cast[3], cast[4]
            stored_crc = cast[5]
        finally:
            cast.release()
        first, second = array("q"), array("q")
        start = _HEADER_ITEMS * _ITEM
        first.frombytes(view[start : start + first_len * _ITEM])
        start += first_len * _ITEM
        second.frombytes(view[start : start + second_len * _ITEM])
    finally:
        segment.close()
    try:
        # read_result runs in the parent, reclaiming the name the
        # parent itself assigned at dispatch time: the attach-never-
        # unlinks rule is about *worker*-side attaches.
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - unlink race
        pass
    crc = 0
    for column in (first, second):
        if len(column):
            crc = zlib.crc32(memoryview(column).cast("B"), crc)
    if crc != stored_crc:
        raise SegmentIntegrityError(
            f"result segment {name} failed its checksum "
            f"(stored {stored_crc:#x}, computed {crc:#x})"
        )
    token = active_token()
    if token is not None:
        token.charge_shm(
            (_HEADER_ITEMS + first_len + second_len) * _ITEM
        )
    return kind, first, second, x_base, y_base
