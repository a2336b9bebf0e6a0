"""Endpoint-event encoding and ordering for the fused sweep backend.

The fused kernels in :mod:`repro.columnar.fused` run each Table-1/2/3
cell as **one** endpoint-event sweep: both operands' ``(TS, TE)``
columns are merged into a single event ordering, and the workspace is a
dense ``array('q')`` slot store whose packed keys *are* end-point
events ordered by the cell's disposal rule.  This module owns the two
encodings and the tie-rank law they share.

**Entry keys** (the slot store).  A live interval is one machine word::

    key = (disposal_endpoint << IDX_BITS) | column_index

ordered first by the endpoint the cell's Section-4.2 garbage-collection
rule watches (``ValidTo`` for every contain/overlap cell: state dies
once ``ValidTo <= buffer.ValidFrom``), then by column index.  Python
ints shift arithmetically, so the packing stays order-preserving for
the negated endpoints the time-reversal mirrors feed in.  With the
store sorted on this key, *eviction* is one ranged prefix delete below
:func:`disposal_bound` and *probing* is one binary search — no
probe-scan compaction, no dict.

**Schedule events** (the merged ordering).  The sweep consumes three
event kinds, and at a shared timestamp ``t`` the closed-open interval
semantics of Section 4.2 (``[ValidFrom, ValidTo)``) force one order:

* ``RANK_EVICT`` — an interval ending at ``t`` is already dead for a
  buffer whose ``ValidFrom`` is ``t`` (disposal is
  ``ValidTo <= buffer.ValidFrom``): *end events fire first*;
* ``RANK_PROBE`` — the buffer element itself is matched against the
  surviving state;
* ``RANK_START`` — an interval starting at ``t`` does not strictly
  contain (or precede) a probe starting at the same instant, so *start
  events fire last* and stay invisible to the equal-time probe.

:func:`merged_schedule` materialises that ordering explicitly; the
fused kernels realise the same order implicitly with their two-pointer
merge plus the equal-timestamp holdback, and the hypothesis tests in
``tests/columnar/test_fused.py`` pin the two against each other.
"""

from __future__ import annotations

from array import array
from typing import Sequence

#: Bits reserved for the column index in packed entry keys and events.
#: Bounds relation size at 2**21 (~2M rows) per operand, and leaves the
#: disposal endpoint the other 42 bits of a signed ``array('q')`` word:
#: ``-2**42 <= endpoint < 2**42``.  :func:`check_capacity` guards both
#: edges explicitly.
IDX_BITS = 21
IDX_MASK = (1 << IDX_BITS) - 1
ENDPOINT_LIMIT = 1 << (63 - IDX_BITS)

#: Tie ranks at a shared timestamp (see the module docstring): the
#: closed-open disposal rule orders evictions before probes before
#: starts.
RANK_EVICT = 0
RANK_PROBE = 1
RANK_START = 2
RANK_BITS = 2

#: Operand tags inside packed schedule events.
SIDE_X = 0
SIDE_Y = 1
SIDE_BITS = 1


def packing_fits(n: int, lo: int = 0, hi: int = 0) -> bool:
    """Whether ``n`` rows with endpoints in ``[lo, hi]`` pack into
    slot-store words: the index into :data:`IDX_BITS` bits, the
    shifted endpoint into what a signed 64-bit word has left."""
    return n <= IDX_MASK and -ENDPOINT_LIMIT <= lo and hi < ENDPOINT_LIMIT


def check_capacity(n: int, lo: int = 0, hi: int = 0) -> None:
    """Refuse, before the sweep, an operand the packed keys cannot
    hold (a key that does not fit would otherwise surface mid-sweep as
    a raw ``OverflowError`` from the slot array)."""
    if not packing_fits(n, lo, hi):
        raise ValueError(
            f"fused backend packs column indexes into {IDX_BITS} bits "
            f"(max {IDX_MASK} rows per operand) and endpoints into "
            f"[-2**{63 - IDX_BITS}, 2**{63 - IDX_BITS}); got {n} rows "
            f"spanning [{lo}, {hi}]"
        )


def check_stored(ts: Sequence[int], te: Sequence[int]) -> None:
    """:func:`check_capacity` for the operand a kernel stores, read off
    its endpoint columns (``TS < TE`` row-wise, so the span is
    ``[min TS, max TE]``)."""
    if len(ts):
        check_capacity(len(ts), min(ts), max(te))


# ----------------------------------------------------------------------
# entry keys: the slot store's packed (disposal endpoint, index) words
# ----------------------------------------------------------------------
def pack_entry(endpoint: int, index: int) -> int:
    """One slot-store word: disposal endpoint in the high bits, column
    index in the low bits."""
    return (endpoint << IDX_BITS) | index


def entry_index(key: int) -> int:
    """The column index packed into an entry key."""
    return key & IDX_MASK


def entry_endpoint(key: int) -> int:
    """The disposal endpoint packed into an entry key."""
    return key >> IDX_BITS


def disposal_bound(t: int) -> int:
    """The largest packed key any entry with ``endpoint <= t`` can
    have: ``bisect_right(store, disposal_bound(t))`` is exactly the
    count of entries the Section-4.2 rule disposes at sweep point
    ``t`` (``ValidTo <= t``), and the suffix above it is exactly the
    entries with ``endpoint > t``."""
    return (t << IDX_BITS) | IDX_MASK


# ----------------------------------------------------------------------
# schedule events: the merged, tie-ranked endpoint-event ordering
# ----------------------------------------------------------------------
def pack_event(t: int, rank: int, side: int, index: int) -> int:
    """One merged-schedule event word, ordered by
    ``(t, rank, side, index)``."""
    return (
        ((((t << RANK_BITS) | rank) << SIDE_BITS) | side) << IDX_BITS
    ) | index


def event_time(event: int) -> int:
    return event >> (RANK_BITS + SIDE_BITS + IDX_BITS)


def event_rank(event: int) -> int:
    return (event >> (SIDE_BITS + IDX_BITS)) & ((1 << RANK_BITS) - 1)


def event_side(event: int) -> int:
    return (event >> IDX_BITS) & ((1 << SIDE_BITS) - 1)


def event_index(event: int) -> int:
    return event & IDX_MASK


def merged_schedule(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    probes: Sequence[int],
    probe_side: int = SIDE_Y,
) -> array:
    """Both operands' endpoint columns merged into the single event
    ordering the fused sweep consumes.

    X contributes a ``RANK_START`` event at each ``ValidFrom`` and a
    ``RANK_EVICT`` event at each ``ValidTo``; the probe column (the
    buffered operand's sweep key) contributes ``RANK_PROBE`` events.
    Sorting the packed words realises the Section-4.2 tie law: at a
    shared timestamp, disposals fire before the probe, and equal-time
    starts stay invisible to it.
    """
    check_capacity(len(x_ts))
    check_capacity(len(probes))
    events = array("q")
    append = events.append
    for i, t in enumerate(x_ts):
        append(pack_event(t, RANK_START, SIDE_X, i))
    for i, t in enumerate(x_te):
        append(pack_event(t, RANK_EVICT, SIDE_X, i))
    for j, t in enumerate(probes):
        append(pack_event(t, RANK_PROBE, probe_side, j))
    return array("q", sorted(events))
