"""The merged endpoint-event ordering the batch sweeps realise.

The slot-store kernels in :mod:`repro.columnar.kernels` run each
Table-1/2/3 cell as **one** endpoint-event sweep: both operands'
``(TS, TE)`` columns are merged into a single event ordering.  This module states
that ordering explicitly — as packed, sortable event words — so the
hypothesis tests in ``tests/columnar/test_fused.py`` can replay it with
a naive active set and pin the kernels against it.  Nothing on the
query path packs anything: the kernels' slot store is two plain
columns (disposal endpoints, row positions), and they realise this
order implicitly with a two-pointer merge plus the equal-timestamp
holdback.

The sweep consumes three event kinds, and at a shared timestamp ``t``
the closed-open interval semantics of Section 4.2
(``[ValidFrom, ValidTo)``) force one order:

* ``RANK_EVICT`` — an interval ending at ``t`` is already dead for a
  buffer whose ``ValidFrom`` is ``t`` (disposal is
  ``ValidTo <= buffer.ValidFrom``): *end events fire first*;
* ``RANK_PROBE`` — the buffer element itself is matched against the
  surviving state;
* ``RANK_START`` — an interval starting at ``t`` does not strictly
  contain (or precede) a probe starting at the same instant, so *start
  events fire last* and stay invisible to the equal-time probe.

:func:`merged_schedule` materialises that ordering.
"""

from __future__ import annotations

from array import array
from typing import Sequence

#: Bits reserved for the column index in a packed schedule event:
#: :func:`merged_schedule` takes at most 2**21 - 1 rows per operand
#: (:func:`check_capacity`).
IDX_BITS = 21
IDX_MASK = (1 << IDX_BITS) - 1

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


def check_capacity(n: int) -> None:
    """Refuse a column whose indexes do not fit a schedule event."""
    if n > IDX_MASK:
        raise ValueError(
            f"the merged schedule packs column indexes into {IDX_BITS} "
            f"bits (max {IDX_MASK} rows per operand); got {n} rows"
        )


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
    ordering the batch sweep consumes.

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
