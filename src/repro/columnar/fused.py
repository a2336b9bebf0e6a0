"""Fused endpoint-event sweep kernels (the third backend).

Where :mod:`repro.columnar.kernels` runs each cell as two interleaved
per-operand scans with a probe-scan-compacted active list, the kernels
here sweep the **merged endpoint-event ordering** of
:mod:`repro.columnar.events` once per query and keep the workspace as a
**two-column slot store in disposal order**: a list of the stored
rows' raw disposal endpoints (``ValidTo`` for every contain and overlap
cell) and a parallel list of their column positions.

* **insert** is one ``bisect_right`` on the endpoint column and one
  C-level ``insert`` into each column.  Equal endpoints land in
  insertion order, which is position order because the stored operand
  arrives sorted — the store is ordered by ``(endpoint, position)``
  without either being packed into the other, so any endpoint and any
  operand size fit;
* **evict** is one ranged prefix delete: the Section-4.2 rule
  (``ValidTo <= buffer.ValidFrom``) disposes exactly the entries below
  ``bisect_right(endpoints, buffer.ValidFrom)``, so dead entries leave
  in one ``del`` per column instead of being re-visited by every later
  probe scan;
* **probe** is one binary search: because the merge admits an interval
  only once the sweep has strictly passed its start (the
  ``RANK_START``-last tie law, realised as the equal-timestamp
  holdback), every stored entry already satisfies the start-side match
  condition, and the end-side condition selects a contiguous *run* of
  the store;
* **emit** is a read of that run: the join kernels extend their
  ``(xi, yj)`` index columns with the run's positions (sorted back into
  position order) against the probe repeated — one C-level step per
  run, none per pair, byte-identical in order to the columnar kernels'
  output.

The backend wraps a join's index columns in :class:`LazyPairs`, which
builds payload pairs only when something touches them.

The zero-state (class d, and the class-(b) Overlap-semijoin that
retires each X at its first witness) and one-state (class a1) cells are
already single fused scans in the columnar kernel family — two-pointer
merges with no slot store to restructure — so the cell table in
:mod:`repro.columnar.backend` points their fused column at the
columnar kernel itself; the six are re-exported below so every kernel
name a fused run reports resolves in this module.

Every kernel returns ``(output, SweepStats)`` with the same output and
accounting contract as :mod:`repro.columnar.kernels`; probe/evict
binary searches charge their comparison count logarithmically
(``bit_length`` of the store size per search), which the differential
tests pin from above by the columnar backend's linear-scan counts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import repeat
from sys import maxsize
from typing import List, Optional, Sequence, Tuple

from .kernels import (  # noqa: F401 - the six shared cells, re-exported
    SweepStats,
    _overflow,
    before_semijoin,
    contain_semijoin_ts_te,
    contained_semijoin_te_ts,
    overlap_semijoin_ts_ts,
    self_contain_semijoin_ts_te_desc,
    self_contained_semijoin_ts_te,
)

#: A join kernel's output: parallel ``(xi, yj)`` position columns.
IndexColumns = Tuple[List[int], List[int]]


class LazyPairs(Sequence):
    """The join output of both batch backends: a sequence of payload
    pairs that materialises on first touch.

    ``columns`` is what the kernel returned — its ``(xi, yj)`` index
    columns.  ``len()`` reads their length; indexing, iteration or
    containment triggers one payload gather whose result is cached.
    EXPLAIN and metrics read only ``len()``, and the hybrid executor
    reads only :meth:`index_columns`, so neither pays for payload
    pairs.
    """

    __slots__ = ("_columns", "x_payload", "y_payload", "_pairs")

    def __init__(self, columns: IndexColumns, x_payload, y_payload) -> None:
        self._columns = columns
        #: The *sorted* operands' payload columns, which
        #: :meth:`index_columns` positions point into.
        self.x_payload = x_payload
        self.y_payload = y_payload
        self._pairs: Optional[list] = None

    def __len__(self) -> int:
        return len(self._columns[0])

    @property
    def materialized(self) -> bool:
        return self._pairs is not None

    def index_columns(self) -> IndexColumns:
        """The kernel's own parallel ``(xi, yj)`` columns, one entry
        per output pair in emission order; each is a position into the
        sorted operand (``x_payload[xi[k]]`` pairs with
        ``y_payload[yj[k]]``)."""
        return self._columns

    def _materialise(self) -> list:
        pairs = self._pairs
        if pairs is None:
            xi, yj = self._columns
            pairs = list(
                zip(
                    map(self.x_payload.__getitem__, xi),
                    map(self.y_payload.__getitem__, yj),
                )
            )
            self._pairs = pairs
        return pairs

    def __getitem__(self, index):
        return self._materialise()[index]

    def __iter__(self):
        return iter(self._materialise())

    def __eq__(self, other):
        """Value equality against any pair sequence (materialises):
        the differential suites and the chaos harness compare outputs
        across backends by ``==``."""
        if isinstance(other, LazyPairs):
            other = other._materialise()
        if isinstance(other, (list, tuple)):
            return self._materialise() == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "materialized" if self._pairs is not None else "lazy"
        return f"LazyPairs(n={len(self)}, {state})"


# ----------------------------------------------------------------------
# Table 1 — Contain-join (classes (a) and (b))
# ----------------------------------------------------------------------
def contain_join_ts_ts(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[IndexColumns, SweepStats]:
    """Contain-join(X, Y), both on ValidFrom^, as one fused sweep.

    The slot store holds open X entries in ValidTo order (the class-(a)
    disposal endpoint).  X starts sharing a probe's timestamp are held
    back until the sweep strictly passes them (``RANK_START`` last), so
    every stored entry satisfies ``X.TS < y.TS`` by construction and
    the probe's match set is exactly the store suffix with
    ``X.TE > y.TE`` — one binary search, emitted as one run.
    Held-back entries still count toward the state high-water mark at
    admission, matching the eager backends' accounting.
    """
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    ends: List[int] = []  # stored X: ValidTo, ascending
    rows: List[int] = []  # stored X: column position, parallel to ends
    held: List[int] = []  # admitted X rows starting at ``held_ts``
    held_ts = 0
    xi: List[int] = []
    yj: List[int] = []
    comparisons = eviction_checks = inserted = discarded = high = 0
    i = 0
    for j in range(ny):
        yts = y_ts[j]
        if held and held_ts < yts:
            for row in held:
                xte = x_te[row]
                at = bisect_right(ends, xte)
                ends.insert(at, xte)
                rows.insert(at, row)
            del held[:]
        while i < nx and x_ts[i] <= yts:
            comparisons += 1
            xte = x_te[i]
            if xte > yts:  # skip dead-on-arrival entries
                if x_ts[i] == yts:
                    held.append(i)
                    held_ts = yts
                else:
                    at = bisect_right(ends, xte)
                    ends.insert(at, xte)
                    rows.insert(at, i)
                inserted += 1
                cur = len(rows) + len(held)
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            i += 1
        k = bisect_right(ends, yts)
        eviction_checks += len(rows).bit_length()
        if k:
            del ends[:k]
            del rows[:k]
            discarded += k
            if trace is not None:
                trace.append(len(rows) + len(held))
        cut = bisect_right(ends, y_te[j])
        comparisons += len(rows).bit_length()
        m = len(rows) - cut
        if m:
            xi.extend(sorted(rows[cut:]))
            yj.extend(repeat(j, m))
    discarded += len(rows) + len(held)
    if trace is not None and (rows or held):
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return (xi, yj), stats


def contain_join_ts_te(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[IndexColumns, SweepStats]:
    """Contain-join(X, Y) with X on ValidFrom^ and Y on ValidTo^
    (class (b)), as one fused sweep with a store in each order.

    The disposal rule watches ``X.TE <= y.TE``, while the match set of
    a probe is ``X.TS < y.TS`` — so the store is kept twice: in *start*
    order for probing, and in ValidTo order to identify the disposal
    prefix.  X arrives in ValidFrom order, so the start-ordered pair is
    append-only and ascending in position: an evicted entry is found in
    it by bisecting for its position.  After the ranged eviction every
    stored entry satisfies ``X.TE > y.TE``, so the probe's match set is
    exactly the prefix with ``X.TS < y.TS``: still one binary search
    and one run per probe, already in position order.
    """
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    starts: List[int] = []  # stored X: ValidFrom, ascending (appended)
    rows: List[int] = []  # their positions, parallel and ascending too
    ends: List[int] = []  # stored X: ValidTo, ascending
    end_rows: List[int] = []  # their positions, parallel to ends
    xi: List[int] = []
    yj: List[int] = []
    comparisons = eviction_checks = inserted = discarded = high = 0
    i = 0
    for j in range(ny):
        yte = y_te[j]
        while i < nx and x_ts[i] <= yte:
            comparisons += 1
            xte = x_te[i]
            if xte > yte:  # dead-on-arrival otherwise
                starts.append(x_ts[i])
                rows.append(i)
                at = bisect_right(ends, xte)
                ends.insert(at, xte)
                end_rows.insert(at, i)
                inserted += 1
                cur = len(rows)
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            i += 1
        k = bisect_right(ends, yte)
        eviction_checks += len(rows).bit_length()
        if k:
            for row in end_rows[:k]:
                at = bisect_left(rows, row)
                del starts[at]
                del rows[at]
                eviction_checks += len(rows).bit_length()
            del ends[:k]
            del end_rows[:k]
            discarded += k
            if trace is not None:
                trace.append(len(rows))
        # Every survivor ends after y.TE; starts before y.TS == match.
        cut = bisect_left(starts, y_ts[j])
        comparisons += len(rows).bit_length()
        if cut:
            xi.extend(rows[:cut])
            yj.extend(repeat(j, cut))
    discarded += len(rows)
    if trace is not None and rows:
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return (xi, yj), stats


# ----------------------------------------------------------------------
# Table 1 — Contain-semijoin / Contained-semijoin
# ----------------------------------------------------------------------
def contain_semijoin_ts_ts(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[List[int], SweepStats]:
    """Contain-semijoin(X, Y), both on ValidFrom^ (class (c)), fused:
    the probe's match set is a store suffix (as in the join) which is
    emitted *and retired* with one ranged delete — matched candidates
    leave the slot store immediately, keeping the class-(c) subset
    property."""
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    ends: List[int] = []  # stored X: ValidTo, ascending
    rows: List[int] = []  # stored X: column position, parallel to ends
    held: List[int] = []  # admitted X rows starting at ``held_ts``
    held_ts = 0
    out: List[int] = []
    comparisons = eviction_checks = inserted = discarded = high = 0
    i = 0
    for j in range(ny):
        yts = y_ts[j]
        if i >= nx and not rows and not held:
            break
        if held and held_ts < yts:
            for row in held:
                xte = x_te[row]
                at = bisect_right(ends, xte)
                ends.insert(at, xte)
                rows.insert(at, row)
            del held[:]
        while i < nx and x_ts[i] <= yts:
            comparisons += 1
            xte = x_te[i]
            if xte > yts:  # dead-on-arrival otherwise
                if x_ts[i] == yts:
                    held.append(i)
                    held_ts = yts
                else:
                    at = bisect_right(ends, xte)
                    ends.insert(at, xte)
                    rows.insert(at, i)
                inserted += 1
                cur = len(rows) + len(held)
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            i += 1
        k = bisect_right(ends, yts)
        eviction_checks += len(rows).bit_length()
        if k:
            del ends[:k]
            del rows[:k]
            discarded += k
        cut = bisect_right(ends, y_te[j])
        comparisons += len(rows).bit_length()
        m = len(rows) - cut
        if m:
            out.extend(sorted(rows[cut:]))
            del ends[cut:]  # matched: emit and retire immediately
            del rows[cut:]
            discarded += m
        if trace is not None and (k or m):
            trace.append(len(rows) + len(held))
    discarded += len(rows) + len(held)
    if trace is not None and (rows or held):
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return out, stats


def contained_semijoin_ts_ts(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[List[int], SweepStats]:
    """Contained-semijoin(X, Y), both on ValidFrom^ (class (c)), fused:
    the state is the waiting Y side, and only its ValidTo column — no
    stored row is ever emitted.  Every stored Y starts strictly before
    the consumed X (the eager kernel's strict admission rule), so X is
    contained in *some* stored Y iff the store's maximum ValidTo
    exceeds ``X.TE`` — an O(1) test against the last slot instead of a
    probe scan."""
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    ends: List[int] = []  # stored Y: ValidTo, ascending
    out: List[int] = []
    append = out.append
    comparisons = eviction_checks = inserted = discarded = high = 0
    j = 0
    for i in range(nx):
        xts = x_ts[i]
        while j < ny and y_ts[j] < xts:
            comparisons += 1
            yte = y_te[j]
            if yte > xts:  # dead-on-arrival otherwise
                insort(ends, yte)
                inserted += 1
                cur = len(ends)
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            j += 1
        k = bisect_right(ends, xts)
        eviction_checks += len(ends).bit_length()
        if k:
            del ends[:k]
            discarded += k
            if trace is not None:
                trace.append(len(ends))
        comparisons += 1
        if ends and ends[-1] > x_te[i]:
            append(i)
    discarded += len(ends)
    if trace is not None and ends:
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return out, stats


# ----------------------------------------------------------------------
# Table 2 — Overlap
# ----------------------------------------------------------------------
def overlap_join_ts_ts(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[IndexColumns, SweepStats]:
    """Overlap-join(X, Y), both on ValidFrom^ (class (a)), fused: one
    ValidTo-ordered slot store per side.  Consuming an element evicts
    the opposite store's disposal prefix (``TE <= p``) and then *every*
    survivor overlaps it — the whole store is the run, no per-entry
    probe at all.  The rest of an equal-ValidFrom group of one operand
    meets the store exactly as its first element left it, so the run is
    sorted once per group and re-emitted per member; the eviction
    search that would find nothing is charged, not run."""
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    x_ends: List[int] = []  # stored X: ValidTo, ascending
    x_rows: List[int] = []  # stored X: column position, parallel
    y_ends: List[int] = []  # stored Y, likewise
    y_rows: List[int] = []
    xi: List[int] = []
    yj: List[int] = []
    comparisons = eviction_checks = inserted = discarded = high = 0
    i = j = 0
    while True:
        if i < nx and (j >= ny or x_ts[i] <= y_ts[j]):
            p = x_ts[i]
            k = bisect_right(y_ends, p)
            eviction_checks += len(y_rows).bit_length()
            if k:
                del y_ends[:k]
                del y_rows[:k]
                discarded += k
                if trace is not None:
                    trace.append(len(x_rows) + len(y_rows))
            m = len(y_rows)
            comparisons += m  # every survivor is one matched pair
            if m:
                xi.extend(repeat(i, m))
                yj.extend(sorted(y_rows))
            run = None
            while True:
                if j < ny:  # an X tuple only joins future Y if any remain
                    xte = x_te[i]
                    at = bisect_right(x_ends, xte)
                    x_ends.insert(at, xte)
                    x_rows.insert(at, i)
                    inserted += 1
                    cur = len(x_rows) + m
                    if cur > high:
                        high = cur
                        if high > budget:
                            raise _overflow(budget)
                    if trace is not None:
                        trace.append(cur)
                i += 1
                if i == nx or x_ts[i] != p:
                    break
                # Next member of the tie group: no Y enters before every
                # X at p is taken, so the Y store is as the eviction
                # left it — the search that would find nothing is only
                # charged, and the sorted run is the last m positions
                # emitted.
                if run is None:
                    run = yj[len(yj) - m :]
                    bits = m.bit_length()
                eviction_checks += bits
                if m:
                    comparisons += m
                    xi.extend(repeat(i, m))
                    yj.extend(run)
        elif j < ny:
            p = y_ts[j]
            k = bisect_right(x_ends, p)
            eviction_checks += len(x_rows).bit_length()
            if k:
                del x_ends[:k]
                del x_rows[:k]
                discarded += k
                if trace is not None:
                    trace.append(len(x_rows) + len(y_rows))
            m = len(x_rows)
            comparisons += m
            if m:
                xi.extend(sorted(x_rows))
                yj.extend(repeat(j, m))
            run = None
            while True:
                if i < nx:
                    yte = y_te[j]
                    at = bisect_right(y_ends, yte)
                    y_ends.insert(at, yte)
                    y_rows.insert(at, j)
                    inserted += 1
                    cur = m + len(y_rows)
                    if cur > high:
                        high = cur
                        if high > budget:
                            raise _overflow(budget)
                    if trace is not None:
                        trace.append(cur)
                j += 1
                if j == ny or y_ts[j] != p:
                    break
                if run is None:
                    run = xi[len(xi) - m :]
                    bits = m.bit_length()
                eviction_checks += bits
                if m:
                    comparisons += m
                    xi.extend(run)
                    yj.extend(repeat(j, m))
        else:
            break
    discarded += len(x_rows) + len(y_rows)
    if trace is not None and (x_rows or y_rows):
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return (xi, yj), stats


# ----------------------------------------------------------------------
# Table 3 — self semijoins
# ----------------------------------------------------------------------
def self_contain_semijoin_ts(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[List[int], SweepStats]:
    """Contain-semijoin(X, X) on ValidFrom^ (class (b1)), fused: open
    candidates wait in a ValidTo-ordered slot store.  Each element
    evicts the disposal prefix (``TE <= ts``), then the candidates it
    proves to be containers form the store suffix with ``TE > te`` —
    minus same-start peers, which the closed-open tie law keeps
    unmatched (``RANK_START`` last: an equal-time start never strictly
    contains)."""
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx = len(x_ts)
    ends: List[int] = []  # stored X: ValidTo, ascending
    rows: List[int] = []  # stored X: column position, parallel to ends
    out: List[int] = []
    comparisons = eviction_checks = inserted = discarded = high = 0
    for i in range(nx):
        ts = x_ts[i]
        te = x_te[i]
        k = bisect_right(ends, ts)
        eviction_checks += len(rows).bit_length()
        dropped = k
        if k:
            del ends[:k]
            del rows[:k]
        cut = bisect_right(ends, te)
        comparisons += len(rows).bit_length()
        if cut < len(rows):
            matched: List[int] = []
            keep_ends: List[int] = []
            keep_rows: List[int] = []
            for end, row in zip(ends[cut:], rows[cut:]):
                comparisons += 1
                if x_ts[row] < ts:
                    matched.append(row)  # proven container: retire
                else:
                    keep_ends.append(end)  # same-start peer: not strict
                    keep_rows.append(row)
            if matched:
                ends[cut:] = keep_ends
                rows[cut:] = keep_rows
                matched.sort()
                out.extend(matched)
                dropped += len(matched)
        if dropped:
            discarded += dropped
            if trace is not None:
                trace.append(len(rows))
        ends.insert(cut, te)  # what is left above ``cut`` ends after te
        rows.insert(cut, i)
        inserted += 1
        cur = len(rows)
        if cur > high:
            high = cur
            if high > budget:
                raise _overflow(budget)
        if trace is not None:
            trace.append(cur)
    discarded += len(rows)
    if trace is not None and rows:
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return out, stats
