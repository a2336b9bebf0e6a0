"""The fused endpoint-event backend's own kernel, and the join output
of both batch backends.

The ``fused`` backend runs every cell's slot-store or two-pointer sweep
of :mod:`repro.columnar.kernels` — the same functions the ``columnar``
backend runs, re-exported below so that every kernel name a fused run
reports resolves in this module — and reports the search charge of
their :class:`~repro.columnar.kernels.SweepStats` (``bit_length`` of the
store per binary search; the columnar backend reports the probe-scan
charge of the same sweep).

Only the Overlap-join differs between the backends.  There every live
entry is an output pair, so the columnar backend keeps its probe scan;
the fused kernel below keeps one ValidTo-ordered slot store per side,
evicts the disposal prefix by binary search and emits the whole
surviving store as one run.

:class:`LazyPairs` wraps a join kernel's ``(xi, yj)`` index columns on
either backend and builds payload pairs only when something touches
them.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from sys import maxsize
from typing import List, Optional, Sequence, Tuple

from .kernels import (  # noqa: F401 - the shared sweeps, re-exported
    SweepStats,
    _overflow,
    before_semijoin,
    contain_join_ts_te,
    contain_join_ts_ts,
    contain_semijoin_ts_te,
    contain_semijoin_ts_ts,
    contained_semijoin_te_ts,
    contained_semijoin_ts_ts,
    overlap_semijoin_ts_ts,
    self_contain_semijoin_ts,
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
        the differential suites compare outputs across backends by
        ``==``."""
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
