"""Fused endpoint-event sweep kernels (the third backend).

Where :mod:`repro.columnar.kernels` runs each cell as two interleaved
per-operand scans with a probe-scan-compacted active list, the kernels
here sweep the **merged endpoint-event ordering** of
:mod:`repro.columnar.events` once per query and keep the workspace as a
dense ``array('q')`` slot store of packed
``(disposal_endpoint << IDX_BITS) | index`` words:

* **insert** is one ``bisect.insort`` into the slot array (the packed
  word is appended into its disposal-order slot — a single C-level
  ``memmove``, no dict, no per-entry Python objects);
* **evict** is one ranged prefix delete below
  :func:`~repro.columnar.events.disposal_bound` — the Section-4.2 rule
  (``ValidTo <= buffer.ValidFrom``) disposes exactly a prefix of the
  disposal-ordered store, so dead entries leave in one ``del`` instead
  of being re-visited by every later probe scan;
* **probe** is one binary search: because the merge admits an interval
  only once the sweep has strictly passed its start (the
  ``RANK_START``-last tie law, realised as the equal-timestamp
  holdback), every stored entry already satisfies the start-side match
  condition, and the end-side condition selects a contiguous *run* of
  the store.

Join output is **lazy**: kernels emit :class:`JoinRuns` — run
descriptors ``(probe_index, active_lo, active_hi)`` over snapshots of
the matching store range copied into an append-only arena — and the
backend wraps them in :class:`LazyPairs`, which reports ``len()`` from
the run totals in O(1) and expands to ``(xi, yj)`` index columns /
payload pairs only when something actually touches the output
(mirroring the parallel runtime's lazy-materialisation Amdahl fix).

The zero-state (class d, and the class-(b) Overlap-semijoin that
retires each X at its first witness) and one-state (class a1) cells are
already single fused scans in the columnar kernel family — two-pointer
merges with no slot store to restructure — so the cell table in
:mod:`repro.columnar.backend` points their fused column at the
columnar kernel itself; the six are re-exported below so every kernel
name a fused run reports resolves in this module.

Every kernel returns ``(output, SweepStats)`` with the same accounting
contract as :mod:`repro.columnar.kernels`; probe/evict binary searches
charge their comparison count logarithmically (``bit_length`` of the
store size per search), which the differential tests pin from above by
the columnar backend's linear-scan counts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right, insort
from sys import maxsize
from typing import List, Optional, Sequence, Tuple

from .events import (
    IDX_MASK,
    check_stored,
    disposal_bound,
    pack_entry,
)
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

#: Run-descriptor probe sides (see :class:`JoinRuns`).
PROBE_Y = 0
PROBE_X = 1


class JoinRuns:
    """Lazy join output: run descriptors over workspace snapshots.

    Each run ``r`` pairs probe element ``probes[r]`` with every entry
    of ``arena[los[r]:his[r]]`` — a snapshot of the slot store's
    matching range at probe time.  ``sides[r]`` says which operand the
    probe element belongs to (``None`` means every probe is a Y
    element, the shape of the contain joins).  ``len()`` is the exact
    pair count, known without expanding anything.
    """

    __slots__ = ("probes", "los", "his", "arena", "total", "sides")

    def __init__(
        self,
        probes: array,
        los: array,
        his: array,
        arena: array,
        total: int,
        sides: Optional[bytearray] = None,
    ) -> None:
        self.probes = probes
        self.los = los
        self.his = his
        self.arena = arena
        self.total = total
        self.sides = sides

    def __len__(self) -> int:
        return self.total

    def index_columns(self) -> Tuple[array, array]:
        """Expand the runs to parallel ``(xi, yj)`` index columns —
        the eager representation the shard workers ship over shared
        memory.  Within a run, stored entries are emitted in ascending
        column-index order (the columnar backend's insertion order), so
        the expansion is byte-identical to the eager kernels' output."""
        xi = array("q")
        yj = array("q")
        arena = self.arena
        probes = self.probes
        los = self.los
        his = self.his
        sides = self.sides
        one = array("q", [0])
        for r in range(len(probes)):
            lo = r_lo = los[r]
            hi = his[r]
            idxs = sorted(key & IDX_MASK for key in arena[lo:hi])
            one[0] = probes[r]
            repeated = one * (hi - r_lo)
            if sides is None or sides[r] == PROBE_Y:
                xi.extend(array("q", idxs))
                yj.extend(repeated)
            else:
                xi.extend(repeated)
                yj.extend(array("q", idxs))
        return xi, yj


class LazyPairs(Sequence):
    """The join output of both batch backends: a sequence of payload
    pairs that materialises on first touch.

    ``source`` is what the kernel returned — a fused :class:`JoinRuns`
    or the columnar kernels' eager ``(xi, yj)`` index columns.
    ``len()`` is known without expanding anything; indexing, iteration,
    or containment triggers one expansion (runs → index columns →
    payload gathers) whose result is cached.  EXPLAIN and metrics read
    only ``len()``, and the hybrid executor reads only
    :meth:`index_columns`, so neither pays for payload pairs.
    """

    __slots__ = (
        "_runs", "_columns", "_length", "x_payload", "y_payload", "_pairs"
    )

    def __init__(self, source, x_payload, y_payload) -> None:
        if isinstance(source, JoinRuns):
            self._runs: Optional[JoinRuns] = source
            self._columns = None
            self._length = source.total
        else:
            self._runs = None
            self._columns = source
            self._length = len(source[0])
        #: The *sorted* operands' payload columns, which
        #: :meth:`index_columns` positions point into.
        self.x_payload = x_payload
        self.y_payload = y_payload
        self._pairs: Optional[list] = None

    def __len__(self) -> int:
        return self._length

    @property
    def materialized(self) -> bool:
        return self._pairs is not None

    def index_columns(self) -> Tuple[Sequence[int], Sequence[int]]:
        """Parallel ``(xi, yj)`` columns, one entry per output pair in
        emission order; each is a position into the sorted operand
        (``x_payload[xi[k]]`` pairs with ``y_payload[yj[k]]``).  Runs
        expand once: the columns are cached and the runs released."""
        runs = self._runs
        if runs is not None:
            self._columns = runs.index_columns()
            self._runs = None
        return self._columns

    def _materialise(self) -> list:
        pairs = self._pairs
        if pairs is None:
            xi, yj = self.index_columns()
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
        return f"LazyPairs(n={self._length}, {state})"


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
) -> Tuple[JoinRuns, SweepStats]:
    """Contain-join(X, Y), both on ValidFrom^, as one fused sweep.

    The slot store holds open X entries keyed on ValidTo (the class-(a)
    disposal endpoint).  X starts sharing a probe's timestamp are held
    back until the sweep strictly passes them (``RANK_START`` last), so
    every stored entry satisfies ``X.TS < y.TS`` by construction and
    the probe's match set is exactly the store suffix with
    ``X.TE > y.TE`` — one binary search, emitted as a run descriptor.
    Held-back entries still count toward the state high-water mark at
    admission, matching the eager backends' accounting.
    """
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    check_stored(x_ts, x_te)
    store = array("q")
    pend = array("q")
    pend_ts = 0
    arena = array("q")
    probes = array("q")
    los = array("q")
    his = array("q")
    comparisons = eviction_checks = inserted = discarded = high = 0
    total = 0
    i = 0
    for j in range(ny):
        yts = y_ts[j]
        if pend and pend_ts < yts:
            for key in pend:
                insort(store, key)
            del pend[:]
        while i < nx and x_ts[i] <= yts:
            comparisons += 1
            xte = x_te[i]
            if xte > yts:  # skip dead-on-arrival entries
                key = pack_entry(xte, i)
                if x_ts[i] == yts:
                    pend.append(key)
                    pend_ts = yts
                else:
                    insort(store, key)
                inserted += 1
                cur = len(store) + len(pend)
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            i += 1
        k = bisect_right(store, disposal_bound(yts))
        eviction_checks += len(store).bit_length()
        if k:
            del store[:k]
            discarded += k
            if trace is not None:
                trace.append(len(store) + len(pend))
        yte = y_te[j]
        cut = bisect_right(store, disposal_bound(yte))
        comparisons += len(store).bit_length()
        m = len(store) - cut
        if m:
            probes.append(j)
            los.append(len(arena))
            arena.extend(store[cut:])
            his.append(len(arena))
            total += m
    discarded += len(store) + len(pend)
    if trace is not None and (store or pend):
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return JoinRuns(probes, los, his, arena, total), stats


def contain_join_ts_te(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[JoinRuns, SweepStats]:
    """Contain-join(X, Y) with X on ValidFrom^ and Y on ValidTo^
    (class (b)), as one fused sweep with a two-key slot store.

    The disposal rule watches ``X.TE <= y.TE``, while the match set of
    a probe is ``X.TS < y.TS`` — so the store is kept in *start* order
    for probing and a parallel ValidTo-ordered key column identifies
    the disposal prefix.  After the ranged eviction every stored entry
    satisfies ``X.TE > y.TE``, making the probe's match set exactly the
    store prefix with ``X.TS < y.TS``: still one binary search and one
    run descriptor per probe.
    """
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    check_stored(x_ts, x_te)
    ts_store = array("q")  # pack_entry(TS, index): probe order
    te_store = array("q")  # pack_entry(TE, index): disposal order
    arena = array("q")
    probes = array("q")
    los = array("q")
    his = array("q")
    comparisons = eviction_checks = inserted = discarded = high = 0
    total = 0
    i = 0
    for j in range(ny):
        yte = y_te[j]
        while i < nx and x_ts[i] <= yte:
            comparisons += 1
            xte = x_te[i]
            if xte > yte:  # dead-on-arrival otherwise
                insort(ts_store, pack_entry(x_ts[i], i))
                insort(te_store, pack_entry(xte, i))
                inserted += 1
                cur = len(ts_store)
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            i += 1
        k = bisect_right(te_store, disposal_bound(yte))
        eviction_checks += len(te_store).bit_length()
        if k:
            for key in te_store[:k]:
                idx = key & IDX_MASK
                ts_key = pack_entry(x_ts[idx], idx)
                pos = bisect_right(ts_store, ts_key) - 1
                del ts_store[pos]
                eviction_checks += len(ts_store).bit_length()
            del te_store[:k]
            discarded += k
            if trace is not None:
                trace.append(len(ts_store))
        yts = y_ts[j]
        # Every survivor ends after y.TE; starts before y.TS == match.
        cut = bisect_right(ts_store, pack_entry(yts, 0) - 1)
        comparisons += len(ts_store).bit_length()
        if cut:
            probes.append(j)
            los.append(len(arena))
            arena.extend(ts_store[:cut])
            his.append(len(arena))
            total += cut
    discarded += len(ts_store)
    if trace is not None and ts_store:
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return JoinRuns(probes, los, his, arena, total), stats


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
    check_stored(x_ts, x_te)
    store = array("q")
    pend = array("q")
    pend_ts = 0
    out: List[int] = []
    comparisons = eviction_checks = inserted = discarded = high = 0
    i = 0
    for j in range(ny):
        yts = y_ts[j]
        if i >= nx and not store and not pend:
            break
        if pend and pend_ts < yts:
            for key in pend:
                insort(store, key)
            del pend[:]
        while i < nx and x_ts[i] <= yts:
            comparisons += 1
            xte = x_te[i]
            if xte > yts:  # dead-on-arrival otherwise
                key = pack_entry(xte, i)
                if x_ts[i] == yts:
                    pend.append(key)
                    pend_ts = yts
                else:
                    insort(store, key)
                inserted += 1
                cur = len(store) + len(pend)
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            i += 1
        k = bisect_right(store, disposal_bound(yts))
        eviction_checks += len(store).bit_length()
        if k:
            del store[:k]
            discarded += k
        yte = y_te[j]
        cut = bisect_right(store, disposal_bound(yte))
        comparisons += len(store).bit_length()
        m = len(store) - cut
        if m:
            out.extend(sorted(key & IDX_MASK for key in store[cut:]))
            del store[cut:]  # matched: emit and retire immediately
            discarded += m
        if trace is not None and (k or m):
            trace.append(len(store) + len(pend))
    discarded += len(store) + len(pend)
    if trace is not None and (store or pend):
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
    the state is the waiting Y side, keyed on ValidTo.  Every stored Y
    starts strictly before the consumed X (the eager kernel's strict
    admission rule), so X is contained in *some* stored Y iff the
    store's maximum ValidTo exceeds ``X.TE`` — an O(1) test against
    the last slot instead of a probe scan."""
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    check_stored(y_ts, y_te)
    store = array("q")
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
                insort(store, pack_entry(yte, j))
                inserted += 1
                cur = len(store)
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            j += 1
        k = bisect_right(store, disposal_bound(xts))
        eviction_checks += len(store).bit_length()
        if k:
            del store[:k]
            discarded += k
            if trace is not None:
                trace.append(len(store))
        comparisons += 1
        if store and store[-1] > disposal_bound(x_te[i]):
            append(i)
    discarded += len(store)
    if trace is not None and store:
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
) -> Tuple[JoinRuns, SweepStats]:
    """Overlap-join(X, Y), both on ValidFrom^ (class (a)), fused: one
    ValidTo-keyed slot store per side.  Consuming an element evicts the
    opposite store's disposal prefix (``TE <= p``) and then *every*
    survivor overlaps it — the whole store is the run, no per-entry
    probe at all."""
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    check_stored(x_ts, x_te)
    check_stored(y_ts, y_te)
    x_store = array("q")
    y_store = array("q")
    arena = array("q")
    probes = array("q")
    los = array("q")
    his = array("q")
    sides = bytearray()
    comparisons = eviction_checks = inserted = discarded = high = 0
    total = 0
    i = j = 0
    while True:
        if i < nx and (j >= ny or x_ts[i] <= y_ts[j]):
            p = x_ts[i]
            k = bisect_right(y_store, disposal_bound(p))
            eviction_checks += len(y_store).bit_length()
            if k:
                del y_store[:k]
                discarded += k
                if trace is not None:
                    trace.append(len(x_store) + len(y_store))
            m = len(y_store)
            comparisons += m  # every survivor is one matched pair
            if m:
                probes.append(i)
                los.append(len(arena))
                arena.extend(y_store)
                his.append(len(arena))
                sides.append(PROBE_X)
                total += m
            if j < ny:  # an X tuple only joins future Y if any remain
                insort(x_store, pack_entry(x_te[i], i))
                inserted += 1
                cur = len(x_store) + len(y_store)
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            i += 1
        elif j < ny:
            p = y_ts[j]
            k = bisect_right(x_store, disposal_bound(p))
            eviction_checks += len(x_store).bit_length()
            if k:
                del x_store[:k]
                discarded += k
                if trace is not None:
                    trace.append(len(x_store) + len(y_store))
            m = len(x_store)
            comparisons += m
            if m:
                probes.append(j)
                los.append(len(arena))
                arena.extend(x_store)
                his.append(len(arena))
                sides.append(PROBE_Y)
                total += m
            if i < nx:
                insort(y_store, pack_entry(y_te[j], j))
                inserted += 1
                cur = len(x_store) + len(y_store)
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            j += 1
        else:
            break
    discarded += len(x_store) + len(y_store)
    if trace is not None and (x_store or y_store):
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return JoinRuns(probes, los, his, arena, total, sides), stats


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
    candidates wait in a ValidTo-keyed slot store.  Each element evicts
    the disposal prefix (``TE <= ts``), then the candidates it proves
    to be containers form the store suffix with ``TE > te`` — minus
    same-start peers, which the closed-open tie law keeps unmatched
    (``RANK_START`` last: an equal-time start never strictly
    contains)."""
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx = len(x_ts)
    check_stored(x_ts, x_te)
    store = array("q")
    out: List[int] = []
    comparisons = eviction_checks = inserted = discarded = high = 0
    for i in range(nx):
        ts = x_ts[i]
        te = x_te[i]
        k = bisect_right(store, disposal_bound(ts))
        eviction_checks += len(store).bit_length()
        dropped = k
        if k:
            del store[:k]
        cut = bisect_right(store, disposal_bound(te))
        comparisons += len(store).bit_length()
        if cut < len(store):
            matched: List[int] = []
            keep = array("q")
            for key in store[cut:]:
                comparisons += 1
                idx = key & IDX_MASK
                if x_ts[idx] < ts:
                    matched.append(idx)  # proven container: retire
                else:
                    keep.append(key)  # same-start peer: not strict
            if matched:
                store[cut:] = keep
                matched.sort()
                out.extend(matched)
                dropped += len(matched)
        if dropped:
            discarded += dropped
            if trace is not None:
                trace.append(len(store))
        insort(store, pack_entry(te, i))
        inserted += 1
        cur = len(store)
        if cur > high:
            high = cur
            if high > budget:
                raise _overflow(budget)
        if trace is not None:
            trace.append(cur)
    discarded += len(store)
    if trace is not None and store:
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return out, stats
