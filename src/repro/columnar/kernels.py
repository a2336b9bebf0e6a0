"""Batch sweep kernels over endpoint columns.

Each kernel is the columnar counterpart of one stream processor from
:mod:`repro.streams.processors`: same operator semantics (the strict
closed-open conventions of Section 4.2 — ``TS < TE``, disposal when
``ValidTo <= buffer.ValidFrom``), same single-pass sweep, but executed
over whole sorted runs of ``(TS, TE)`` columns instead of advancing a
one-tuple buffer through layers of Python objects.

Active lists follow Piatov et al. (arXiv:2008.12665): a *gapless* list
of live entries that is **lazily evicted** — dead entries are dropped
during the probe scan that had to visit them anyway, by compacting
survivors in place.  No per-eviction list surgery, no holes.

Kernels deliberately trade abstraction for monomorphic inner loops
(local variable bindings, inlined comparisons): this is kernel code,
and the order-of-magnitude win over the tuple-at-a-time backend comes
precisely from keeping the per-element work to a few integer ops.

Every kernel returns ``(output, SweepStats)`` where the output holds
positional indexes into the operand columns — semijoins emit one index
list, joins emit a *pair of parallel index columns* ``(xi, yj)`` so the
backend can materialise payload pairs with two gathers and one C-level
``zip`` instead of a per-pair Python loop — and the stats carry the
same accounting the tuple backend reports through
:class:`~repro.streams.workspace.WorkspaceMeter`: comparisons, state
insertions/discards, and the state high-water mark.  ``limit`` enforces
the paper's finite local workspace (raising
:class:`~repro.errors.WorkspaceOverflowError`), and ``trace`` — when a
list is supplied — records the state size after every insertion and
eviction batch, exactly like the meter's Figure-5 trace.
"""

from __future__ import annotations

from itertools import repeat
from sys import maxsize
from typing import List, Optional, Sequence, Tuple

from ..errors import WorkspaceOverflowError


class SweepStats:
    """Accounting mirrored into the processor's ``WorkspaceMeter``.

    ``comparisons`` counts match tests against *live* state — the same
    work the tuple backend meters — while ``eviction_checks`` counts
    the liveness tests that lazy eviction spends rediscovering dead
    entries during probe scans (or, in the fused backend, the binary
    searches that locate the disposal prefix).  Keeping the two apart
    is what lets the differential tests assert backend comparison
    parity instead of ignoring the column: folding dead-entry visits
    into ``comparisons`` inflated the columnar count ~10% over tuple
    on identical inputs.
    """

    __slots__ = (
        "comparisons",
        "eviction_checks",
        "inserted",
        "discarded",
        "high_water",
    )

    def __init__(self) -> None:
        self.comparisons = 0
        self.eviction_checks = 0
        self.inserted = 0
        self.discarded = 0
        self.high_water = 0


def _overflow(limit: int) -> WorkspaceOverflowError:
    return WorkspaceOverflowError(
        f"workspace exceeded its budget of {limit} state tuples"
    )


# ----------------------------------------------------------------------
# Contain-join (Table 1 rows (a) and (b))
# ----------------------------------------------------------------------
def contain_join_ts_ts(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[Tuple[List[int], List[int]], SweepStats]:
    """Contain-join(X, Y), both operands sorted ValidFrom ascending.

    A matching pair has ``x.TS < y.TS``, so the containing X tuple is
    always swept first: one active list of open X intervals suffices,
    probed once per Y element.  X entries die when ``X.TE <= y.TS``
    (the Section-4.2.1 disposal rule) and are compacted away by the
    probe scan that discovers them.
    """
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    active: List[Tuple[int, int, int]] = []  # (TE, TS, index)
    out_x: List[int] = []
    out_y: List[int] = []
    emit_x = out_x.append
    emit_y = out_y.append
    comparisons = eviction_checks = inserted = discarded = cur = high = 0
    i = j = 0
    while j < ny:
        yts = y_ts[j]
        if i < nx and x_ts[i] <= yts:
            comparisons += 1
            xte = x_te[i]
            if xte > yts:  # skip dead-on-arrival entries
                active.append((xte, x_ts[i], i))
                inserted += 1
                cur += 1
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            i += 1
            continue
        yte = y_te[j]
        w = 0
        for ent in active:
            if ent[0] <= yts:
                continue  # dead: every future Y starts at or after yts
            active[w] = ent
            w += 1
            if ent[1] < yts and yte < ent[0]:
                emit_x(ent[2])
                emit_y(j)
        dead = len(active) - w
        comparisons += w  # match tests against live entries
        eviction_checks += dead  # liveness tests that found dead ones
        if dead:
            del active[w:]
            discarded += dead
            cur -= dead
            if trace is not None:
                trace.append(cur)
        j += 1
    discarded += cur  # sweep over: the remaining state space is freed
    if trace is not None and cur:
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return (out_x, out_y), stats


def contain_join_ts_te(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[Tuple[List[int], List[int]], SweepStats]:
    """Contain-join(X, Y) with X on ValidFrom^ and Y on ValidTo^
    (Table 1's class-(b) row).

    The merge consumes the smaller of ``x.TS`` and ``y.TE``; a matching
    pair satisfies ``x.TS < y.TS < y.TE < x.TE``, so X is always
    consumed first and one active X list again suffices.  X entries die
    once ``X.TE <= y.TE`` — future Y end no earlier (Y is ValidTo
    sorted) and can never end strictly inside them.
    """
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    active: List[Tuple[int, int, int]] = []  # (TE, TS, index)
    out_x: List[int] = []
    out_y: List[int] = []
    emit_x = out_x.append
    emit_y = out_y.append
    comparisons = eviction_checks = inserted = discarded = cur = high = 0
    i = j = 0
    while j < ny:
        yte = y_te[j]
        if i < nx and x_ts[i] <= yte:
            comparisons += 1
            xte = x_te[i]
            if xte > yte:  # dead-on-arrival otherwise
                active.append((xte, x_ts[i], i))
                inserted += 1
                cur += 1
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            i += 1
            continue
        yts = y_ts[j]
        w = 0
        for ent in active:
            if ent[0] <= yte:
                continue  # dead: future Y tuples end at or after yte
            active[w] = ent
            w += 1
            if ent[1] < yts:  # survivor already has TE > y.TE
                emit_x(ent[2])
                emit_y(j)
        dead = len(active) - w
        comparisons += w
        eviction_checks += dead
        if dead:
            del active[w:]
            discarded += dead
            cur -= dead
            if trace is not None:
                trace.append(cur)
        j += 1
    discarded += cur
    if trace is not None and cur:
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return (out_x, out_y), stats


# ----------------------------------------------------------------------
# Contain-semijoin / Contained-semijoin (Table 1, classes (c) and (d))
# ----------------------------------------------------------------------
def contain_semijoin_ts_te(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[List[int], SweepStats]:
    """Figure 6 as a two-pointer scan: Contain-semijoin(X, Y) with X on
    ValidFrom^ and Y on ValidTo^ — zero state tuples (class (d))."""
    stats = SweepStats()
    nx, ny = len(x_ts), len(y_ts)
    out: List[int] = []
    append = out.append
    comparisons = 0
    i = j = 0
    while i < nx and j < ny:
        comparisons += 1
        if y_ts[j] <= x_ts[i]:
            j += 1  # y starts no later than any remaining x: useless
        elif y_te[j] < x_te[i]:
            append(i)  # witnessed: strictly inside x
            i += 1
        else:
            i += 1  # no current or future y ends strictly inside x
    stats.comparisons = comparisons
    return out, stats


def contained_semijoin_te_ts(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[List[int], SweepStats]:
    """Figure 6 with the roles swapped: Contained-semijoin(X, Y) with X
    on ValidTo^ and Y on ValidFrom^ — zero state tuples (class (d))."""
    stats = SweepStats()
    nx, ny = len(x_ts), len(y_ts)
    out: List[int] = []
    append = out.append
    comparisons = 0
    i = j = 0
    while i < nx and j < ny:
        comparisons += 1
        if x_ts[i] <= y_ts[j]:
            i += 1  # no current or future y starts strictly before x
        elif x_te[i] < y_te[j]:
            append(i)  # strictly inside the buffered y
            i += 1
        else:
            j += 1  # a later y, ending later, may still contain x
    stats.comparisons = comparisons
    return out, stats


def contain_semijoin_ts_ts(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[List[int], SweepStats]:
    """Contain-semijoin(X, Y), both on ValidFrom^ (class (c)): X
    candidates wait in the active list until a witness arrives (emit
    and retire) or ``X.TE <= y.TS`` proves none ever will."""
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    active: List[Tuple[int, int, int]] = []  # (TE, TS, index)
    out: List[int] = []
    append = out.append
    comparisons = eviction_checks = inserted = discarded = cur = high = 0
    i = j = 0
    while j < ny and (i < nx or active):
        yts = y_ts[j]
        if i < nx and x_ts[i] <= yts:
            comparisons += 1
            if x_te[i] > yts:  # dead-on-arrival otherwise
                active.append((x_te[i], x_ts[i], i))
                inserted += 1
                cur += 1
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            i += 1
            continue
        yte = y_te[j]
        matched = len(out)
        w = 0
        for ent in active:
            if ent[0] <= yts:
                continue  # no future y can fall strictly inside
            if ent[1] < yts and yte < ent[0]:
                append(ent[2])  # matched: emit and retire immediately
                continue
            active[w] = ent
            w += 1
        matched = len(out) - matched
        dropped = len(active) - w
        comparisons += w + matched  # live entries: match-tested
        eviction_checks += dropped - matched  # dead entries
        if dropped:
            del active[w:]
            discarded += dropped
            cur -= dropped
            if trace is not None:
                trace.append(cur)
        j += 1
    discarded += cur
    if trace is not None and cur:
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
    """Contained-semijoin(X, Y), both on ValidFrom^ (class (c)): Y
    tuples wait while their lifespan spans the sweep; each X is decided
    the moment it is consumed."""
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    active: List[Tuple[int, int, int]] = []  # (TE, TS, index) of Y
    out: List[int] = []
    append = out.append
    comparisons = eviction_checks = inserted = discarded = cur = high = 0
    i = j = 0
    while i < nx:
        xts = x_ts[i]
        if j < ny and y_ts[j] < xts:
            comparisons += 1
            if y_te[j] > xts:  # dead-on-arrival otherwise
                active.append((y_te[j], y_ts[j], j))
                inserted += 1
                cur += 1
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            j += 1
            continue
        xte = x_te[i]
        emitted = False
        w = 0
        for ent in active:
            if ent[0] <= xts:
                continue  # ended at or before the sweep: evict
            active[w] = ent
            w += 1
            if not emitted and ent[1] < xts and xte < ent[0]:
                append(i)
                emitted = True
        dead = len(active) - w
        comparisons += w
        eviction_checks += dead
        if dead:
            del active[w:]
            discarded += dead
            cur -= dead
            if trace is not None:
                trace.append(cur)
        i += 1
    discarded += cur
    if trace is not None and cur:
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return out, stats


# ----------------------------------------------------------------------
# Overlap (Table 2)
# ----------------------------------------------------------------------
def overlap_join_ts_ts(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[Tuple[List[int], List[int]], SweepStats]:
    """Overlap-join(X, Y), both on ValidFrom^ (class (a)): the classic
    plane sweep with an active list per side.

    At sweep position ``p`` every active entry has ``TS <= p``; it
    overlaps the consumed element iff it is still alive (``TE > p``) —
    one comparison both evicts and matches, so every probe survivor is
    an output pair.

    Elements of one operand sharing a ValidFrom meet the same opposite
    list (Section 4.2: equal starts do not see each other, and the
    merge takes every X at ``p`` before any Y at ``p``), so only the
    first of such a tie group scans it; the rest re-emit the survivors
    that scan just wrote, one ``extend`` per column per member, with
    the accounting the scan would have charged.
    """
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    x_active: List[Tuple[int, int]] = []  # (TE, index)
    y_active: List[Tuple[int, int]] = []
    out_x: List[int] = []
    out_y: List[int] = []
    emit_x = out_x.append
    emit_y = out_y.append
    extend_x = out_x.extend
    extend_y = out_y.extend
    comparisons = eviction_checks = inserted = discarded = cur = high = 0
    i = j = 0
    while True:
        if i < nx and (j >= ny or x_ts[i] <= y_ts[j]):
            p = x_ts[i]
            w = 0
            for ent in y_active:
                if ent[0] <= p:
                    continue  # ended at or before p: evict
                y_active[w] = ent
                w += 1
                emit_x(i)  # alive at p: overlap
                emit_y(ent[1])
            dead = len(y_active) - w
            comparisons += w
            eviction_checks += dead
            if dead:
                del y_active[w:]
                discarded += dead
                cur -= dead
                if trace is not None:
                    trace.append(cur)
            run = None
            while True:
                if j < ny:  # an X tuple only joins future Y if any remain
                    x_active.append((x_te[i], i))
                    inserted += 1
                    cur += 1
                    if cur > high:
                        high = cur
                        if high > budget:
                            raise _overflow(budget)
                    if trace is not None:
                        trace.append(cur)
                i += 1
                if i == nx or x_ts[i] != p:
                    break
                # Next member of the tie group: ``y_active`` is as the
                # scan left it (all alive, nothing to evict), so its w
                # survivors are the last w positions emitted.
                if w:
                    if run is None:
                        run = out_y[-w:]
                    extend_x(repeat(i, w))
                    extend_y(run)
                    comparisons += w
        elif j < ny:
            p = y_ts[j]
            w = 0
            for ent in x_active:
                if ent[0] <= p:
                    continue
                x_active[w] = ent
                w += 1
                emit_x(ent[1])
                emit_y(j)
            dead = len(x_active) - w
            comparisons += w
            eviction_checks += dead
            if dead:
                del x_active[w:]
                discarded += dead
                cur -= dead
                if trace is not None:
                    trace.append(cur)
            run = None
            while True:
                if i < nx:
                    y_active.append((y_te[j], j))
                    inserted += 1
                    cur += 1
                    if cur > high:
                        high = cur
                        if high > budget:
                            raise _overflow(budget)
                    if trace is not None:
                        trace.append(cur)
                j += 1
                if j == ny or y_ts[j] != p:
                    break
                if w:
                    if run is None:
                        run = out_x[-w:]
                    extend_x(run)
                    extend_y(repeat(j, w))
                    comparisons += w
        else:
            break
    discarded += cur
    if trace is not None and cur:
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return (out_x, out_y), stats


def overlap_semijoin_ts_ts(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[List[int], SweepStats]:
    """Overlap-semijoin(X, Y), both on ValidFrom^ — two pointers, zero
    state (Table 2's class (b) algorithm keeps only the buffers)."""
    stats = SweepStats()
    nx, ny = len(x_ts), len(y_ts)
    out: List[int] = []
    append = out.append
    comparisons = 0
    i = j = 0
    while i < nx and j < ny:
        comparisons += 1
        if x_ts[i] < y_te[j] and y_ts[j] < x_te[i]:
            append(i)
            i += 1
        elif y_te[j] <= x_ts[i]:
            j += 1  # y ended before any remaining x starts
        else:
            i += 1  # y (and every later y) starts at or after x ends
    stats.comparisons = comparisons
    return out, stats


# ----------------------------------------------------------------------
# Before (Section 4.2.4)
# ----------------------------------------------------------------------
def before_semijoin(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[List[int], SweepStats]:
    """Before-semijoin(X, Y): ``x`` qualifies iff ``x.TE < max(y.TS)``.
    Order-free; the whole state is one running maximum."""
    stats = SweepStats()
    if not len(y_ts):
        return [], stats
    latest_start = max(y_ts)
    out = [i for i, te in enumerate(x_te) if te < latest_start]
    stats.comparisons = len(y_ts) + len(x_te)
    return out, stats


# ----------------------------------------------------------------------
# Self semijoins (Table 3)
# ----------------------------------------------------------------------
def self_contained_semijoin_ts_te(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[List[int], SweepStats]:
    """Contained-semijoin(X, X) on (ValidFrom^, ValidTo^) — one state
    value (Table 3 class (a1)): the interval with the maximum ValidTo
    seen so far decides every later element."""
    stats = SweepStats()
    nx = len(x_ts)
    out: List[int] = []
    append = out.append
    comparisons = 0
    if nx:
        budget = maxsize if limit is None else limit
        if budget < 1:
            raise _overflow(budget)
        stats.inserted = 1
        stats.high_water = 1
        if trace is not None:
            trace.append(1)
        s_ts, s_te = x_ts[0], x_te[0]
        for i in range(1, nx):
            ts = x_ts[i]
            te = x_te[i]
            comparisons += 1
            if s_ts == ts or s_te <= te:
                s_ts, s_te = ts, te  # replace the single state tuple
                stats.inserted += 1
                stats.discarded += 1
                if trace is not None:
                    trace.append(1)
            else:
                append(i)  # strictly inside the state interval
        stats.discarded += 1
    stats.comparisons = comparisons
    return out, stats


def self_contain_semijoin_ts_te_desc(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[List[int], SweepStats]:
    """Contain-semijoin(X, X) on (ValidFromv, ValidTov) — the order-dual
    one-state-value algorithm (Table 3's second (a1) row): the minimum
    ValidTo so far decides which later elements are containers."""
    stats = SweepStats()
    nx = len(x_ts)
    out: List[int] = []
    append = out.append
    comparisons = 0
    if nx:
        budget = maxsize if limit is None else limit
        if budget < 1:
            raise _overflow(budget)
        stats.inserted = 1
        stats.high_water = 1
        if trace is not None:
            trace.append(1)
        s_ts, s_te = x_ts[0], x_te[0]
        for i in range(1, nx):
            ts = x_ts[i]
            te = x_te[i]
            comparisons += 1
            if ts < s_ts and s_te < te:
                append(i)  # strictly contains the state interval
            if te < s_te or ts == s_ts:
                s_ts, s_te = ts, te
                stats.inserted += 1
                stats.discarded += 1
                if trace is not None:
                    trace.append(1)
        stats.discarded += 1
    stats.comparisons = comparisons
    return out, stats


def self_contain_semijoin_ts(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[List[int], SweepStats]:
    """Contain-semijoin(X, X) on ValidFrom^ (Table 3 class (b1)): open,
    not-yet-proven-container candidates probed by each new element."""
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx = len(x_ts)
    active: List[Tuple[int, int, int]] = []  # (TE, TS, index)
    out: List[int] = []
    append = out.append
    comparisons = eviction_checks = inserted = discarded = cur = high = 0
    for i in range(nx):
        ts = x_ts[i]
        te = x_te[i]
        matched = len(out)
        w = 0
        for ent in active:
            if ent[0] <= ts:
                continue  # closed: can no longer contain anything
            if ent[1] < ts and te < ent[0]:
                append(ent[2])  # proven container: emit and retire
                continue
            active[w] = ent
            w += 1
        matched = len(out) - matched
        dropped = len(active) - w
        comparisons += w + matched
        eviction_checks += dropped - matched
        if dropped:
            del active[w:]
            discarded += dropped
            cur -= dropped
            if trace is not None:
                trace.append(cur)
        active.append((te, ts, i))
        inserted += 1
        cur += 1
        if cur > high:
            high = cur
            if high > budget:
                raise _overflow(budget)
        if trace is not None:
            trace.append(cur)
    discarded += cur
    if trace is not None and cur:
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return out, stats
