"""Batch sweep kernels over endpoint columns.

Each kernel is the batch counterpart of one stream processor from
:mod:`repro.streams.processors`: same operator semantics (the strict
closed-open conventions of Section 4.2 — ``TS < TE``, disposal when
``ValidTo <= buffer.ValidFrom``), same single pass, but executed over
whole sorted runs of ``(TS, TE)`` columns instead of advancing a
one-tuple buffer through layers of Python objects.  Every batch run of
a cell calls its one function here, whichever batch backend label the
plan carries; :mod:`repro.columnar.fused` re-exports them.

The five Contain-family cells (Table 1 classes (a), (b), (c) and
Table 3's (b1)) keep their active intervals in a **two-column slot
store in disposal order**: a list of the stored rows' raw ``ValidTo``
endpoints and a parallel list of their column positions.

* **insert** is one ``bisect_right`` on the endpoint column and one
  C-level ``insert`` into each column.  Equal endpoints land in
  insertion order, which is position order because the stored operand
  arrives sorted — the store is ordered by ``(endpoint, position)``
  without either being packed into the other, so any endpoint and any
  operand size fit;
* **evict** is one ranged prefix delete: the Section-4.2 rule
  (``ValidTo <= buffer.ValidFrom``) disposes exactly the entries below
  ``bisect_right(endpoints, buffer.ValidFrom)``, at the same sweep
  positions a lazily compacted active list would drop them;
* **probe** is one binary search: because the merge admits an interval
  only once the sweep has strictly passed its start (the
  equal-timestamp holdback), every stored entry already satisfies the
  start-side match condition, and the end-side condition selects a
  contiguous *run* of the store;
* **emit** is a read of that run: the join kernels extend their
  ``(xi, yj)`` index columns with the run's positions (copied once and
  sorted in place back into position order) against the probe
  repeated — one C-level step per run, none per pair; a run of one is
  two appends.  The payloads those positions name are gathered later,
  eager, one call per column (:func:`repro.columns.gather`).

The tie law at a shared timestamp ``t`` is the one the strict
comparators of :mod:`repro.model.interval` state for ``[ValidFrom,
ValidTo)``: an interval ending at ``t`` is already dead for a probe at
``t`` (the ranged evict runs before the probe), and an interval
starting at ``t`` does not strictly contain it (the holdback admits it
after the probe).  The tuple oracle, the nested-loop baselines and the
golden counts in the tests check the kernels against it.

Table 1's class (c) is class (a) with matched tuples emitted and
retired immediately, so ``contain_join_ts_ts`` and
``contain_semijoin_ts_ts`` run one sweep, :func:`_held_x_sweep`, whose
only parameter is that emit rule.

The Overlap-join keeps the probe scan of Piatov et al.
(arXiv:2008.12665) — a gapless active list per side, lazily evicted by
the scan that visits every entry anyway — because there every live
entry is an output pair.  The zero-state (class (d)) and one-state
(class (a1)) cells are two-pointer scans with no store at all.

Kernels deliberately trade abstraction for monomorphic inner loops
(local variable bindings, inlined comparisons): this is kernel code,
and the order-of-magnitude win over the tuple-at-a-time backend comes
precisely from keeping the per-element work to a few integer ops.

Every kernel returns ``(output, SweepStats)`` where the output holds
positional indexes into the operand columns — semijoins emit one index
list, joins emit a *pair of parallel index columns* ``(xi, yj)`` so the
backend can materialise payload pairs with two C-level gathers and one
``zip`` instead of a per-pair Python loop — and the stats carry the
same accounting the tuple backend reports through
:class:`~repro.streams.workspace.WorkspaceMeter`: comparisons, state
insertions/discards, and the state high-water mark.  ``limit`` enforces
the paper's finite local workspace (raising
:class:`~repro.errors.WorkspaceOverflowError`), and ``trace`` — when a
list is supplied — records the state size after every insertion and
eviction batch, exactly like the meter's Figure-5 trace.

The held-X sweep and the Overlap-join read that charge once per probe
(per tie group for the Overlap-join), not once per insertion: between
two probes the store only grows, so the batch's last size is its
high-water candidate, the one size tested against ``limit``, and the
trace the insertions would have recorded one by one is the range up to
it — cut at ``limit`` when the batch crosses it, at the insertion that
would have raised.  Every storing kernel ends with ``inserted ==
discarded``: each stored entry is evicted, retired or left over exactly
once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from sys import maxsize
from typing import List, Optional, Sequence, Tuple

from ..errors import WorkspaceOverflowError


class SweepStats:
    """Accounting mirrored into the processor's ``WorkspaceMeter``.

    ``comparisons`` counts match tests against *live* state — the same
    work the tuple backend meters — while ``eviction_checks`` counts
    the tests spent finding dead state.  Keeping the two apart is what
    lets the differential tests assert backend comparison parity.

    A slot-store sweep charges what a linear probe scan of a lazily
    compacted active list would visit, read off the store sizes it
    computes anyway: the live entries after each eviction (held-back
    entries included) as comparisons, and each evicted entry as one
    eviction check.  The sweeps read these sizes once per probe (per
    tie group for the Overlap-join), so ``high_water``, the limit test
    and the trace see the same sizes an insertion-by-insertion count
    would.  ``inserted`` equals ``discarded`` once a storing kernel
    returns: every stored entry is discarded exactly once, evicted,
    retired or left over at the end.
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
# Contain-join / Contain-semijoin, both on ValidFrom^ (Table 1 (a), (c))
# ----------------------------------------------------------------------
def _held_x_sweep(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int],
    trace: Optional[List[int]],
    retire: bool,
) -> Tuple[List[int], List[int], SweepStats]:
    """The held-X sweep of Table 1's classes (a) and (c): X and Y both
    sorted ValidFrom ascending, X tuples waiting in the slot store.

    A matching pair has ``x.TS < y.TS``, so the containing X tuple is
    always swept first: one slot store of open X intervals in ValidTo
    order (the disposal endpoint) suffices, probed once per Y element.
    X entries die when ``X.TE <= y.TS`` (the Section-4.2.1 disposal
    rule).  X starts sharing a probe's timestamp are held back until
    the sweep strictly passes them (an equal-time start never strictly
    contains), so every stored entry satisfies ``X.TS < y.TS`` by
    construction and the probe's match set is exactly the store suffix
    with ``X.TE > y.TE`` — one binary search, emitted as one run.
    Held-back entries still count toward the state high-water mark at
    admission and as live entries of the comparison charge.

    The admission loop only stores; the charge is read once per probe,
    after it.  The store size then is the batch's largest (one
    high-water and limit test, the batch's trace extended as a range),
    the comparisons add the size less the evicted entries, and the
    eviction bisect runs only when the store's head is dead.

    ``retire`` is the one difference Table 1 states between the
    classes: the join (a) keeps the matched run and pairs it with
    ``y``; the semijoin (c) emits the run and retires it with one
    ranged delete, since a proven X needs no second witness.  Returns
    the X positions emitted, the Y position of each (empty when
    retiring) and the stats; ``discarded`` counts entries evicted,
    retired, and left when the sweep ended, and ``inserted`` is the
    same count.
    """
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx = len(x_ts)
    ends: List[int] = []  # stored X: ValidTo, ascending
    rows: List[int] = []  # stored X: column position, parallel to ends
    held: List[int] = []  # admitted X rows starting at ``held_ts``
    held_ts = 0
    xi: List[int] = []
    yj: List[int] = []
    comparisons = evicted = retired = high = before = 0
    i = 0
    for j, yts in enumerate(y_ts):
        if i >= nx and not rows and not held:
            break  # X spent and nothing stored: no later probe matches
        if held and held_ts < yts:
            for row in held:
                xte = x_te[row]
                at = bisect_right(ends, xte)
                ends.insert(at, xte)
                rows.insert(at, row)
            del held[:]
        if trace is not None:
            before = len(rows) + len(held)
        # One admission comparison per X row consumed: ``i`` of them,
        # charged once after the sweep.
        while i < nx and (xts := x_ts[i]) <= yts:
            xte = x_te[i]
            if xte > yts:  # skip dead-on-arrival entries
                if xts == yts:
                    held.append(i)
                    held_ts = yts
                else:
                    at = bisect_right(ends, xte)
                    ends.insert(at, xte)
                    rows.insert(at, i)
            i += 1
        # The store only grew during admission, one entry at a time:
        # ``size`` is the batch's largest, and the trace the admissions
        # would have recorded one by one is ``before + 1 .. size``.
        size = len(rows) + len(held)
        if size > high:
            high = size
            if high > budget:
                if trace is not None:
                    trace.extend(range(before + 1, budget + 1))
                raise _overflow(budget)
        if trace is not None:
            trace.extend(range(before + 1, size + 1))
        k = 0
        if ends and ends[0] <= yts:  # the head is dead: evict the prefix
            k = bisect_right(ends, yts)
            del ends[:k]
            del rows[:k]
            evicted += k
        comparisons += size - k
        cut = bisect_right(ends, y_te[j])
        m = len(rows) - cut
        if m:
            if m == 1:
                xi.append(rows[cut])
            else:
                run = rows[cut:]
                run.sort()
                xi += run
            if retire:
                del ends[cut:]
                del rows[cut:]
                retired += m
            elif m == 1:
                yj.append(j)
            else:
                yj += [j] * m
        if trace is not None and (k or (retire and m)):
            trace.append(len(rows) + len(held))
    residue = len(rows) + len(held)
    if trace is not None and residue:
        trace.append(0)
    stats.comparisons = comparisons + i
    stats.eviction_checks = evicted
    # Every stored entry is evicted, retired or left over exactly once.
    stats.inserted = stats.discarded = evicted + retired + residue
    stats.high_water = high
    return xi, yj, stats


def contain_join_ts_ts(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[Tuple[List[int], List[int]], SweepStats]:
    """Contain-join(X, Y), both operands sorted ValidFrom ascending
    (class (a)): the held-X sweep keeping every matched run."""
    xi, yj, stats = _held_x_sweep(
        x_ts, x_te, y_ts, y_te, limit, trace, retire=False
    )
    return (xi, yj), stats


def contain_semijoin_ts_ts(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[List[int], SweepStats]:
    """Contain-semijoin(X, Y), both on ValidFrom^ (class (c)): the
    held-X sweep retiring every matched run, so X candidates wait only
    until a witness arrives or ``X.TE <= y.TS`` proves none ever will."""
    out, _, stats = _held_x_sweep(
        x_ts, x_te, y_ts, y_te, limit, trace, retire=True
    )
    return out, stats


# ----------------------------------------------------------------------
# Contain-join (Table 1 row (b))
# ----------------------------------------------------------------------
def contain_join_ts_te(
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Sequence[int],
    y_te: Sequence[int],
    limit: Optional[int] = None,
    trace: Optional[List[int]] = None,
) -> Tuple[Tuple[List[int], List[int]], SweepStats]:
    """Contain-join(X, Y) with X on ValidFrom^ and Y on ValidTo^
    (Table 1's class-(b) row), with the store kept in each order.

    The merge consumes the smaller of ``x.TS`` and ``y.TE``; a matching
    pair satisfies ``x.TS < y.TS < y.TE < x.TE``, so X is always
    consumed first and one X store suffices.  X entries die once
    ``X.TE <= y.TE`` — future Y end no earlier (Y is ValidTo sorted)
    and can never end strictly inside them — while the match set of a
    probe is ``X.TS < y.TS``.  So the store is kept in *start* order
    for probing, and in ValidTo order to identify the disposal prefix.
    X arrives in ValidFrom order, so the start-ordered pair is
    append-only and ascending in position: an evicted entry is found in
    it by bisecting for its position.  After the ranged eviction every
    stored entry satisfies ``X.TE > y.TE``, so the probe's match set is
    exactly the prefix with ``X.TS < y.TS``: one binary search and one
    run per probe, already in position order.
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
    comparisons = inserted = discarded = high = 0
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
        if k:
            for row in end_rows[:k]:
                at = bisect_left(rows, row)
                del starts[at]
                del rows[at]
            del ends[:k]
            del end_rows[:k]
            discarded += k
            if trace is not None:
                trace.append(len(rows))
        # Every survivor ends after y.TE; starts before y.TS == match.
        comparisons += len(rows)
        cut = bisect_left(starts, y_ts[j])
        if cut:
            xi.extend(rows[:cut])
            yj += [j] * cut
    stats.eviction_checks = discarded  # so far, every one evicted
    discarded += len(rows)
    if trace is not None and rows:
        trace.append(0)
    stats.comparisons = comparisons
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return (xi, yj), stats


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
    the moment it is consumed.  The state is the waiting Y side, and
    only its ValidTo column — no stored row is ever emitted.  Every
    stored Y starts strictly before the consumed X (strict admission),
    so X is contained in *some* stored Y iff the store's maximum
    ValidTo exceeds ``X.TE``: an O(1) test against the last slot, charged
    as the live entries a probe scan would have visited."""
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    ends: List[int] = []  # stored Y: ValidTo, ascending
    out: List[int] = []
    append = out.append
    comparisons = inserted = discarded = high = 0
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
        if k:
            del ends[:k]
            discarded += k
            if trace is not None:
                trace.append(len(ends))
        comparisons += len(ends)
        if ends and ends[-1] > x_te[i]:
            append(i)
    stats.eviction_checks = discarded  # so far, every one evicted
    discarded += len(ends)
    if trace is not None and ends:
        trace.append(0)
    stats.comparisons = comparisons
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
    the accounting the scan would have charged.  The members are
    appended to their own active list, and the state charge is taken
    once per group after them: one high-water and limit test on the
    group's final size, the trace extended by the range of sizes the
    members reached; ``inserted`` is ``discarded`` at the end.
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
    comparisons = eviction_checks = discarded = cur = high = 0
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
            start = i
            keep = j < ny  # an X tuple only joins future Y if any remain
            while True:
                if keep:
                    x_active.append((x_te[i], i))
                i += 1
                if i == nx or x_ts[i] != p:
                    break
                # Next member of the tie group: ``y_active`` is as the
                # scan left it (all alive, nothing to evict), so its w
                # survivors are the last w positions emitted.
                if w:
                    if run is None:
                        run = out_y[-w:]
                    extend_x([i] * w)
                    extend_y(run)
                    comparisons += w
            stored = i - start if keep else 0
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
            start = j
            keep = i < nx
            while True:
                if keep:
                    y_active.append((y_te[j], j))
                j += 1
                if j == ny or y_ts[j] != p:
                    break
                if w:
                    if run is None:
                        run = out_x[-w:]
                    extend_x(run)
                    extend_y([j] * w)
                    comparisons += w
            stored = j - start if keep else 0
        else:
            break
        # The group's members were stored one by one: the trace they
        # would have recorded is ``before + 1 .. cur``, and ``cur`` is
        # the group's largest size.
        if stored:
            before = cur
            cur += stored
            if cur > high:
                high = cur
                if high > budget:
                    if trace is not None:
                        trace.extend(range(before + 1, budget + 1))
                    raise _overflow(budget)
            if trace is not None:
                trace.extend(range(before + 1, cur + 1))
    discarded += cur
    if trace is not None and cur:
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    # Every stored entry is evicted or left over exactly once.
    stats.inserted = stats.discarded = discarded
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
    not-yet-proven-container candidates wait in a ValidTo-ordered slot
    store.  Each element evicts the disposal prefix (``TE <= ts``), then
    the candidates it proves to be containers form the store suffix
    with ``TE > te`` — minus same-start peers, which the closed-open tie
    law keeps unmatched (an equal-time start never strictly contains).
    The suffix entries are already charged as live
    entries, so their same-start test costs nothing extra."""
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx = len(x_ts)
    ends: List[int] = []  # stored X: ValidTo, ascending
    rows: List[int] = []  # stored X: column position, parallel to ends
    out: List[int] = []
    comparisons = evicted = inserted = high = 0
    for i in range(nx):
        ts = x_ts[i]
        te = x_te[i]
        k = bisect_right(ends, ts)
        dropped = k
        if k:
            del ends[:k]
            del rows[:k]
            evicted += k
        live = len(rows)
        comparisons += live
        cut = bisect_right(ends, te)
        if cut < live:
            matched: List[int] = []
            keep_ends: List[int] = []
            keep_rows: List[int] = []
            for end, row in zip(ends[cut:], rows[cut:]):
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
        if dropped and trace is not None:
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
    if trace is not None and rows:
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = evicted
    stats.inserted = inserted
    # Evicted, retired one per emitted row, or left when the sweep ended.
    stats.discarded = evicted + len(out) + len(rows)
    stats.high_water = high
    return out, stats
