"""Contiguous-range shard planning over endpoint columns.

The paper's Tables 1-3 characterise each (operator, sort order) cell by
the *local workspace* a single sweep needs: the open X tuples and the
waiting Y tuples around the sweep point.  That is exactly what a range
partitioner needs — any contiguous slice of the sorted X input can be
swept independently as long as the shard also sees every Y tuple its
slice's workspace would have held:

* **X is sharded positionally** into K contiguous slices of the sorted
  input (:func:`slice_bounds`).  Tuples with equal sort keys may
  straddle a cut, but each has exactly one owner shard, so no pair is
  ever produced twice and joins and semijoins need no dedup pass.
* **Y is replicated by necessity window.**  The owned slice's endpoint
  aggregates (min/max of TS and TE) bound which Y tuples can possibly
  satisfy the operator's predicate against an owned X tuple
  (``_RANGE_ATOMS``, non-strict supersets of the strict Section-4.2
  predicates — the replicate-and-filter boundary rule of Piatov et
  al.).  A shard is handed the smallest **contiguous index range**
  covering its window: any superset of the window yields identical
  output, because the kernels evaluate the exact predicates, and a
  range is all a shard needs to name its input — ``(lo, hi)`` offsets
  into the operand columns, never a tuple object.
* **Self semijoins** take the convex hull of the window range and the
  owned slice (the kernel input must contain every owned tuple); the
  shard body drops outputs owned by another shard.
* **Before-semijoin** only ever consumes ``max(Y.TS)`` (Section
  4.2.4), so every shard gets the single ``argmax(TS, TE)`` index.

The range is found in O(log n) per endpoint atom with binary searches
over monotone accumulate arrays:

* an atom on any column ``C`` of the form ``C >= A`` selects positions
  between the first and last index holding a value ``>= A``; the first
  is located on the prefix-maximum of ``C`` (non-decreasing), the last
  on the suffix-maximum (non-increasing);
* ``C <= B`` dually uses the prefix-/suffix-minimum arrays.

The accumulate arrays are built once per plan (O(n)); each shard then
costs four binary searches.  This works for *any* declared sort order —
ascending, descending, mirrored — because no monotonicity of the
columns themselves is assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..streams.registry import RegistryEntry, TemporalOperator

#: Operators whose shard input is the relation itself (Table 3): a
#: view of ``TemporalOperator.shape``, kept under the name the shard
#: tests import.
SELF_OPERATORS = frozenset(
    op for op in TemporalOperator if op.shape == "self"
)

#: operator -> necessity-window atoms over the Y (or, for self
#: operators, context) columns.  Each atom is (column, comparison,
#: aggregate) with column in {"ts", "te"}, comparison in {">=", "<="},
#: and aggregate in {"min_ts", "max_ts", "min_te", "max_te"} taken
#: over the shard's owned X slice.
_RANGE_ATOMS = {
    TemporalOperator.CONTAIN_JOIN: (
        ("ts", ">=", "min_ts"),
        ("te", "<=", "max_te"),
    ),
    TemporalOperator.CONTAIN_SEMIJOIN: (
        ("ts", ">=", "min_ts"),
        ("te", "<=", "max_te"),
    ),
    TemporalOperator.CONTAINED_SEMIJOIN: (
        ("ts", "<=", "max_ts"),
        ("te", ">=", "min_te"),
    ),
    TemporalOperator.OVERLAP_JOIN: (
        ("te", ">=", "min_ts"),
        ("ts", "<=", "max_te"),
    ),
    TemporalOperator.OVERLAP_SEMIJOIN: (
        ("te", ">=", "min_ts"),
        ("ts", "<=", "max_te"),
    ),
    TemporalOperator.SELF_CONTAINED_SEMIJOIN: (
        ("ts", "<=", "max_ts"),
        ("te", ">=", "min_te"),
    ),
    TemporalOperator.SELF_CONTAIN_SEMIJOIN: (
        ("ts", ">=", "min_ts"),
        ("te", "<=", "max_te"),
    ),
}


@dataclass(frozen=True)
class ShardRange:
    """One shard as pure offsets into the published operand columns."""

    index: int
    #: Owned X slice [lo, hi) — also the kernel's X input for binary
    #: operators.
    owned_lo: int
    owned_hi: int
    #: Kernel context range: the Y slice for binary operators, the
    #: relation slice (hull of window and owned) for self operators,
    #: the single-representative slice for before-semijoin.
    y_lo: int
    y_hi: int

    @property
    def owned_count(self) -> int:
        return self.owned_hi - self.owned_lo

    @property
    def context_count(self) -> int:
        return self.y_hi - self.y_lo


@dataclass
class RangePlan:
    """The shards plus the accounting EXPLAIN ANALYZE reports on."""

    operator: TemporalOperator
    requested_shards: int
    ranges: List[ShardRange] = field(default_factory=list)
    x_total: int = 0
    y_total: int = 0
    shipped_total: int = 0
    replicated_total: int = 0
    boundary_spanning: int = 0
    cuts: List[int] = field(default_factory=list)
    skew_ratio: float = 1.0

    @property
    def effective_shards(self) -> int:
        return len(self.ranges)

    def as_dict(self) -> dict:
        unary = self.operator.shape == "self"
        return {
            "operator": self.operator.value,
            "strategy": "range",
            "requested_shards": self.requested_shards,
            "effective_shards": self.effective_shards,
            "x_total": self.x_total,
            "y_total": self.y_total,
            "shipped_total": self.shipped_total,
            "replicated_total": self.replicated_total,
            "boundary_spanning": self.boundary_spanning,
            "cuts": list(self.cuts),
            "skew_ratio": round(self.skew_ratio, 3),
            "shard_sizes": [
                {
                    "x": r.context_count if unary else r.owned_count,
                    "y": 0 if unary else r.context_count,
                }
                for r in self.ranges
            ],
        }


# ----------------------------------------------------------------------
# monotone accumulate arrays + binary search
# ----------------------------------------------------------------------
def _first_true(lo: int, hi: int, predicate: Callable[[int], bool]) -> int:
    """First index in [lo, hi) where the monotone (false...false,
    true...true) predicate holds; ``hi`` when it never does."""
    while lo < hi:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class _ColumnEnvelope:
    """Prefix/suffix extrema of one column, for O(log n) atom ranges.

    ``prefix_max[p]`` / ``prefix_min[p]`` cover positions [0, p);
    ``suffix_max[p]`` / ``suffix_min[p]`` cover positions [p, n).
    All four are monotone in ``p`` by construction, which is what makes
    the atom ranges binary-searchable regardless of the column's own
    ordering.
    """

    def __init__(self, column: Sequence[int]):
        n = len(column)
        self.n = n
        # C-speed running extrema; index 0 of the prefix arrays (the
        # empty prefix) is a placeholder that atom_range never reads.
        values = list(column)
        self._prefix_max = [0] + list(accumulate(values, max))
        self._prefix_min = [0] + list(accumulate(values, min))
        values.reverse()
        suffix_max = list(accumulate(values, max))
        suffix_max.reverse()
        suffix_max.append(0)  # empty suffix placeholder at index n
        suffix_min = list(accumulate(values, min))
        suffix_min.reverse()
        suffix_min.append(0)
        self._suffix_max = suffix_max
        self._suffix_min = suffix_min

    def atom_range(self, comparison: str, bound: int) -> Tuple[int, int]:
        """Smallest [lo, hi) containing every position satisfying
        ``column <comparison> bound``; empty ranges come back as
        (0, 0)."""
        n = self.n
        if n == 0:
            return (0, 0)
        # Prefix arrays are searched over p in [1, n] (p = 0 would read
        # the extremum of an empty prefix, which has no sentinel).
        if comparison == ">=":
            # first p with max(column[0:p]) >= bound is one past the
            # first satisfying position; suffix-max locates the last.
            first_prefix = _first_true(
                1, n + 1, lambda p: self._prefix_max[p] >= bound
            )
            lo = first_prefix - 1
            hi = _first_true(0, n, lambda p: self._suffix_max[p] < bound)
        else:
            first_prefix = _first_true(
                1, n + 1, lambda p: self._prefix_min[p] <= bound
            )
            lo = first_prefix - 1
            hi = _first_true(0, n, lambda p: self._suffix_min[p] > bound)
        if first_prefix > n or hi <= lo:
            return (0, 0)
        return (lo, hi)


@dataclass(frozen=True)
class _Aggregates:
    """Endpoint aggregates of one owned slice, column-computed."""

    min_ts: int
    max_ts: int
    min_te: int
    max_te: int


def _slice_aggregates(
    x_ts: Sequence[int], x_te: Sequence[int], lo: int, hi: int
) -> _Aggregates:
    ts_slice = x_ts[lo:hi]
    te_slice = x_te[lo:hi]
    return _Aggregates(
        min(ts_slice), max(ts_slice), min(te_slice), max(te_slice)
    )


def _intersect(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if hi > lo else (0, 0)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def slice_bounds(total: int, shards: int) -> List[Tuple[int, int]]:
    """Equi-count positional [lo, hi) slices; the last shards absorb
    the remainder.  Empty slices (shards > total) are dropped."""
    if shards < 1:
        raise ExecutionError("shard count must be at least 1")
    bounds = []
    for i in range(shards):
        lo = (i * total) // shards
        hi = ((i + 1) * total) // shards
        if hi > lo:
            bounds.append((lo, hi))
    return bounds


def plan_ranges(
    entry: RegistryEntry,
    x_ts: Sequence[int],
    x_te: Sequence[int],
    y_ts: Optional[Sequence[int]] = None,
    y_te: Optional[Sequence[int]] = None,
    shards: int = 2,
) -> RangePlan:
    """Plan ``shards`` contiguous-range shards over endpoint columns.

    Columns must be positionally aligned with the tuple sequences the
    caller will decode results against, in the entry's declared orders.
    """
    operator = entry.operator
    plan = RangePlan(operator=operator, requested_shards=shards)
    plan.x_total = len(x_ts)
    if operator.shape == "self":
        _plan_self(plan, x_ts, x_te, shards)
    elif operator is TemporalOperator.BEFORE_SEMIJOIN:
        _plan_before(plan, x_ts, y_ts, y_te, shards)
    else:
        _plan_windowed(plan, x_ts, x_te, y_ts, y_te, shards)
    _finish_accounting(plan)
    return plan


def _window_range(
    operator: TemporalOperator,
    envelopes: dict,
    aggregates: _Aggregates,
    total: int,
) -> Tuple[int, int]:
    """Contiguous superset of the operator's necessity window."""
    try:
        atoms = _RANGE_ATOMS[operator]
    except KeyError:
        raise ExecutionError(
            f"{operator.value} has no partitioning rule"
        ) from None
    window = (0, total)
    for column, comparison, aggregate in atoms:
        bound = getattr(aggregates, aggregate)
        window = _intersect(
            window, envelopes[column].atom_range(comparison, bound)
        )
    return window


def _plan_windowed(plan, x_ts, x_te, y_ts, y_te, shards) -> None:
    if y_ts is None or y_te is None:
        raise ExecutionError(
            f"{plan.operator.value} is binary; y columns are required"
        )
    plan.y_total = len(y_ts)
    envelopes = {
        "ts": _ColumnEnvelope(y_ts),
        "te": _ColumnEnvelope(y_te),
    }
    for index, (lo, hi) in enumerate(slice_bounds(len(x_ts), shards)):
        aggregates = _slice_aggregates(x_ts, x_te, lo, hi)
        y_lo, y_hi = _window_range(
            plan.operator, envelopes, aggregates, len(y_ts)
        )
        plan.ranges.append(ShardRange(index, lo, hi, y_lo, y_hi))


def _plan_before(plan, x_ts, y_ts, y_te, shards) -> None:
    """Before-semijoin consumes only ``max(Y.TS)``: every shard gets
    the single argmax representative's index range."""
    if y_ts is None or y_te is None:
        raise ExecutionError(
            f"{plan.operator.value} is binary; y columns are required"
        )
    plan.y_total = len(y_ts)
    representative: Optional[int] = None
    if len(y_ts):
        best = None
        for i in range(len(y_ts)):
            key = (y_ts[i], y_te[i])
            if best is None or key > best:
                best, representative = key, i
    for index, (lo, hi) in enumerate(slice_bounds(len(x_ts), shards)):
        if representative is None:
            y_lo = y_hi = 0
        else:
            y_lo, y_hi = representative, representative + 1
        plan.ranges.append(ShardRange(index, lo, hi, y_lo, y_hi))


def _plan_self(plan, x_ts, x_te, shards) -> None:
    """Table-3 self semijoins: the context range is the hull of the
    necessity window and the owned slice, so the kernel input always
    contains every owned tuple."""
    envelopes = {
        "ts": _ColumnEnvelope(x_ts),
        "te": _ColumnEnvelope(x_te),
    }
    for index, (lo, hi) in enumerate(slice_bounds(len(x_ts), shards)):
        aggregates = _slice_aggregates(x_ts, x_te, lo, hi)
        w_lo, w_hi = _window_range(
            plan.operator, envelopes, aggregates, len(x_ts)
        )
        if w_hi <= w_lo:
            context = (lo, hi)
        else:
            context = (min(w_lo, lo), max(w_hi, hi))
        plan.ranges.append(
            ShardRange(index, lo, hi, context[0], context[1])
        )


def _finish_accounting(plan: RangePlan) -> None:
    plan.cuts = [r.owned_lo for r in plan.ranges[1:]]
    plan.shipped_total = sum(r.context_count for r in plan.ranges)
    total = plan.x_total if plan.operator.shape == "self" else plan.y_total
    if total and plan.ranges:
        coverage = [0] * (total + 1)
        for r in plan.ranges:
            if r.y_hi > r.y_lo:
                coverage[r.y_lo] += 1
                coverage[r.y_hi] -= 1
        depth, spanning, replicated = 0, 0, 0
        for delta in coverage[:total]:
            depth += delta
            if depth > 1:
                spanning += 1
                replicated += depth - 1
        plan.boundary_spanning = spanning
        plan.replicated_total = replicated
    if plan.ranges:
        unary = plan.operator.shape == "self"
        work = [
            r.context_count if unary else r.owned_count + r.context_count
            for r in plan.ranges
        ]
        mean = sum(work) / len(work)
        plan.skew_ratio = (max(work) / mean) if mean else 1.0
