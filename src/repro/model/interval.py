"""Half-open time intervals ``[start, end)``.

An :class:`Interval` is the lifespan ``[ValidFrom, ValidTo)`` of a
temporal tuple (Section 2).  ``start < end`` is the paper's intra-tuple
integrity constraint and is enforced at construction.

The thirteen Allen relationships of Figure 2 are exposed both here as
pairwise predicate methods (``equal``, ``meets``, ``starts``,
``finishes``, ``during``, ``overlaps``, ``before`` and their inverses)
and, in symbolic/classified form, in :mod:`repro.allen`.

Note the two distinct notions of "overlap" used by the paper:

* :meth:`overlaps` — Allen's *overlaps* (Figure 2, row 6): strict
  partial overlap where ``X`` starts first and ends inside ``Y``.
* :meth:`intersects` — the TQuel/Snodgrass *overlap* used in the
  Superstar query: the intervals share at least one timepoint
  (``X.TS < Y.TE and Y.TS < X.TE``).  This is the union of Allen's
  equal/starts/finishes/during/overlaps and their inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    TypeVar,
)

from ..errors import InvalidIntervalError
from .time_domain import Timepoint, validate_timepoint


def check_lifespan(start: Timepoint, end: Timepoint) -> None:
    """The intra-tuple integrity constraint, the one definition of it:
    both endpoints are :func:`~repro.model.time_domain.validate_timepoint`
    timepoints (``TypeError`` otherwise) and ``start < end``
    (:class:`~repro.errors.InvalidIntervalError` otherwise)."""
    validate_timepoint(start, "start")
    validate_timepoint(end, "end")
    if not start < end:
        raise InvalidIntervalError(
            f"interval requires start < end, got [{start}, {end})"
        )


class HasLifespan(Protocol):
    """Anything carrying a half-open lifespan ``[valid_from, valid_to)``
    — :class:`~repro.model.tuples.TemporalTuple` and (via its alias
    properties) :class:`Interval` itself."""

    @property
    def valid_from(self) -> Timepoint: ...

    @property
    def valid_to(self) -> Timepoint: ...


@dataclass(frozen=True, slots=True, order=True)
class Interval:
    """A half-open interval ``[start, end)`` over discrete time.

    Ordering (``<`` etc.) is lexicographic on ``(start, end)``, which is
    the paper's "primary sort on ValidFrom, secondary on ValidTo"
    ordering used by the self-semijoin algorithm of Section 4.2.3.
    """

    start: Timepoint
    end: Timepoint

    def __post_init__(self) -> None:
        check_lifespan(self.start, self.end)

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------
    @property
    def valid_from(self) -> Timepoint:
        """Alias for :attr:`start`, so intervals satisfy the
        :class:`HasLifespan` protocol used by the tie-safe comparators
        below."""
        return self.start

    @property
    def valid_to(self) -> Timepoint:
        """Alias for :attr:`end` (see :attr:`valid_from`)."""
        return self.end

    @property
    def duration(self) -> int:
        """Number of timepoints in the interval (``end - start``)."""
        return self.end - self.start

    def __contains__(self, point: object) -> bool:
        """``t in interval`` — membership of a timepoint."""
        return isinstance(point, int) and self.start <= point < self.end

    def points(self) -> Iterator[Timepoint]:
        """Iterate the timepoints in the interval."""
        return iter(range(self.start, self.end))

    def shift(self, delta: int) -> "Interval":
        """Return the interval translated by ``delta`` timepoints."""
        return Interval(self.start + delta, self.end + delta)

    # ------------------------------------------------------------------
    # the 13 Allen relationships (Figure 2) as pairwise predicates
    # ------------------------------------------------------------------
    def equal(self, other: "Interval") -> bool:
        """(1) ``X equal Y``: same start and end."""
        return self.start == other.start and self.end == other.end

    def meets(self, other: "Interval") -> bool:
        """(2) ``X meets Y``: ``X.TE = Y.TS``."""
        return self.end == other.start

    def met_by(self, other: "Interval") -> bool:
        """Inverse of :meth:`meets`."""
        return other.meets(self)

    def starts(self, other: "Interval") -> bool:
        """(3) ``X starts Y``: same start, X ends strictly earlier."""
        return self.start == other.start and self.end < other.end

    def started_by(self, other: "Interval") -> bool:
        """Inverse of :meth:`starts`."""
        return other.starts(self)

    def finishes(self, other: "Interval") -> bool:
        """(4) ``X finishes Y``: same end, X starts strictly later."""
        return self.end == other.end and self.start > other.start

    def finished_by(self, other: "Interval") -> bool:
        """Inverse of :meth:`finishes`."""
        return other.finishes(self)

    def during(self, other: "Interval") -> bool:
        """(5) ``X during Y``: X strictly inside Y on both ends."""
        return self.start > other.start and self.end < other.end

    def contains(self, other: "Interval") -> bool:
        """Inverse of :meth:`during` — the Contain-join condition:
        ``X.TS < Y.TS < Y.TE < X.TE`` (Section 4.2.1)."""
        return other.during(self)

    def overlaps(self, other: "Interval") -> bool:
        """(6) Allen's ``X overlaps Y``: X starts first and ends inside
        Y: ``X.TS < Y.TS and X.TE > Y.TS and X.TE < Y.TE``."""
        return self.start < other.start < self.end < other.end

    def overlapped_by(self, other: "Interval") -> bool:
        """Inverse of :meth:`overlaps`."""
        return other.overlaps(self)

    def before(self, other: "Interval") -> bool:
        """(7) ``X before Y``: ``X.TE < Y.TS`` (a gap separates them)."""
        return self.end < other.start

    def after(self, other: "Interval") -> bool:
        """Inverse of :meth:`before`."""
        return other.before(self)

    # ------------------------------------------------------------------
    # the TQuel-style general overlap used by the Superstar query
    # ------------------------------------------------------------------
    def intersects(self, other: "Interval") -> bool:
        """TQuel/Snodgrass ``overlap``: the intervals share a timepoint,
        ``X.TS < Y.TE and Y.TS < X.TE``.  This is the disjunction of
        equal, starts, finishes, during, overlaps and their inverses."""
        return self.start < other.end and other.start < self.end

    def is_adjacent(self, other: "Interval") -> bool:
        """True when one interval meets the other (no gap, no overlap)."""
        return self.meets(other) or other.meets(self)

    # ------------------------------------------------------------------
    # set-like constructions
    # ------------------------------------------------------------------
    def intersection(self, other: "Interval") -> Optional["Interval"]:
        """The shared sub-interval, or ``None`` when disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo < hi:
            return Interval(lo, hi)
        return None

    def span(self, other: "Interval") -> "Interval":
        """The smallest interval covering both operands."""
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def union(self, other: "Interval") -> Optional["Interval"]:
        """The merged interval when the operands intersect or are
        adjacent; ``None`` when a gap separates them."""
        if self.intersects(other) or self.is_adjacent(other):
            return self.span(other)
        return None

    def gap(self, other: "Interval") -> Optional["Interval"]:
        """The interval strictly between the two operands, or ``None``
        when they touch or overlap.  For the Superstar query this is the
        associate-rank period ``[f1.TE, f2.TS)`` between an assistant
        tuple and a full-professor tuple (Figure 8)."""
        if self.before(other):
            return Interval(self.end, other.start)
        if other.before(self):
            return Interval(other.end, self.start)
        return None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start}, {self.end})"


# ----------------------------------------------------------------------
# Tie-safe endpoint comparators
# ----------------------------------------------------------------------
# Under the half-open convention ``[ValidFrom, ValidTo)`` the choice
# between ``<`` and ``<=`` at an endpoint tie IS the operator semantics:
# ``a.TE <= b.TS`` means "a is over before b begins" (Allen meets-or-
# before), while ``a.TE < b.TS`` additionally requires a gap (Allen
# before).  PR 1's tie-semantics audit fixed several kernels that had
# the wrong strictness at exactly these boundaries.  To keep that from
# drifting back in, every comparison of interval endpoints outside this
# module must go through the named comparators below — the
# ``raw_endpoint_ordering`` check of ``tests/analysis/test_source_rules.py``
# enforces it.
#
# Two families:
#
# * *point form* — compare one endpoint against a sweep position (an
#   ``int`` timepoint or a ``float`` expected-key estimate);
# * *lifespan form* — compare the endpoints of two lifespan carriers.
#
# All of them are trivial one-liners on purpose: the value is the
# single, named, tested definition, not the code.

# -- point form --------------------------------------------------------
def starts_by(t: HasLifespan, point: float) -> bool:
    """``t.ValidFrom <= point`` — ``t`` has started by ``point``."""
    return t.valid_from <= point


def starts_before(t: HasLifespan, point: float) -> bool:
    """``t.ValidFrom < point`` — ``t`` started strictly before."""
    return t.valid_from < point


def starts_after(t: HasLifespan, point: float) -> bool:
    """``t.ValidFrom > point`` — ``t`` starts strictly after."""
    return t.valid_from > point


def ends_by(t: HasLifespan, point: float) -> bool:
    """``t.ValidTo <= point`` — the half-open lifespan is over at
    ``point`` (a tuple ending exactly at the sweep position is dead)."""
    return t.valid_to <= point


def ends_before(t: HasLifespan, point: float) -> bool:
    """``t.ValidTo < point`` — over, with a gap before ``point``."""
    return t.valid_to < point


def ends_after(t: HasLifespan, point: float) -> bool:
    """``t.ValidTo > point`` — still live strictly past ``point``."""
    return t.valid_to > point


def covers_point(t: HasLifespan, point: float) -> bool:
    """``t.ValidFrom <= point < t.ValidTo`` — membership under the
    half-open convention (the endpoint itself is NOT covered)."""
    return t.valid_from <= point < t.valid_to


def is_valid_lifespan(t: HasLifespan) -> bool:
    """The intra-tuple integrity constraint ``ValidFrom < ValidTo``."""
    return t.valid_from < t.valid_to


def lifespan_key(t: HasLifespan) -> tuple:
    """The canonical ``(ValidFrom, ValidTo)`` sort key — primary on
    ValidFrom, ties broken on ValidTo, exactly the Section-4.2.3
    ordering.  Use as ``sorted(..., key=lifespan_key)`` instead of an
    inline endpoint lambda."""
    return (t.valid_from, t.valid_to)


# -- lifespan form -----------------------------------------------------
# Each comparator a sweep probes its state with is followed by its two
# bulk forms, one specialised comprehension each (``within_lifespan``'s
# read ``contains_lifespan``'s from the other side); see ``BULK_FORMS``.
LifespanT = TypeVar("LifespanT", bound=HasLifespan)


def starts_no_later(a: HasLifespan, b: HasLifespan) -> bool:
    """``a.TS <= b.TS`` — ``a`` starts no later than ``b``; ties count.
    The Section-4.2.1 disposal test "every future Y starts at or after
    ``b.TS``, so it cannot start strictly before ``a``"."""
    return a.valid_from <= b.valid_from


def starts_strictly_before(a: HasLifespan, b: HasLifespan) -> bool:
    """``a.TS < b.TS`` — strict start precedence (ties excluded)."""
    return a.valid_from < b.valid_from


def ends_no_later(a: HasLifespan, b: HasLifespan) -> bool:
    """``a.TE <= b.TE`` — ``a`` ends no later than ``b``; ties count."""
    return a.valid_to <= b.valid_to


def ends_strictly_before(a: HasLifespan, b: HasLifespan) -> bool:
    """``a.TE < b.TE`` — strict end precedence (ties excluded)."""
    return a.valid_to < b.valid_to


def ends_by_start(a: HasLifespan, b: HasLifespan) -> bool:
    """``a.TE <= b.TS`` — the lifespans are disjoint with ``a`` first
    (half-open: touching endpoints do NOT share a timepoint).  The
    canonical garbage-collection criterion of the sweep algorithms."""
    return a.valid_to <= b.valid_from


def ends_before_start(a: HasLifespan, b: HasLifespan) -> bool:
    """``a.TE < b.TS`` — Allen's *before*: a gap separates the
    lifespans (stricter than :func:`ends_by_start`)."""
    return a.valid_to < b.valid_from


def ends_before_start_held_first(
    items: List[LifespanT], b: HasLifespan
) -> List[LifespanT]:
    """``[a for a in items if ends_before_start(a, b)]``."""
    ts = b.valid_from
    return [a for a in items if a.valid_to < ts]


def ends_before_start_held_second(
    a: HasLifespan, items: List[LifespanT]
) -> List[LifespanT]:
    """``[c for c in items if ends_before_start(a, c)]``."""
    te = a.valid_to
    return [c for c in items if te < c.valid_from]


def contains_lifespan(a: HasLifespan, b: HasLifespan) -> bool:
    """``a.TS < b.TS and b.TE < a.TE`` — ``a`` strictly contains ``b``
    (the Contain-join condition of Section 4.2.1; both inequalities
    strict, so sharing either endpoint is not containment)."""
    return a.valid_from < b.valid_from and b.valid_to < a.valid_to


def contains_lifespan_held_first(
    items: List[LifespanT], b: HasLifespan
) -> List[LifespanT]:
    """``[a for a in items if contains_lifespan(a, b)]``."""
    ts, te = b.valid_from, b.valid_to
    return [a for a in items if a.valid_from < ts and te < a.valid_to]


def contains_lifespan_held_second(
    a: HasLifespan, items: List[LifespanT]
) -> List[LifespanT]:
    """``[c for c in items if contains_lifespan(a, c)]``."""
    ts, te = a.valid_from, a.valid_to
    return [c for c in items if ts < c.valid_from and c.valid_to < te]


def within_lifespan(a: HasLifespan, b: HasLifespan) -> bool:
    """``b.TS < a.TS and a.TE < b.TE`` — ``a`` lies strictly inside
    ``b``: :func:`contains_lifespan` read from the contained side (the
    Contained-semijoin condition)."""
    return contains_lifespan(b, a)


def within_lifespan_held_first(
    items: List[LifespanT], b: HasLifespan
) -> List[LifespanT]:
    """``[a for a in items if within_lifespan(a, b)]``: the held
    tuples ``b`` contains."""
    return contains_lifespan_held_second(b, items)


def within_lifespan_held_second(
    a: HasLifespan, items: List[LifespanT]
) -> List[LifespanT]:
    """``[c for c in items if within_lifespan(a, c)]``: the held
    tuples that contain ``a``."""
    return contains_lifespan_held_first(items, a)


def lifespans_intersect(a: HasLifespan, b: HasLifespan) -> bool:
    """``a.TS < b.TE and b.TS < a.TE`` — the TQuel/Snodgrass *overlap*:
    the lifespans share at least one timepoint.  Meeting endpoints
    (``a.TE == b.TS``) do NOT intersect under the half-open
    convention."""
    return a.valid_from < b.valid_to and b.valid_from < a.valid_to


def lifespans_intersect_held_first(
    items: List[LifespanT], b: HasLifespan
) -> List[LifespanT]:
    """``[a for a in items if lifespans_intersect(a, b)]``."""
    ts, te = b.valid_from, b.valid_to
    return [a for a in items if a.valid_from < te and ts < a.valid_to]


def lifespans_intersect_held_second(
    a: HasLifespan, items: List[LifespanT]
) -> List[LifespanT]:
    """``[c for c in items if lifespans_intersect(a, c)]``."""
    ts, te = a.valid_from, a.valid_to
    return [c for c in items if ts < c.valid_to and c.valid_from < te]


# -- bulk form ---------------------------------------------------------
Comparator = Callable[[HasLifespan, HasLifespan], bool]


class BulkForms(NamedTuple):
    """A lifespan comparator ``match`` applied to a whole state list
    at once, keeping the list's order.  A sweep probes its state with
    these: the state tuple is ``match``'s first argument where the
    state holds X tuples, its second where it holds Y tuples."""

    #: ``held_first(items, b) == [a for a in items if match(a, b)]``
    held_first: Callable[[List[LifespanT], HasLifespan], List[LifespanT]]
    #: ``held_second(a, items) == [c for c in items if match(a, c)]``
    held_second: Callable[[HasLifespan, List[LifespanT]], List[LifespanT]]


#: Each lifespan-form comparator a sweep declares as its ``match``,
#: with the bulk forms written beside it above.
BULK_FORMS: Dict[Comparator, BulkForms] = {
    contains_lifespan: BulkForms(
        contains_lifespan_held_first, contains_lifespan_held_second
    ),
    within_lifespan: BulkForms(
        within_lifespan_held_first, within_lifespan_held_second
    ),
    lifespans_intersect: BulkForms(
        lifespans_intersect_held_first, lifespans_intersect_held_second
    ),
    ends_before_start: BulkForms(
        ends_before_start_held_first, ends_before_start_held_second
    ),
}


def bulk_forms(match: Comparator) -> BulkForms:
    """``match``'s registered bulk forms; for any other predicate (an
    ad-hoc join condition), the generic comprehensions over it."""
    forms = BULK_FORMS.get(match)
    if forms is not None:
        return forms
    return BulkForms(
        lambda items, b: [a for a in items if match(a, b)],
        lambda a, items: [c for c in items if match(a, c)],
    )


# -- disposal form -----------------------------------------------------
class Disposal(NamedTuple):
    """A sweep's garbage-collection criterion, declared as data: a held
    state tuple is disposable once ``held.<held> <= buffer.<bound>``,
    where ``buffer`` is the opposite stream's buffered tuple and
    ``bound`` names that stream's sweep key.  Ties dispose: every
    Section-4.2 criterion is ``<=`` (:func:`ends_by_start`,
    :func:`starts_no_later`, :func:`ends_no_later`).  A processor
    declares ``None`` where no criterion exists."""

    held: str
    bound: str


def disposable_at(
    held: HasLifespan, rule: Optional[Disposal], point: float
) -> bool:
    """Point form of ``rule``: ``held.<rule.held> <= point``, the
    opposite sweep key at ``point`` (never, for ``rule=None``)."""
    return rule is not None and getattr(held, rule.held) <= point


def disposable(
    held: HasLifespan, rule: Optional[Disposal], buffer: HasLifespan
) -> bool:
    """``rule`` for one held tuple against the opposite buffer."""
    return rule is not None and disposable_at(
        held, rule, getattr(buffer, rule.bound)
    )


def surviving(
    items: List[LifespanT], rule: Disposal, buffer: HasLifespan
) -> List[LifespanT]:
    """Bulk form of :func:`disposable`: the ``items`` the rule keeps
    against ``buffer``, in order, in one pass — the strict complement
    ``held.<rule.held> > buffer.<rule.bound>``."""
    point = getattr(buffer, rule.bound)
    if rule.held == "valid_to":
        return [t for t in items if t.valid_to > point]
    if rule.held == "valid_from":
        return [t for t in items if t.valid_from > point]
    raise ValueError(f"{rule.held!r} is not an interval endpoint")
