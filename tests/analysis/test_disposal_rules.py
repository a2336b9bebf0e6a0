"""The tuple processors' declared disposal rules against the symbolic
derivation of Tables 1-3, and against the per-tuple comparators the
processors used before they declared them.

A state-keeping processor declares each garbage-collection criterion
as data, ``Disposal(held, bound)``: a held state tuple is disposable
once ``held.<held> <= buffer.<bound>``.  ``analysis/tables.py`` derives
the same criterion from the operator's match condition alone — the
held tuple's endpoint that bounds the moving stream's sort key — so
the two must name the same endpoints, cell by cell.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allen.symbolic import Comparison, Endpoint, EndpointKind
from repro.analysis.tables import (
    CAND,
    OPERATOR_SPECS,
    TE_UP,
    TS_UP,
    WIT,
    X,
    Y,
    _closure,
    _gc_bound,
)
from repro.columnar import CELLS
from repro.model import TemporalTuple
from repro.model.interval import (
    BULK_FORMS,
    bulk_forms,
    disposable,
    disposable_at,
    ends_by,
    ends_by_start,
    ends_no_later,
    lifespans_intersect,
    starts_by,
    starts_no_later,
    surviving,
)
from repro.streams import TemporalOperator
from repro.streams import processors
from repro.streams.processors import (
    BeforeJoinSweep,
    ContainedSemijoinTsTs,
    ContainJoinTsTe,
    ContainJoinTsTs,
    ContainSemijoinTsTs,
    HeldSideSweep,
    OverlapJoin,
    SelfContainSemijoin,
    SymmetricSweepJoin,
    UnboundedStateJoin,
)

_T = TemporalOperator

#: (processor, declared side) -> the ``_gc_bound`` arguments of its
#: ascending cell: operator, the moving stream's variable and sort key,
#: the held tuple's variable.
DERIVATIONS = {
    (ContainJoinTsTs, "x_disposal"): (_T.CONTAIN_JOIN, Y, TS_UP, X),
    (ContainJoinTsTs, "y_disposal"): (_T.CONTAIN_JOIN, X, TS_UP, Y),
    (ContainJoinTsTe, "x_disposal"): (_T.CONTAIN_JOIN, Y, TE_UP, X),
    (ContainJoinTsTe, "y_disposal"): (_T.CONTAIN_JOIN, X, TS_UP, Y),
    (OverlapJoin, "x_disposal"): (_T.OVERLAP_JOIN, Y, TS_UP, X),
    (OverlapJoin, "y_disposal"): (_T.OVERLAP_JOIN, X, TS_UP, Y),
    (BeforeJoinSweep, "x_disposal"): (_T.BEFORE_JOIN, Y, TS_UP, X),
    (BeforeJoinSweep, "y_disposal"): (_T.BEFORE_JOIN, X, TS_UP, Y),
    (ContainSemijoinTsTs, "x_disposal"): (
        _T.CONTAIN_SEMIJOIN, Y, TS_UP, X
    ),
    (ContainedSemijoinTsTs, "y_disposal"): (
        _T.CONTAINED_SEMIJOIN, X, TS_UP, Y
    ),
    (SelfContainSemijoin, "x_disposal"): (
        _T.SELF_CONTAIN_SEMIJOIN, WIT, TS_UP, CAND
    ),
}


def never(_held, _buffer) -> bool:
    return False


#: (processor, declared side) -> the comparator the processor called
#: per state tuple before it declared the rule.
PARENT_COMPARATORS = {
    (ContainJoinTsTs, "x_disposal"): ends_by_start,
    (ContainJoinTsTs, "y_disposal"): starts_no_later,
    (ContainJoinTsTe, "x_disposal"): ends_no_later,
    (ContainJoinTsTe, "y_disposal"): starts_no_later,
    (OverlapJoin, "x_disposal"): ends_by_start,
    (OverlapJoin, "y_disposal"): ends_by_start,
    (BeforeJoinSweep, "x_disposal"): never,
    (BeforeJoinSweep, "y_disposal"): starts_no_later,
    (UnboundedStateJoin, "x_disposal"): never,
    (UnboundedStateJoin, "y_disposal"): never,
    (ContainSemijoinTsTs, "x_disposal"): ends_by_start,
    (ContainedSemijoinTsTs, "y_disposal"): ends_by_start,
    (SelfContainSemijoin, "x_disposal"): ends_by_start,
}

_KIND = {"valid_from": EndpointKind.TS, "valid_to": EndpointKind.TE}


def declaring_processors():
    """Every exported processor class that declares a disposal rule."""
    return {
        (cls, side)
        for cls in vars(processors).values()
        if isinstance(cls, type)
        for side in ("x_disposal", "y_disposal")
        if side in {
            name for klass in cls.__mro__ for name in vars(klass)
        }
    }


def test_every_declared_rule_is_checked():
    assert declaring_processors() == set(PARENT_COMPARATORS)
    assert set(DERIVATIONS) == set(PARENT_COMPARATORS) - {
        # Any predicate, no operator: the GC-free contrast of the '-'
        # cells, whose two "never" rules are pinned below.
        (UnboundedStateJoin, "x_disposal"),
        (UnboundedStateJoin, "y_disposal"),
    }


def _derived_and_declared(cls, side):
    """``_gc_bound``'s criterion for the processor's cell and the rule
    it declares, both as a bound string (``None``: no rule)."""
    operator, moving, key, held = DERIVATIONS[cls, side]
    graph = _closure(OPERATOR_SPECS[operator].condition)
    rule = getattr(cls, side)
    declared = None
    if rule is not None:
        declared = str(
            Comparison.le(
                Endpoint(moving, _KIND[rule.bound]),
                Endpoint(held, _KIND[rule.held]),
            )
        )
    return _gc_bound(graph, moving, key, held), declared


@pytest.mark.parametrize(
    "cls, side", sorted(DERIVATIONS, key=lambda k: (k[0].__name__, k[1]))
)
def test_declared_rule_is_the_derived_bound(cls, side):
    derived, declared = _derived_and_declared(cls, side)
    assert derived == declared


#: The stream whose sort key a held side's rule is bounded by.
_MOVING_ORDER = {"x_disposal": "y_order", "y_disposal": "x_order"}


@pytest.mark.parametrize("label", sorted(CELLS))
def test_every_cell_row_declares_its_derived_rules_or_holds_nothing(label):
    """A row whose processor holds state declares, per held side, the
    rule ``_gc_bound`` derives for the row's operator and the moving
    stream's order — a held-side sweep for its held side only.  A
    two-buffer, running-extremum or order-free row declares no held
    state, and its slot store is bounded by "zero" or "one"."""
    cell = CELLS[label]
    cls = cell.processor
    sides = {side for klass, side in declaring_processors() if klass is cls}
    if issubclass(cls, HeldSideSweep):
        assert sides == {f"{cls.held}_disposal"}
    if not sides:
        assert cell.slot_bound in ("zero", "one")
    for side in sides:
        operator, _, key, _ = DERIVATIONS[cls, side]
        moving = cell.x_order if cell.y_order is None else getattr(
            cell, _MOVING_ORDER[side]
        )
        assert (operator, key) == (cell.operator, moving.primary)
        derived, declared = _derived_and_declared(cls, side)
        assert declared is not None and derived == declared


def test_unbounded_join_declares_no_rule():
    assert UnboundedStateJoin.x_disposal is None
    assert UnboundedStateJoin.y_disposal is None


# ----------------------------------------------------------------------
# the derived comparators are the parent's, ties included
# ----------------------------------------------------------------------
#: Endpoints on a five-point grid: starts and ends collide constantly.
tie_heavy = st.builds(
    lambda start, length: TemporalTuple("t", None, start, start + length),
    st.integers(0, 4),
    st.integers(1, 3),
)


@pytest.mark.parametrize(
    "cls, side",
    sorted(PARENT_COMPARATORS, key=lambda k: (k[0].__name__, k[1])),
)
@settings(max_examples=60, deadline=None)
@given(held=st.lists(tie_heavy, max_size=12), buffer=tie_heavy)
def test_derived_comparators_equal_the_parents(cls, side, held, buffer):
    parent = PARENT_COMPARATORS[cls, side]
    rule = getattr(cls, side)
    expected = [parent(t, buffer) for t in held]
    assert [disposable(t, rule, buffer) for t in held] == expected
    if rule is not None:
        assert surviving(held, rule, buffer) == [
            t for t, dead in zip(held, expected) if not dead
        ]


@settings(max_examples=60, deadline=None)
@given(held=tie_heavy, point=st.integers(0, 8).map(lambda p: p / 2))
def test_point_form_is_the_lambda_policys_comparator(held, point):
    """``lambda_policy`` compares a held endpoint with an expected key:
    ``starts_by`` for a held ValidFrom, ``ends_by`` for a ValidTo."""
    for cls in (ContainJoinTsTs, ContainJoinTsTe):
        assert disposable_at(held, cls.y_disposal, point) == starts_by(
            held, point
        )
        assert disposable_at(held, cls.x_disposal, point) == ends_by(
            held, point
        )
    assert not disposable_at(held, None, point)


# ----------------------------------------------------------------------
# the probe's bulk forms are their comparators, ties included
# ----------------------------------------------------------------------
def _probing_processors():
    """Every exported sweep that probes its state with ``match``."""
    return sorted(
        (
            cls
            for cls in vars(processors).values()
            if isinstance(cls, type)
            and issubclass(cls, (SymmetricSweepJoin, HeldSideSweep))
            and cls not in (SymmetricSweepJoin, HeldSideSweep)
        ),
        key=lambda cls: cls.__name__,
    )


def test_every_declared_match_has_registered_bulk_forms():
    """A sweep's ``match`` resolves to the bulk forms written beside it
    in ``model/interval.py``; the ad-hoc predicate of the GC-free join
    is the one that takes the generic comprehensions."""
    unregistered = {
        cls for cls in _probing_processors() if cls.match not in BULK_FORMS
    }
    assert unregistered == {UnboundedStateJoin}
    for cls in _probing_processors():
        if cls is not UnboundedStateJoin:
            assert bulk_forms(cls.match) is BULK_FORMS[cls.match]


def unregistered_overlap(a, b) -> bool:
    """An ad-hoc predicate: it takes :func:`bulk_forms`' fallback."""
    return lifespans_intersect(a, b)


@pytest.mark.parametrize(
    "match",
    [*BULK_FORMS, unregistered_overlap],
    ids=lambda match: match.__name__,
)
@settings(max_examples=80, deadline=None)
@given(
    items=st.one_of(
        st.just([]),
        st.lists(tie_heavy, max_size=1),
        st.lists(tie_heavy, max_size=12),
    ),
    other=tie_heavy,
)
def test_bulk_forms_equal_filtering_by_their_comparator(match, items, other):
    """Element for element and in order: each bulk form keeps exactly
    what its pointwise comparator keeps, the state tuple as ``match``'s
    first argument (``held_first``) or its second (``held_second``)."""
    held_first, held_second = bulk_forms(match)
    expected_first = [a for a in items if match(a, other)]
    expected_second = [c for c in items if match(other, c)]
    got_first = held_first(items, other)
    got_second = held_second(other, items)
    assert [id(a) for a in got_first] == [id(a) for a in expected_first]
    assert [id(c) for c in got_second] == [id(c) for c in expected_second]
