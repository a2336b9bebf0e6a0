"""Temporal data model (Section 2 of Leung & Muntz).

Exports the discrete time domain, half-open intervals, temporal
4-tuples, temporal relations, sort orders, and integrity constraints.
"""

from .constraints import (
    ChronologicalOrdering,
    Constraint,
    ConstraintSet,
    ContinuousLifespan,
    FirstValue,
    IntraTupleConstraint,
    SnapshotUniqueness,
    Violation,
    faculty_constraints,
)
from .interval import Interval
from .relation import TemporalRelation
from .sortorder import (
    TE_ASC,
    TE_DESC,
    TS_ASC,
    TS_DESC,
    TS_TE_ASC,
    TS_TE_DESC,
    Direction,
    SortAttribute,
    SortKey,
    SortOrder,
    order_satisfies,
    sort_tuples,
)
from .time_domain import ORIGIN, TimeDomain, Timepoint, validate_timepoint
from .tuples import TIMESTAMP_ALIASES, TemporalSchema, TemporalTuple

__all__ = [
    "ChronologicalOrdering",
    "Constraint",
    "ConstraintSet",
    "ContinuousLifespan",
    "Direction",
    "FirstValue",
    "Interval",
    "IntraTupleConstraint",
    "ORIGIN",
    "SnapshotUniqueness",
    "SortAttribute",
    "SortKey",
    "SortOrder",
    "TE_ASC",
    "TE_DESC",
    "TIMESTAMP_ALIASES",
    "TS_ASC",
    "TS_DESC",
    "TS_TE_ASC",
    "TS_TE_DESC",
    "TemporalRelation",
    "TemporalSchema",
    "TemporalTuple",
    "TimeDomain",
    "Timepoint",
    "Violation",
    "faculty_constraints",
    "order_satisfies",
    "sort_tuples",
    "validate_timepoint",
]
