"""Allen interval algebra (Figure 2 of the paper).

The thirteen elementary temporal relationships and their explicit
inequality constraints.
"""

from .relations import (
    ALL_RELATIONS,
    GENERAL_OVERLAP,
    AllenRelation,
    classify,
)
from .symbolic import (
    Comparison,
    CompOp,
    Conjunction,
    Endpoint,
    EndpointKind,
    Term,
    constraint_for,
    general_overlap_constraint,
    intra_tuple_constraint,
)

__all__ = [
    "ALL_RELATIONS",
    "AllenRelation",
    "CompOp",
    "Comparison",
    "Conjunction",
    "Endpoint",
    "EndpointKind",
    "GENERAL_OVERLAP",
    "Term",
    "classify",
    "constraint_for",
    "general_overlap_constraint",
    "intra_tuple_constraint",
]
