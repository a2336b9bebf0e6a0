"""Physical operators of the conventional relational engine."""

from .base import Batch, BinaryOperator, EngineStats, Operator, UnaryOperator
from .basic import (
    Distinct,
    HashAggregate,
    Project,
    Select,
    Sort,
    count_of,
    max_of,
    min_of,
    sum_of,
)
from .joins import (
    CrossProduct,
    HashEquiJoin,
    MergeEquiJoin,
    RowSemijoin,
    ThetaNestedLoopJoin,
)
from .scan import TableScan, temporal_scan

__all__ = [
    "Batch",
    "BinaryOperator",
    "CrossProduct",
    "Distinct",
    "EngineStats",
    "HashAggregate",
    "HashEquiJoin",
    "MergeEquiJoin",
    "Operator",
    "Project",
    "RowSemijoin",
    "Select",
    "Sort",
    "TableScan",
    "ThetaNestedLoopJoin",
    "UnaryOperator",
    "count_of",
    "max_of",
    "min_of",
    "sum_of",
    "temporal_scan",
]
