"""Iterator-model (Volcano-style) operator base for the conventional
engine.

Every operator exposes an output :class:`RowSchema` and is consumed
row-at-a-time (``__iter__``), drained whole (:meth:`Operator.run`) or
column-at-a-time (:meth:`Operator.batch`, what a stream join asks of
its children), to the same rows and the same charges; only a temporal
scan, a plain projection and a selection answer the latter without
building rows, and over a scan a selection names the rows it keeps
instead of copying them.  An input that is read in full before its
consumer emits anything — the right side of a nested-loop join, a cross
product and a semijoin, a hash join's build side, the input of a sort
and of a hash aggregate — is drained with ``run()``, which those three
answer column-wise when they reach a relation's own columns: the scan
then steps no generator and the selection calls no predicate per row.
A probe side (a hash join's left, a nested loop's outer side) and a
merge join's inputs, which may stop early, are still iterated.
Operators in one plan share an :class:`EngineStats` so benchmarks can
read total scans, rows and predicate evaluations off the executed plan
— the conventional-side counterpart of the stream engine's
:class:`~repro.streams.metrics.ProcessorMetrics`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional, Sequence

from ...columns import gather
from ...model.relation import TemporalRelation
from ..schema import Row, RowSchema


@dataclass
class EngineStats:
    """Shared execution counters for one conventional plan."""

    scans_started: int = 0
    rows_scanned: int = 0
    comparisons: int = 0
    rows_materialized: int = 0

    def merge(self, other: "EngineStats") -> None:
        self.scans_started += other.scans_started
        self.rows_scanned += other.rows_scanned
        self.comparisons += other.comparisons
        self.rows_materialized += other.rows_materialized


class Batch(NamedTuple):
    """An operator's whole output: one column per schema attribute,
    each ``length`` long — or, with a ``selection``, the columns its
    rows are kept from.  Columns may be shared: read, never write."""

    columns: list[Sequence]
    length: int
    #: Set while every column is still one of this relation's own
    #: ``columns()`` (a scan, plain projections and selections of it),
    #: so a consumer may use what the relation memoises about them.
    relation: Optional[TemporalRelation] = None
    #: With ``relation``: the ascending positions of the relation rows
    #: a selection kept (``None``: every row).  Row ``i`` of the batch
    #: is entry ``selection[i]`` of each column.
    selection: Optional[Sequence[int]] = None

    def materialised(self) -> list[Sequence]:
        """The output columns themselves, ``length`` long each."""
        if self.selection is None:
            return self.columns
        return [gather(column, self.selection) for column in self.columns]


class Operator(abc.ABC):
    """A node in a physical plan tree."""

    def __init__(self, schema: RowSchema, stats: EngineStats) -> None:
        self.schema = schema
        self.stats = stats

    @abc.abstractmethod
    def __iter__(self) -> Iterator[Row]:
        """Produce the operator's output rows."""

    def run(self) -> list[Row]:
        """Execute to completion: the rows, in order, in a new list the
        caller owns (a :class:`Sort` sorts it in place), with the
        charges iteration makes.  Where :meth:`reaches_relation`, one
        ``zip`` of :meth:`batch`'s columns; otherwise ``list(self)``.
        Either way an input that raises does so before its consumer
        touches any of its rows."""
        if self.reaches_relation():
            return list(zip(*self.batch().materialised()))
        return list(self)

    def reaches_relation(self) -> bool:
        """Whether :meth:`batch` hands over a temporal relation's own
        columns (a scan of one, and plain projections and selections of
        that scan), so that :meth:`run` reads them column-wise.  The
        default :meth:`batch` calls :meth:`run`: only an operator with
        its own ``batch`` may answer ``True``."""
        return False

    def batch(self) -> Batch:
        """Execute to completion, column-wise (``zip(*columns)`` is
        :meth:`run`'s rows); by default, read off those rows."""
        rows = self.run()
        columns = zip(*rows) if rows else ((),) * len(self.schema)
        return Batch(list(map(list, columns)), len(rows))

    def narrowed(self, positions: Sequence[int]) -> Iterator[Row]:
        """The output rows cut down to ``positions`` (non-empty; may
        reorder and repeat) — what a :class:`Project` of plain
        attributes asks of its child.  One C-level ``itemgetter`` per
        row here; an operator that holds its output column-wise
        overrides this to gather only the columns asked for."""
        if len(positions) == 1:
            # itemgetter of one position returns the bare value.
            return zip(map(itemgetter(positions[0]), self))
        return map(itemgetter(*positions), self)

    def explain(self, indent: int = 0) -> str:
        """A one-line-per-node plan rendering (overridden by composite
        operators to include children)."""
        return "  " * indent + self.describe()

    def describe(self) -> str:
        return type(self).__name__


class UnaryOperator(Operator):
    """Operator with one child; children share the plan's stats."""

    def __init__(self, child: Operator, schema: RowSchema) -> None:
        super().__init__(schema, child.stats)
        self.child = child

    def explain(self, indent: int = 0) -> str:
        return (
            "  " * indent
            + self.describe()
            + "\n"
            + self.child.explain(indent + 1)
        )


class BinaryOperator(Operator):
    """Operator with two children sharing one stats object."""

    def __init__(
        self, left: Operator, right: Operator, schema: RowSchema
    ) -> None:
        if left.stats is not right.stats:
            raise ValueError(
                "both plan subtrees must share one EngineStats; pass the "
                "same stats object to every scan in the plan"
            )
        super().__init__(schema, left.stats)
        self.left = left
        self.right = right

    def explain(self, indent: int = 0) -> str:
        return (
            "  " * indent
            + self.describe()
            + "\n"
            + self.left.explain(indent + 1)
            + "\n"
            + self.right.explain(indent + 1)
        )
