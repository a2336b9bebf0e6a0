"""Selection, projection, sorting, distinct — the unary operators."""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Sequence, Union

from ...columns import gather
from ..expressions import (
    Attr,
    Predicate,
    compile_row_filter,
    compile_row_tuple,
)
from ..schema import Row, RowSchema
from .base import Batch, Operator, UnaryOperator

ProjectionItem = Union[str, tuple]
"""Either an attribute name (kept as-is) or ``(output_name,
Expression)``."""


class Select(UnaryOperator):
    """Filter rows by a predicate."""

    def __init__(self, child: Operator, predicate: Predicate) -> None:
        super().__init__(child, child.schema)
        self.predicate = predicate
        self._compiled = predicate.compile_against(child.schema)

    def __iter__(self) -> Iterator[Row]:
        for row in self.child:
            self.stats.comparisons += 1
            if self._compiled(row):
                yield row

    def batch(self) -> Batch:
        """The kept rows; over a relation's own columns, named by their
        positions in them (the columns stay the relation's).  No row is
        built: the row positions are zipped with only the columns the
        predicate reads (gathered by the child's selection first)."""
        child = self.child.batch()
        self.stats.comparisons += child.length
        reads, keep = compile_row_filter(self.predicate, self.child.schema)
        columns = child.columns
        rows = child.selection
        if rows is None:
            rows = range(child.length)
            read = [columns[position] for position in reads]
        else:
            read = [gather(columns[position], rows) for position in reads]
        kept = keep(zip(rows, *read))
        if child.relation is None:
            columns = [gather(column, kept) for column in columns]
            return Batch(columns, len(kept))
        return child._replace(length=len(kept), selection=kept)

    def reaches_relation(self) -> bool:
        return self.child.reaches_relation()

    def describe(self) -> str:
        return f"Select({self.predicate})"


class Project(UnaryOperator):
    """Project (and optionally rename/compute) columns.

    Items are attribute names, or ``(output_name, expression)`` pairs —
    the Superstar target list is
    ``[('Name', Attr('f1.Name')), ('ValidFrom', Attr('f1.ValidFrom')),
    ('ValidTo', Attr('f2.ValidTo'))]``.
    """

    def __init__(
        self, child: Operator, items: Sequence[ProjectionItem]
    ) -> None:
        pairs = [
            (item, Attr(item)) if isinstance(item, str) else item
            for item in items
        ]
        expressions = [expression for _name, expression in pairs]
        if expressions and all(isinstance(e, Attr) for e in expressions):
            positions = tuple(
                child.schema.index_of(e.name) for e in expressions
            )
            computed = None
        else:
            positions = None
            computed = compile_row_tuple(expressions, child.schema)
        super().__init__(child, RowSchema(tuple(n for n, _e in pairs)))
        self.items = tuple(items)
        #: Child positions of the items when every one is a plain
        #: attribute: the projection is then a column selection the
        #: child can do itself (:meth:`Operator.narrowed`).
        self._positions = positions
        #: Otherwise one generated ``lambda row: (e1, e2, ...)``.
        self._computed = computed

    def __iter__(self) -> Iterator[Row]:
        if self._positions is not None:
            return self.child.narrowed(self._positions)
        return map(self._computed, self.child)

    def batch(self) -> Batch:
        if self._positions is None:
            return super().batch()
        child = self.child.batch()
        columns = child.columns
        return child._replace(
            columns=[columns[position] for position in self._positions]
        )

    def reaches_relation(self) -> bool:
        return self._positions is not None and self.child.reaches_relation()

    def describe(self) -> str:
        return f"Project({', '.join(self.schema.attributes)})"


class Sort(UnaryOperator):
    """Materialising sort on one or more attributes."""

    def __init__(
        self,
        child: Operator,
        attributes: Sequence[str],
        descending: bool = False,
    ) -> None:
        super().__init__(child, child.schema)
        self.attributes = tuple(attributes)
        self.descending = descending
        self._key = itemgetter(
            *(child.schema.index_of(a) for a in self.attributes)
        )

    def __iter__(self) -> Iterator[Row]:
        rows = self.child.run()
        self.stats.rows_materialized += len(rows)
        rows.sort(key=self._key, reverse=self.descending)
        return iter(rows)

    def describe(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"Sort({', '.join(self.attributes)} {direction})"


class HashAggregate(UnaryOperator):
    """Hash-based grouped aggregation over rows.

    The conventional-engine counterpart of the Figure-4 stream
    processor: requires no input order, but materialises one
    accumulator per group (workspace proportional to the number of
    groups, where the grouped stream processor needs exactly one).

    ``aggregates`` maps output attribute names to ``(initial, fold,
    input_attribute)`` triples; ``fold(accumulator, value)`` returns
    the new accumulator.
    """

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregates: dict,
    ) -> None:
        names = tuple(group_by) + tuple(aggregates)
        super().__init__(child, RowSchema(names))
        self.group_by = tuple(group_by)
        self.aggregates = dict(aggregates)
        positions = [child.schema.index_of(a) for a in self.group_by]
        if len(positions) == 1:
            # itemgetter of one position returns the bare value.
            (at,) = positions
            self._key = lambda row: (row[at],)
        else:
            self._key = itemgetter(*positions) if positions else lambda row: ()
        self._folds = []
        for initial, fold, attribute in self.aggregates.values():
            self._folds.append(
                (initial, fold, child.schema.reader(attribute))
            )

    def __iter__(self) -> Iterator[Row]:
        groups: dict[tuple, list] = {}
        for row in self.child.run():
            key = self._key(row)
            state = groups.get(key)
            if state is None:
                state = [initial for initial, _f, _r in self._folds]
                groups[key] = state
                self.stats.rows_materialized += 1
            for index, (_initial, fold, read) in enumerate(self._folds):
                state[index] = fold(state[index], read(row))
        for key, state in groups.items():
            yield key + tuple(state)

    def describe(self) -> str:
        return (
            f"HashAggregate(by {', '.join(self.group_by)}; "
            f"{', '.join(self.aggregates)})"
        )


def sum_of(attribute: str, initial=0):
    """Aggregate spec: sum of ``attribute``."""
    return (initial, lambda acc, v: acc + v, attribute)


def count_of(attribute: str):
    """Aggregate spec: row count (reads ``attribute`` only to have a
    column to traverse)."""
    return (0, lambda acc, _v: acc + 1, attribute)


def max_of(attribute: str):
    """Aggregate spec: maximum of ``attribute``."""
    return (None, lambda acc, v: v if acc is None else max(acc, v), attribute)


def min_of(attribute: str):
    """Aggregate spec: minimum of ``attribute``."""
    return (None, lambda acc, v: v if acc is None else min(acc, v), attribute)


class Distinct(UnaryOperator):
    """Duplicate elimination (hash-based, order-preserving)."""

    def __init__(self, child: Operator) -> None:
        super().__init__(child, child.schema)

    def __iter__(self) -> Iterator[Row]:
        seen: set = set()
        for row in self.child:
            if row not in seen:
                seen.add(row)
                self.stats.rows_materialized += 1
                yield row

    def describe(self) -> str:
        return "Distinct"
