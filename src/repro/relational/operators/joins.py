"""Binary operators: cross product and the three conventional joins.

Section 3: "the first join ... can be efficiently implemented as an
equi-join using a conventional approach such as nested-loop join, merge
join or hash join.  The second join operation, a so-called less-than
join, is a Cartesian product followed by a selection" — all four shapes
are here, instrumented so plans can be compared by comparisons and
materialised rows.  The nested-loop join runs one generated inner
loop per outer row
(:func:`~repro.relational.expressions.compile_join_loop`) that reads
the outer row's attributes once and the right rows' per pair; the
semijoin and the hash and merge joins run a predicate in its two-row
form (:func:`~repro.relational.expressions.compile_pair`).  Only a
pair that passes is concatenated, and every count is still one per
pair.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..expressions import Predicate, compile_join_loop, compile_pair
from ..schema import Row
from .base import BinaryOperator, Operator


class CrossProduct(BinaryOperator):
    """Cartesian product; the right input is materialised once."""

    def __init__(self, left: Operator, right: Operator) -> None:
        super().__init__(left, right, left.schema.concat(right.schema))

    def __iter__(self) -> Iterator[Row]:
        right_rows = self.right.run()
        self.stats.rows_materialized += len(right_rows)
        for left_row in self.left:
            for right_row in right_rows:
                yield left_row + right_row

    def describe(self) -> str:
        return "CrossProduct"


class ThetaNestedLoopJoin(BinaryOperator):
    """Nested-loop join with an arbitrary predicate — the conventional
    strategy for less-than joins (Section 3, observation 1)."""

    def __init__(
        self, left: Operator, right: Operator, predicate: Predicate
    ) -> None:
        super().__init__(left, right, left.schema.concat(right.schema))
        self.predicate = predicate
        self._matches = compile_join_loop(
            predicate, left.schema, right.schema
        )

    def __iter__(self) -> Iterator[Row]:
        right_rows = self.right.run()
        self.stats.rows_materialized += len(right_rows)
        for left_row in self.left:
            matches = self._matches(left_row, right_rows)
            # One evaluation per right row, counted once the inner
            # loop has completed.
            self.stats.comparisons += len(right_rows)
            yield from matches

    def describe(self) -> str:
        return f"NestedLoopJoin({self.predicate})"


class RowSemijoin(BinaryOperator):
    """Nested-loop semijoin: left rows with at least one right match.

    The conventional-engine form of the temporal semijoins; the output
    schema is the left schema.  The predicate is evaluated against the
    pair of rows, and the right scan stops at the first match.
    """

    def __init__(
        self, left: Operator, right: Operator, predicate: Predicate
    ) -> None:
        super().__init__(left, right, left.schema)
        self.predicate = predicate
        self._compiled = compile_pair(predicate, left.schema, right.schema)

    def __iter__(self) -> Iterator[Row]:
        right_rows = self.right.run()
        self.stats.rows_materialized += len(right_rows)
        for left_row in self.left:
            for right_row in right_rows:
                self.stats.comparisons += 1
                if self._compiled(left_row, right_row):
                    yield left_row
                    break

    def describe(self) -> str:
        return f"RowSemijoin({self.predicate})"


class HashEquiJoin(BinaryOperator):
    """Hash join on attribute equality with an optional residual
    predicate over the combined row."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_attribute: str,
        right_attribute: str,
        residual: Optional[Predicate] = None,
    ) -> None:
        super().__init__(left, right, left.schema.concat(right.schema))
        self.left_attribute = left_attribute
        self.right_attribute = right_attribute
        self.residual = residual
        self._left_key = left.schema.reader(left_attribute)
        self._right_key = right.schema.reader(right_attribute)
        self._residual = (
            compile_pair(residual, left.schema, right.schema)
            if residual
            else None
        )

    def __iter__(self) -> Iterator[Row]:
        buckets: dict = {}
        for right_row in self.right.run():
            buckets.setdefault(self._right_key(right_row), []).append(
                right_row
            )
            self.stats.rows_materialized += 1
        for left_row in self.left:
            for right_row in buckets.get(self._left_key(left_row), ()):
                self.stats.comparisons += 1
                if self._residual is None or self._residual(
                    left_row, right_row
                ):
                    yield left_row + right_row

    def describe(self) -> str:
        return (
            f"HashJoin({self.left_attribute} = {self.right_attribute}"
            + (f", residual={self.residual}" if self.residual else "")
            + ")"
        )


class MergeEquiJoin(BinaryOperator):
    """Sort-merge join on attribute equality.

    Inputs must arrive sorted on their join attributes (wrap them in
    :class:`~repro.relational.operators.basic.Sort` otherwise); equal-key
    groups are buffered, which is the merge join's classic workspace.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_attribute: str,
        right_attribute: str,
        residual: Optional[Predicate] = None,
    ) -> None:
        super().__init__(left, right, left.schema.concat(right.schema))
        self.left_attribute = left_attribute
        self.right_attribute = right_attribute
        self.residual = residual
        self._left_key = left.schema.reader(left_attribute)
        self._right_key = right.schema.reader(right_attribute)
        self._residual = (
            compile_pair(residual, left.schema, right.schema)
            if residual
            else None
        )

    def __iter__(self) -> Iterator[Row]:
        left_iter = iter(self.left)
        right_iter = iter(self.right)
        left_row = next(left_iter, None)
        right_row = next(right_iter, None)
        while left_row is not None and right_row is not None:
            left_key = self._left_key(left_row)
            right_key = self._right_key(right_row)
            self.stats.comparisons += 1
            if left_key < right_key:
                left_row = next(left_iter, None)
            elif right_key < left_key:
                right_row = next(right_iter, None)
            else:
                left_group = [left_row]
                while (
                    left_row := next(left_iter, None)
                ) is not None and self._left_key(left_row) == left_key:
                    left_group.append(left_row)
                right_group = [right_row]
                while (
                    right_row := next(right_iter, None)
                ) is not None and self._right_key(right_row) == left_key:
                    right_group.append(right_row)
                self.stats.rows_materialized += len(left_group) + len(
                    right_group
                )
                for l_row in left_group:
                    for r_row in right_group:
                        self.stats.comparisons += 1
                        if self._residual is None or self._residual(
                            l_row, r_row
                        ):
                            yield l_row + r_row

    def describe(self) -> str:
        return f"MergeJoin({self.left_attribute} = {self.right_attribute})"
