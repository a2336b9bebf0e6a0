"""Symbolic endpoint constraints — the right-hand column of Figure 2.

The paper stresses that Allen's operators "are actually just syntactic
sugar for the explicit constraints" over the interval endpoints.  This
module gives those constraints a first-class representation:

* :class:`Endpoint` — a symbolic term such as ``f1.TS``,
* :class:`Comparison` — ``left op right`` with ``op`` in ``< <= =``,
* :class:`Conjunction` — a set of comparisons evaluated conjunctively,
* :func:`constraint_for` — the Figure-2 mapping from an Allen relation
  to its explicit constraint conjunction.

The semantic optimizer (:mod:`repro.semantic`) reasons over exactly
these objects when it eliminates redundant inequalities and recognises
temporal operators inside less-than joins.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Union

from ..model.interval import Interval
from .relations import AllenRelation


class EndpointKind(enum.Enum):
    """Which endpoint of an interval a term denotes."""

    TS = "TS"  # ValidFrom
    TE = "TE"  # ValidTo

    def of(self, interval: Interval) -> int:
        return interval.start if self is EndpointKind.TS else interval.end


@dataclass(frozen=True, slots=True, order=True)
class Endpoint:
    """A symbolic interval endpoint, e.g. ``Endpoint('f1', TS)`` for
    ``f1.ValidFrom``."""

    variable: str
    kind: EndpointKind

    def evaluate(self, binding: Mapping[str, Interval]) -> int:
        """Resolve the term against concrete intervals."""
        return self.kind.of(binding[self.variable])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.variable}.{self.kind.value}"


Term = Union[Endpoint, int]
"""A comparison operand: a symbolic endpoint or a constant timepoint."""


class CompOp(enum.Enum):
    """Comparison operators appearing in explicit constraints.

    ``>`` and ``>=`` are normalised away at construction by swapping the
    operands, so every stored comparison uses ``<``, ``<=`` or ``=``.
    """

    LT = "<"
    LE = "<="
    EQ = "="

    def apply(self, left: int, right: int) -> bool:
        if self is CompOp.LT:
            return left < right
        if self is CompOp.LE:
            return left <= right
        return left == right


def _eval_term(term: Term, binding: Mapping[str, Interval]) -> int:
    if isinstance(term, Endpoint):
        return term.evaluate(binding)
    return term


@dataclass(frozen=True, slots=True)
class Comparison:
    """A single endpoint comparison, e.g. ``f1.TS < f3.TE``."""

    left: Term
    op: CompOp
    right: Term

    @classmethod
    def lt(cls, left: Term, right: Term) -> "Comparison":
        return cls(left, CompOp.LT, right)

    @classmethod
    def le(cls, left: Term, right: Term) -> "Comparison":
        return cls(left, CompOp.LE, right)

    @classmethod
    def eq(cls, left: Term, right: Term) -> "Comparison":
        return cls(left, CompOp.EQ, right)

    @classmethod
    def gt(cls, left: Term, right: Term) -> "Comparison":
        """``left > right``, stored as ``right < left``."""
        return cls(right, CompOp.LT, left)

    @classmethod
    def ge(cls, left: Term, right: Term) -> "Comparison":
        """``left >= right``, stored as ``right <= left``."""
        return cls(right, CompOp.LE, left)

    def evaluate(self, binding: Mapping[str, Interval]) -> bool:
        return self.op.apply(
            _eval_term(self.left, binding), _eval_term(self.right, binding)
        )

    def variables(self) -> frozenset[str]:
        """The interval variables mentioned by this comparison."""
        names = []
        for term in (self.left, self.right):
            if isinstance(term, Endpoint):
                names.append(term.variable)
        return frozenset(names)

    def rename(self, mapping: Mapping[str, str]) -> "Comparison":
        """Rename interval variables (used when instantiating Figure-2
        templates against actual query range variables)."""

        def ren(term: Term) -> Term:
            if isinstance(term, Endpoint):
                return Endpoint(
                    mapping.get(term.variable, term.variable), term.kind
                )
            return term

        return Comparison(ren(self.left), self.op, ren(self.right))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.left} {self.op.value} {self.right}"


@dataclass(frozen=True, slots=True)
class Conjunction:
    """A conjunction of endpoint comparisons."""

    comparisons: tuple[Comparison, ...]

    @classmethod
    def of(cls, *comparisons: Comparison) -> "Conjunction":
        return cls(tuple(comparisons))

    def evaluate(self, binding: Mapping[str, Interval]) -> bool:
        return all(c.evaluate(binding) for c in self.comparisons)

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for comparison in self.comparisons:
            out |= comparison.variables()
        return frozenset(out)

    def rename(self, mapping: Mapping[str, str]) -> "Conjunction":
        return Conjunction(
            tuple(c.rename(mapping) for c in self.comparisons)
        )

    def conjoin(self, other: "Conjunction") -> "Conjunction":
        return Conjunction(self.comparisons + other.comparisons)

    def without(self, comparison: Comparison) -> "Conjunction":
        """A copy with one comparison removed (for redundancy tests)."""
        remaining = list(self.comparisons)
        remaining.remove(comparison)
        return Conjunction(tuple(remaining))

    def __iter__(self):
        return iter(self.comparisons)

    def __len__(self) -> int:
        return len(self.comparisons)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " AND ".join(str(c) for c in self.comparisons)


def _ts(var: str) -> Endpoint:
    return Endpoint(var, EndpointKind.TS)


def _te(var: str) -> Endpoint:
    return Endpoint(var, EndpointKind.TE)


#: Figure 2, rows (1)-(7): the comparisons each primary relation puts
#: on ``(X.TS, X.TE, Y.TS, Y.TE)``.  A row is built when it is asked for.
_FIGURE_2 = {
    AllenRelation.EQUAL: lambda xts, xte, yts, yte: (
        Comparison.eq(xts, yts),
        Comparison.eq(xte, yte),
    ),
    AllenRelation.MEETS: lambda xts, xte, yts, yte: (
        Comparison.eq(xte, yts),
    ),
    AllenRelation.STARTS: lambda xts, xte, yts, yte: (
        Comparison.eq(xts, yts),
        Comparison.lt(xte, yte),
    ),
    AllenRelation.FINISHES: lambda xts, xte, yts, yte: (
        Comparison.eq(xte, yte),
        Comparison.gt(xts, yts),
    ),
    AllenRelation.DURING: lambda xts, xte, yts, yte: (
        Comparison.gt(xts, yts),
        Comparison.lt(xte, yte),
    ),
    AllenRelation.OVERLAPS: lambda xts, xte, yts, yte: (
        Comparison.lt(xts, yts),
        Comparison.gt(xte, yts),
        Comparison.lt(xte, yte),
    ),
    AllenRelation.BEFORE: lambda xts, xte, yts, yte: (
        Comparison.lt(xte, yts),
    ),
}


def constraint_for(
    relation: AllenRelation, x: str = "X", y: str = "Y"
) -> Conjunction:
    """The explicit constraint of Figure 2 for ``x relation y``.

    >>> str(constraint_for(AllenRelation.DURING, 'f', 'g'))
    'g.TS < f.TS AND f.TE < g.TE'
    """
    row = _FIGURE_2.get(relation)
    if row is None:
        # The six inverse relations reuse the primary rows with the
        # operands swapped.
        row = _FIGURE_2[relation.inverse()]
        x, y = y, x
    return Conjunction(row(_ts(x), _te(x), _ts(y), _te(y)))


def general_overlap_constraint(x: str = "X", y: str = "Y") -> Conjunction:
    """The TQuel-style ``overlap`` of the Superstar query:
    ``X.TS < Y.TE AND Y.TS < X.TE``."""
    return Conjunction.of(
        Comparison.lt(_ts(x), _te(y)),
        Comparison.lt(_ts(y), _te(x)),
    )


def intra_tuple_constraint(var: str) -> Conjunction:
    """The integrity constraint row of Figure 2: ``var.TS < var.TE``."""
    return Conjunction.of(Comparison.lt(_ts(var), _te(var)))
