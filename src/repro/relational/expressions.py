"""Predicate and scalar expressions over relational rows.

This is the expression language of the conventional engine and of the
logical algebra: attribute references, literals, comparisons, and
boolean connectives.  Expressions are immutable.  A tree compiles to
Python source, once per schema: every node's ``source`` returns
expression text, and the whole tree becomes one ``eval``'d lambda with
no closure per node — important because the nested-loop baselines
evaluate predicates O(n^2) times in benchmarks.  The paper compares
strategies by how many evaluations they perform; this only keeps the
cost of one evaluation small.  The text's code object is kept in a
bounded cache keyed by the text and its name, so a plan built again for
the same query compiles nothing; each build still ``eval``s a fresh
lambda, whose namespace binds its own constants.  The nested-loop
join's inner loop goes one step further: a ``for l0, l1, in
((left[3], left[6],),)`` clause reads each outer-row attribute the
predicate uses once per outer row, ahead of the loop over the inner
rows, which read theirs once per pair.  A selection over columns
builds no row at all: its filter is one comprehension over ``(row
position, value, value, ...)`` entries, ``[row for row, v0, v1, in
entries if ...]``, holding only the attributes the predicate reads.

The generated text holds tuple subscripts with integer positions, the
local names ``l0``, ``l1``, ... those outer-row subscripts are bound to
and the one clause binding them, the local names ``row``, ``v0``,
``v1``, ... of a filter's entries and its one ``for row, v0, in
entries`` clause, the six comparison tokens of
``_TOKENS``, ``and`` / ``or`` / ``not``, ``True`` / ``False``,
parentheses and the names of bound constants.  A literal's value is
bound in the lambda's namespace, never written into the text, and the
namespace has no builtins.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import lru_cache
from types import CodeType
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .schema import Row, RowSchema

RowReader = Callable[[Row], Any]
PairPredicate = Callable[[Row, Row], bool]
Locate = Callable[[str], str]
"""Attribute name -> the source text that reads it (``row[3]``)."""


class _Node(abc.ABC):
    """What expressions and predicates share: one ``source`` per node
    feeds every compiled form."""

    @abc.abstractmethod
    def source(self, locate: Locate, constants: dict[str, Any]) -> str:
        """This node as Python expression text, safe as an operand of
        ``and`` / ``or`` / ``not``.  Attributes are read through
        ``locate``; a constant is added to ``constants`` and referred
        to by its name there."""

    def compile_against(self, schema: RowSchema) -> RowReader:
        """Resolve to one ``lambda row: ...`` over rows of ``schema``."""
        return _generate("lambda row: {}", _row_locator(schema), self)

    @abc.abstractmethod
    def attributes(self) -> frozenset[str]:
        """Attribute names the node references."""


class Expression(_Node):
    """Base class for scalar expressions."""


@dataclass(frozen=True)
class Attr(Expression):
    """A (qualified) attribute reference, e.g. ``Attr('f1.ValidTo')``."""

    name: str

    def source(self, locate: Locate, constants: dict[str, Any]) -> str:
        return locate(self.name)

    def attributes(self) -> frozenset[str]:
        return frozenset({self.name})

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def source(self, locate: Locate, constants: dict[str, Any]) -> str:
        name = f"c{len(constants)}"
        constants[name] = self.value
        return name

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.value)


class Predicate(_Node):
    """Base class for boolean row predicates."""

    def conjuncts(self) -> Iterator["Predicate"]:
        """Flatten nested ANDs into individual conjuncts."""
        yield self


_TOKENS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
"""Comparison operator -> the Python token it compiles to."""


@dataclass(frozen=True)
class Compare(Predicate):
    """``left op right`` with ``op`` in ``= != < <= > >=``."""

    left: Expression
    op: str
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _TOKENS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def source(self, locate: Locate, constants: dict[str, Any]) -> str:
        left = self.left.source(locate, constants)
        right = self.right.source(locate, constants)
        return f"{left} {_TOKENS[self.op]} {right}"

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    @property
    def is_equality(self) -> bool:
        return self.op == "="

    @property
    def is_inequality(self) -> bool:
        return self.op in ("<", "<=", ">", ">=")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates."""

    parts: tuple[Predicate, ...]

    @classmethod
    def of(cls, *parts: Predicate) -> "Predicate":
        flattened: list[Predicate] = []
        for part in parts:
            flattened.extend(part.conjuncts())
        if len(flattened) == 1:
            return flattened[0]
        return cls(tuple(flattened))

    def source(self, locate: Locate, constants: dict[str, Any]) -> str:
        parts = [part.source(locate, constants) for part in self.parts]
        return f"({' and '.join(parts)})" if parts else "True"

    def attributes(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for part in self.parts:
            out |= part.attributes()
        return out

    def conjuncts(self) -> Iterator[Predicate]:
        for part in self.parts:
            yield from part.conjuncts()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " AND ".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates."""

    parts: tuple[Predicate, ...]

    @classmethod
    def of(cls, *parts: Predicate) -> "Predicate":
        if len(parts) == 1:
            return parts[0]
        return cls(tuple(parts))

    def source(self, locate: Locate, constants: dict[str, Any]) -> str:
        parts = [part.source(locate, constants) for part in self.parts]
        return f"({' or '.join(parts)})" if parts else "False"

    def attributes(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for part in self.parts:
            out |= part.attributes()
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " OR ".join(f"({p})" for p in self.parts)


@dataclass(frozen=True)
class Not(Predicate):
    """Negation."""

    part: Predicate

    def source(self, locate: Locate, constants: dict[str, Any]) -> str:
        return f"not {self.part.source(locate, constants)}"

    def attributes(self) -> frozenset[str]:
        return self.part.attributes()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"NOT ({self.part})"


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """The always-true predicate (an empty WHERE clause)."""

    def source(self, locate: Locate, constants: dict[str, Any]) -> str:
        return "True"

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def conjuncts(self) -> Iterator[Predicate]:
        return iter(())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "TRUE"


_CODE_CACHE_SIZE = 512
"""How many generated code objects :func:`_code` keeps (least
recently used first out), as ``re`` keeps compiled patterns."""


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(text: str, name: str) -> CodeType:
    """``text`` compiled once per ``(text, name)``: a plan built again
    for the same predicate over the same schema reuses its code."""
    return compile(text, name, "eval")


def _generate(template: str, locate: Locate, *nodes: _Node) -> Callable:
    """``template`` (one ``{}`` per node) around the sources of
    ``nodes``, compiled through :func:`_code`'s bounded cache and
    ``eval``'d into a fresh lambda, whose namespace binds this call's
    constants.  The code object is named after the nodes, so a
    ``TypeError`` raised inside a predicate names the predicate in its
    traceback."""
    constants: dict[str, Any] = {}
    text = template.format(
        *(node.source(locate, constants) for node in nodes)
    )
    label = ", ".join(str(node) for node in nodes)
    code = _code(text, f"<predicate {label}>")
    return eval(code, {"__builtins__": {}, **constants})


def _row_locator(schema: RowSchema) -> Locate:
    return lambda name: f"row[{schema.index_of(name)}]"


def _pair_locator(
    left: RowSchema,
    right: RowSchema,
    hoisted: Optional[dict[int, str]] = None,
) -> Locate:
    """Reads of a join's two rows; an attribute on both sides is the
    concatenated schema's duplicate error.  A left position that
    ``hoisted`` names reads as that local name instead."""
    combined = left.concat(right)
    width = len(left)
    names = hoisted or {}

    def locate(name: str) -> str:
        index = combined.index_of(name)
        if index < width:
            return names.get(index, f"left[{index}]")
        return f"right[{index - width}]"

    return locate


def compile_row_tuple(
    expressions: Sequence[Expression], schema: RowSchema
) -> Callable[[Row], Row]:
    """One ``lambda row: (e1, e2, ...)`` — a computed projection."""
    template = "lambda row: (" + "{}, " * len(expressions) + ")"
    return _generate(template, _row_locator(schema), *expressions)


def compile_pair(
    predicate: Predicate, left: RowSchema, right: RowSchema
) -> PairPredicate:
    """``predicate`` over a join's two rows, ``lambda left, right:
    ...``, so a failing pair never allocates the concatenated row."""
    template = "lambda left, right: {}"
    return _generate(template, _pair_locator(left, right), predicate)


def compile_join_loop(
    predicate: Predicate, left: RowSchema, right: RowSchema
) -> Callable[[Row, Sequence[Row]], list[Row]]:
    """One inner loop of a nested-loop join: ``lambda left, rights:``
    the concatenated rows of the pairs that satisfy ``predicate``.

    Each left attribute the predicate reads is bound once per call, by
    one ``for l0, l1, in ((left[3], left[6],),)`` clause ahead of the
    loop over the right rows, and the predicate reads it as that local;
    a predicate that reads no left attribute gets no clause."""
    positions = sorted(
        left.index_of(name) for name in predicate.attributes() if name in left
    )
    hoisted = {index: f"l{number}" for number, index in enumerate(positions)}
    hoist = ""
    if hoisted:
        names = ", ".join(hoisted.values())
        reads = ", ".join(f"left[{index}]" for index in hoisted)
        hoist = f"for {names}, in (({reads},),) "
    template = (
        "lambda left, rights: [left + right "
        + hoist
        + "for right in rights if {}]"
    )
    return _generate(template, _pair_locator(left, right, hoisted), predicate)


def compile_row_filter(
    predicate: Predicate, schema: RowSchema
) -> tuple[tuple[int, ...], Callable[[Iterable[tuple]], list]]:
    """A selection over columns: the ascending positions in ``schema``
    of the attributes ``predicate`` reads, and ``lambda entries: [row
    for row, v0, v1, in entries if ...]``, which keeps the ``row`` of
    each ``(row, value at positions[0], value at positions[1], ...)``
    entry that satisfies ``predicate``, in entry order.  The predicate
    reads attribute ``positions[k]`` as the local ``vk``."""
    positions = tuple(
        sorted(schema.index_of(name) for name in predicate.attributes())
    )
    number = {index: f"v{k}" for k, index in enumerate(positions)}
    names = "".join(f"{name}, " for name in number.values())
    template = "lambda entries: [row for row, " + names + "in entries if {}]"
    return positions, _generate(
        template, lambda name: number[schema.index_of(name)], predicate
    )


def eq(left: str, right: Any) -> Compare:
    """``Attr = literal`` or ``Attr = Attr`` shorthand: the right side
    is treated as an attribute when it is a string naming one with a
    dot qualifier, else as a literal."""
    return Compare(Attr(left), "=", _operand(right))


def lt(left: str, right: Any) -> Compare:
    return Compare(Attr(left), "<", _operand(right))


def _operand(value: Any) -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, str) and "." in value:
        return Attr(value)
    return Literal(value)
