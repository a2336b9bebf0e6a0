"""Temporal relations — sets of temporal 4-tuples with schema,
constraints, and (optionally) a declared sort order.

A :class:`TemporalRelation` is deliberately a *value*: operations like
:meth:`sorted_by` and :meth:`where` return new relations.  The declared
sort order is metadata that the optimizer and the stream engine consult;
:meth:`sorted_by` both sorts the tuples and records the order.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional

from ..errors import SchemaError
from .constraints import ConstraintSet, Violation
from .interval import lifespan_key
from .sortorder import SortOrder, sort_tuples
from .tuples import TemporalSchema, TemporalTuple


class TemporalRelation:
    """A named collection of :class:`TemporalTuple` values.

    Parameters
    ----------
    schema:
        Attribute naming for the relation (e.g. Faculty/Name/Rank).
    tuples:
        The temporal data values.  Stored as an immutable tuple.
    constraints:
        Declared integrity constraints.  They are *not* checked on
        construction (call :meth:`validate` / :meth:`enforce`); this
        mirrors a real system where constraints are checked on update
        and trusted during query processing.
    order:
        The sort order the tuples are known to obey, or ``None`` when
        unordered.  Trusted, not verified (use :meth:`sorted_by` to
        establish an order, or :meth:`verify_order` to audit).

    The tuples never change, so a relation memoises its column and row
    forms in five slots, empty until first asked for and each filled by
    the layer that builds it: :meth:`columns` and :meth:`rows` fill
    their own; ``endpoints`` (the validated ``array('q')`` pair) is
    filled by :mod:`repro.optimizer.integration`, ``statistics`` by
    :mod:`repro.stats`, and ``orders`` — ``{SortOrder: view}``, the
    endpoint arrays in each sort order a query has read them in
    (:class:`repro.columnar.relation.SortedView`) — by
    :meth:`IntervalColumns.sorted_by
    <repro.columnar.relation.IntervalColumns.sorted_by>` and
    ``verify_order``.  Nothing invalidates them: every derivation
    returns a new relation, whose memo starts empty.
    """

    __slots__ = ("schema", "tuples", "constraints", "order")
    # The memo:
    __slots__ += ("_columns", "_rows", "endpoints", "statistics", "orders")

    def __init__(
        self,
        schema: TemporalSchema,
        tuples: Iterable[TemporalTuple] = (),
        constraints: ConstraintSet | None = None,
        order: SortOrder | None = None,
    ) -> None:
        self.schema = schema
        self.tuples: tuple[TemporalTuple, ...] = tuple(tuples)
        self.constraints = constraints or ConstraintSet()
        self.order = order
        self._columns = self._rows = None
        self.endpoints = self.statistics = None
        self.orders: dict = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        schema: TemporalSchema,
        rows: Iterable[tuple[Hashable, Any, int, int]],
        constraints: ConstraintSet | None = None,
    ) -> "TemporalRelation":
        """Build a relation from ``(surrogate, value, from, to)`` rows."""
        return cls(
            schema,
            (TemporalTuple(*row) for row in rows),
            constraints=constraints,
        )

    def replace_tuples(
        self,
        tuples: Iterable[TemporalTuple],
        order: SortOrder | None = None,
    ) -> "TemporalRelation":
        """A copy of this relation with different tuples (and order)."""
        return TemporalRelation(
            self.schema, tuples, constraints=self.constraints, order=order
        )

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TemporalTuple]:
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, tup: object) -> bool:
        return tup in self.tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalRelation):
            return NotImplemented
        return self.schema == other.schema and sorted(
            self.tuples, key=_canonical_key
        ) == sorted(other.tuples, key=_canonical_key)

    def __hash__(self) -> int:  # relations are compared, not hashed
        raise TypeError("TemporalRelation is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemporalRelation({self.schema.relation_name!r}, "
            f"{len(self.tuples)} tuples, order={self.order})"
        )

    def columns(self) -> tuple[list, list, list, list]:
        """The four attribute columns, positionally aligned with
        :attr:`tuples`; built once and shared: read, never write."""
        if self._columns is None:
            self._columns = tuple(
                list(map(attrgetter(name), self.tuples))
                for name in ("surrogate", "value", "valid_from", "valid_to")
            )
        return self._columns

    def rows(self) -> list[tuple]:
        """The tuples as flat ``(surrogate, value, from, to)`` rows, in
        :attr:`tuples` order — what the conventional engine's scans
        read; zipped from :meth:`columns` once and shared: read, never
        write."""
        if self._rows is None:
            self._rows = list(zip(*self.columns()))
        return self._rows

    # ------------------------------------------------------------------
    # relational-style derivations
    # ------------------------------------------------------------------
    def where(
        self, predicate: Callable[[TemporalTuple], bool]
    ) -> "TemporalRelation":
        """Select tuples satisfying ``predicate`` (order preserved)."""
        return self.replace_tuples(
            (t for t in self.tuples if predicate(t)), order=self.order
        )

    def where_value(self, value: Any) -> "TemporalRelation":
        """Select tuples whose time-varying attribute equals ``value``
        (e.g. the ``Rank='Associate'`` selections of the Superstar
        query)."""
        return self.where(lambda t: t.value == value)

    def where_surrogate(self, surrogate: Hashable) -> "TemporalRelation":
        """Select the history of a single object."""
        return self.where(lambda t: t.surrogate == surrogate)

    def sorted_by(self, order: SortOrder) -> "TemporalRelation":
        """Sort the tuples and record the order as metadata."""
        return self.replace_tuples(sort_tuples(self.tuples, order), order)

    def project_intervals(self) -> list:
        """The lifespans of all tuples, in relation order."""
        return [t.interval for t in self.tuples]

    def group_by_surrogate(self) -> dict[Hashable, list[TemporalTuple]]:
        """Histories keyed by surrogate, each sorted by lifespan."""
        grouped: dict[Hashable, list[TemporalTuple]] = defaultdict(list)
        for tup in self.tuples:
            grouped[tup.surrogate].append(tup)
        for history in grouped.values():
            history.sort(key=lifespan_key)
        return dict(grouped)

    def surrogates(self) -> set:
        """The distinct object identities in the relation."""
        return {t.surrogate for t in self.tuples}

    def attribute_values(self) -> set:
        """The distinct values of the time-varying attribute."""
        return {t.value for t in self.tuples}

    def timespan(self) -> Optional[tuple[int, int]]:
        """``(min ValidFrom, max ValidTo)`` over all tuples, or ``None``
        for an empty relation."""
        if not self.tuples:
            return None
        return (
            min(t.valid_from for t in self.tuples),
            max(t.valid_to for t in self.tuples),
        )

    def snapshot(self, point: int) -> "TemporalRelation":
        """The tuples whose lifespan covers ``point`` — the snapshot of
        the modelled world at one instant."""
        return self.where(lambda t: t.holds_at(point))

    # ------------------------------------------------------------------
    # constraints and order auditing
    # ------------------------------------------------------------------
    def validate(self) -> list[Violation]:
        """All violations of the declared constraints."""
        return self.constraints.validate(self)

    def enforce(self) -> None:
        """Raise on the first violation of the declared constraints."""
        self.constraints.enforce(self)

    def verify_order(self) -> bool:
        """Audit the declared sort order against the actual tuples."""
        if self.order is None:
            return True
        return self.order.is_sorted(self.tuples)

    def resolve_attribute(self, attribute: str) -> str:
        """Normalise an attribute name against the schema, raising
        :class:`~repro.errors.SchemaError` for unknown names."""
        if not self.schema.has_attribute(attribute):
            raise SchemaError(
                f"relation {self.schema.relation_name!r} has no attribute "
                f"{attribute!r}"
            )
        return attribute


def _canonical_key(tup: TemporalTuple) -> tuple:
    return (
        repr(tup.surrogate),
        repr(tup.value),
        tup.valid_from,
        tup.valid_to,
    )
