"""In-memory tables and conversion from temporal relations.

The conventional engine operates over :class:`Table` values — a
:class:`~repro.relational.schema.RowSchema` plus a list of rows.
:func:`table_from_temporal` flattens a
:class:`~repro.model.relation.TemporalRelation` into the row form the
Section-3 pipeline expects, qualifying attributes with a range-variable
name.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, Optional

from ..model.relation import TemporalRelation
from .schema import Row, RowSchema


_FLATTENED = attrgetter("surrogate", "value", "valid_from", "valid_to")


class Table:
    """A named bag of rows with a schema."""

    def __init__(
        self, name: str, schema: RowSchema, rows: Iterable[Row] = ()
    ) -> None:
        self.name = name
        self.schema = schema
        arity = len(schema)
        self.rows: list[Row] = []
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise ValueError(
                    f"row arity {len(row)} does not match schema arity "
                    f"{arity} in table {name!r}"
                )
            self.rows.append(row)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, attribute: str) -> list:
        read = self.schema.reader(attribute)
        return [read(row) for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, {len(self.rows)} rows x {len(self.schema)})"


def table_from_temporal(
    relation: TemporalRelation, variable: Optional[str] = None
) -> Table:
    """Flatten a temporal relation into rows.

    With ``variable`` given, attributes are qualified (``f1.Name``);
    otherwise the schema's bare attribute names are used.
    """
    names = relation.schema.attribute_names
    if variable is not None:
        schema = RowSchema.for_variable(variable, names)
    else:
        schema = RowSchema(tuple(names))
    table = Table(variable or relation.schema.relation_name, schema)
    # Four-attribute rows by construction: nothing to copy or check.
    table.rows = list(map(_FLATTENED, relation.tuples))
    return table
