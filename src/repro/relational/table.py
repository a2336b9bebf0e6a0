"""In-memory tables and conversion from temporal relations.

The conventional engine operates over :class:`Table` values — a
:class:`~repro.relational.schema.RowSchema` plus a list of rows.
:func:`table_from_temporal` presents a
:class:`~repro.model.relation.TemporalRelation` as the table the
Section-3 pipeline expects, qualifying attributes with a range-variable
name.  Such a table keeps nothing of its own: a column consumer
(``TableScan.batch``) takes the relation's memoised columns as they
are, and a row consumer (:attr:`Table.rows`) the relation's memoised
flat rows (:meth:`~repro.model.relation.TemporalRelation.rows`), zipped
from those columns once per relation, not once per query.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ..model.relation import TemporalRelation
from .schema import Row, RowSchema


class Table:
    """A named bag of rows with a schema."""

    def __init__(
        self, name: str, schema: RowSchema, rows: Iterable[Row] = ()
    ) -> None:
        self.name = name
        self.schema = schema
        #: The temporal relation this table presents
        #: (:func:`table_from_temporal`); ``None`` for a table of rows.
        self.relation: Optional[TemporalRelation] = None
        arity = len(schema)
        self._rows: list[Row] = []
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise ValueError(
                    f"row arity {len(row)} does not match schema arity "
                    f"{arity} in table {name!r}"
                )
            self._rows.append(row)

    @property
    def rows(self) -> list[Row]:
        """The rows; a temporal relation's are its own memo, shared by
        every table of it: read, never write."""
        if self.relation is not None:
            return self.relation.rows()
        return self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows if self.relation is None else self.relation)

    def column(self, attribute: str) -> list:
        read = self.schema.reader(attribute)
        return [read(row) for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, {len(self.rows)} rows x {len(self.schema)})"


def table_from_temporal(
    relation: TemporalRelation, variable: Optional[str] = None
) -> Table:
    """A temporal relation as a table of flat four-attribute rows.

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
    table.relation = relation
    return table
