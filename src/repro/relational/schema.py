"""Row schemas for the conventional relational engine.

The Section-3 pipeline translates temporal queries into ordinary
relational algebra over flat rows.  A :class:`RowSchema` is an ordered
list of attribute names; attributes of range variables are qualified
(``f1.Name``, ``f3.ValidTo``) so multi-way joins keep every column
addressable, exactly like the parse trees of Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Tuple

from ..errors import SchemaError

Row = Tuple
"""A relational row: a plain tuple positionally aligned with a schema."""


@dataclass(frozen=True)
class RowSchema:
    """An ordered, duplicate-free list of attribute names."""

    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.attributes)) != len(self.attributes):
            duplicates = [
                a for a in self.attributes if self.attributes.count(a) > 1
            ]
            raise SchemaError(
                f"duplicate attributes in schema: {sorted(set(duplicates))}"
            )

    @classmethod
    def of(cls, *attributes: str) -> "RowSchema":
        return cls(tuple(attributes))

    @classmethod
    def for_variable(
        cls, variable: str, attribute_names: Iterable[str]
    ) -> "RowSchema":
        """Qualify a relation's attributes with a range variable, e.g.
        ``for_variable('f1', ('Name', 'Rank', 'ValidFrom', 'ValidTo'))``.
        """
        return cls(tuple(f"{variable}.{name}" for name in attribute_names))

    def index_of(self, attribute: str) -> int:
        """Position of ``attribute``, raising
        :class:`~repro.errors.SchemaError` when absent."""
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise SchemaError(
                f"attribute {attribute!r} not in schema {self.attributes}"
            ) from None

    def __contains__(self, attribute: object) -> bool:
        return attribute in self.attributes

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def concat(self, other: "RowSchema") -> "RowSchema":
        """The schema of a product/join of two inputs."""
        return RowSchema(self.attributes + other.attributes)

    def project(self, attributes: Iterable[str]) -> "RowSchema":
        wanted = tuple(attributes)
        for attribute in wanted:
            self.index_of(attribute)
        return RowSchema(wanted)

    def value(self, row: Row, attribute: str):
        """Read one attribute from a row."""
        return row[self.index_of(attribute)]

    def reader(self, attribute: str):
        """A fast positional accessor, resolved once."""
        return itemgetter(self.index_of(attribute))
