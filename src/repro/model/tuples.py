"""Temporal data values — the 4-tuple ``<S, V, ValidFrom, ValidTo>``.

A temporal data value (Section 2) records that object ``S`` had
attribute value ``V`` throughout the lifespan ``[ValidFrom, ValidTo)``.
A stepwise-constant interpolation is assumed between the endpoints.

The paper abbreviates ``ValidFrom``/``ValidTo`` as ``TS``/``TE``; both
spellings are accepted by :meth:`TemporalTuple.get`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from ..errors import SchemaError
from .interval import Interval, check_lifespan, covers_point
from .time_domain import Timepoint

#: Canonical names of the two timestamp attributes, with the short
#: aliases used throughout the paper.
TIMESTAMP_ALIASES = {
    "ValidFrom": "valid_from",
    "ValidTo": "valid_to",
    "TS": "valid_from",
    "TE": "valid_to",
    "valid_from": "valid_from",
    "valid_to": "valid_to",
}


@dataclass(frozen=True, slots=True)
class TemporalTuple:
    """One temporal data value ``<S, V, ValidFrom, ValidTo)``.

    Parameters
    ----------
    surrogate:
        The identity of the object (``S``), e.g. a faculty name.
    value:
        The time-varying attribute value (``V``), e.g. a rank.
    valid_from, valid_to:
        The half-open lifespan ``[ValidFrom, ValidTo)``.  The intra-tuple
        integrity constraint ``ValidFrom < ValidTo`` is enforced by
        :func:`~repro.model.interval.check_lifespan`, exactly as for an
        :class:`~repro.model.interval.Interval`.
    """

    surrogate: Hashable
    value: Any
    valid_from: Timepoint
    valid_to: Timepoint

    def __post_init__(self) -> None:
        check_lifespan(self.valid_from, self.valid_to)

    @property
    def interval(self) -> Interval:
        """The tuple's lifespan as an :class:`Interval`."""
        return Interval(self.valid_from, self.valid_to)

    @property
    def lifespan(self) -> Interval:
        """Alias for :attr:`interval`, matching the paper's vocabulary."""
        return self.interval

    @property
    def duration(self) -> int:
        """Length of the lifespan in timepoints."""
        return self.valid_to - self.valid_from

    @classmethod
    def from_interval(
        cls, surrogate: Hashable, value: Any, interval: Interval
    ) -> "TemporalTuple":
        """Build a tuple from an :class:`Interval` lifespan."""
        return cls(surrogate, value, interval.start, interval.end)

    def get(self, attribute: str, schema: "TemporalSchema | None" = None) -> Any:
        """Fetch an attribute by name.

        The timestamp attributes are always reachable via the canonical
        and paper-style names (``ValidFrom``/``TS``, ``ValidTo``/``TE``).
        When a ``schema`` is supplied, its surrogate/value attribute
        names (e.g. ``Name``/``Rank``) resolve as well.
        """
        canonical = TIMESTAMP_ALIASES.get(attribute)
        if canonical == "valid_from":
            return self.valid_from
        if canonical == "valid_to":
            return self.valid_to
        if attribute in ("surrogate", "S"):
            return self.surrogate
        if attribute in ("value", "V"):
            return self.value
        if schema is not None:
            if attribute == schema.surrogate_name:
                return self.surrogate
            if attribute == schema.value_name:
                return self.value
        raise SchemaError(f"unknown temporal attribute {attribute!r}")

    def holds_at(self, point: Timepoint) -> bool:
        """True when the tuple's lifespan covers ``point``."""
        return covers_point(self, point)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{self.surrogate!r}, {self.value!r}, "
            f"[{self.valid_from}, {self.valid_to})>"
        )


@dataclass(frozen=True, slots=True)
class TemporalSchema:
    """Names for the four attributes of a temporal relation.

    For the paper's running example this is
    ``TemporalSchema('Faculty', 'Name', 'Rank')``.
    """

    relation_name: str
    surrogate_name: str = "S"
    value_name: str = "V"

    def __post_init__(self) -> None:
        reserved = set(TIMESTAMP_ALIASES)
        for attr in (self.surrogate_name, self.value_name):
            if attr in reserved:
                raise SchemaError(
                    f"{attr!r} collides with a reserved timestamp attribute name"
                )
        if self.surrogate_name == self.value_name:
            raise SchemaError("surrogate and value attributes must differ")

    @property
    def attribute_names(self) -> tuple[str, str, str, str]:
        """All four attribute names in canonical order."""
        return (self.surrogate_name, self.value_name, "ValidFrom", "ValidTo")

    def has_attribute(self, attribute: str) -> bool:
        """True when ``attribute`` resolves against this schema."""
        return attribute in TIMESTAMP_ALIASES or attribute in (
            self.surrogate_name,
            self.value_name,
        )
