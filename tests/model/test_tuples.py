"""Unit tests for temporal 4-tuples and schemas."""

import pytest

from repro.columnar import IntervalColumns
from repro.errors import InvalidIntervalError, SchemaError
from repro.model import Interval, TemporalSchema, TemporalTuple


@pytest.fixture
def smith():
    return TemporalTuple("Smith", "Assistant", 10, 20)


@pytest.fixture
def faculty_schema():
    return TemporalSchema("Faculty", "Name", "Rank")


class TestTemporalTuple:
    def test_fields(self, smith):
        assert smith.surrogate == "Smith"
        assert smith.value == "Assistant"
        assert smith.valid_from == 10
        assert smith.valid_to == 20

    def test_intra_tuple_constraint_enforced(self):
        with pytest.raises(InvalidIntervalError):
            TemporalTuple("Smith", "Assistant", 20, 10)
        with pytest.raises(InvalidIntervalError):
            TemporalTuple("Smith", "Assistant", 20, 20)

    @pytest.mark.parametrize(
        "start, end",
        [(True, 5), (0, False), ("1", 5), (0, "9"), (1.0, 5), (0, 4.5),
         (3, 3), (7, 2)],
    )
    def test_constraint_is_the_intervals(self, start, end):
        """Every constructor of a lifespan refuses a bad one with the
        same exception type and message."""
        raised = []
        for build in (
            lambda: Interval(start, end),
            lambda: TemporalTuple("S", "V", start, end),
            lambda: IntervalColumns([start], [end], [0], None).tuples,
        ):
            with pytest.raises((TypeError, InvalidIntervalError)) as info:
                build()
            raised.append((type(info.value), str(info.value)))
        assert len(set(raised)) == 1

    def test_interval_property(self, smith):
        assert smith.interval == Interval(10, 20)
        assert smith.lifespan == smith.interval
        assert smith.duration == 10

    def test_from_interval_roundtrip(self, smith):
        rebuilt = TemporalTuple.from_interval(
            smith.surrogate, smith.value, smith.interval
        )
        assert rebuilt == smith

    def test_holds_at(self, smith):
        assert smith.holds_at(10)
        assert smith.holds_at(19)
        assert not smith.holds_at(20)
        assert not smith.holds_at(9)

    def test_get_timestamp_aliases(self, smith):
        assert smith.get("ValidFrom") == 10
        assert smith.get("TS") == 10
        assert smith.get("ValidTo") == 20
        assert smith.get("TE") == 20

    def test_get_generic_names(self, smith):
        assert smith.get("surrogate") == "Smith"
        assert smith.get("S") == "Smith"
        assert smith.get("value") == "Assistant"
        assert smith.get("V") == "Assistant"

    def test_get_schema_names(self, smith, faculty_schema):
        assert smith.get("Name", faculty_schema) == "Smith"
        assert smith.get("Rank", faculty_schema) == "Assistant"

    def test_get_unknown_attribute(self, smith, faculty_schema):
        with pytest.raises(SchemaError):
            smith.get("Salary", faculty_schema)
        with pytest.raises(SchemaError):
            smith.get("Name")  # no schema supplied

    def test_tuples_are_hashable_values(self, smith):
        again = TemporalTuple("Smith", "Assistant", 10, 20)
        assert smith == again
        assert len({smith, again}) == 1


class TestTemporalSchema:
    def test_attribute_names(self, faculty_schema):
        assert faculty_schema.attribute_names == (
            "Name",
            "Rank",
            "ValidFrom",
            "ValidTo",
        )

    def test_has_attribute(self, faculty_schema):
        assert faculty_schema.has_attribute("Name")
        assert faculty_schema.has_attribute("Rank")
        assert faculty_schema.has_attribute("ValidFrom")
        assert faculty_schema.has_attribute("TE")
        assert not faculty_schema.has_attribute("Salary")

    def test_reserved_names_rejected(self):
        with pytest.raises(SchemaError):
            TemporalSchema("R", "ValidFrom", "Rank")
        with pytest.raises(SchemaError):
            TemporalSchema("R", "Name", "TS")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            TemporalSchema("R", "Name", "Name")
