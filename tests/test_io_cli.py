"""Tests for CSV I/O and the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.errors import SchemaError
from repro.io import dump_temporal_csv, load_temporal_csv, loads_temporal_csv
from repro.model import TemporalTuple, faculty_constraints
from repro.workload import figure1_relation

FACULTY_CSV = """Name,Rank,ValidFrom,ValidTo
Smith,Assistant,0,6
Smith,Associate,6,12
Smith,Full,12,30
"""


class TestCsvIO:
    def test_loads_basic(self):
        rel = loads_temporal_csv(FACULTY_CSV, relation_name="Faculty")
        assert len(rel) == 3
        assert rel.schema.surrogate_name == "Name"
        assert rel.schema.value_name == "Rank"
        assert TemporalTuple("Smith", "Assistant", 0, 6) in rel

    def test_integer_values_parsed(self):
        rel = loads_temporal_csv(
            "Id,Level,ValidFrom,ValidTo\n7,3,0,5\n"
        )
        tup = rel.tuples[0]
        assert tup.surrogate == 7 and tup.value == 3

    def test_round_trip(self, tmp_path):
        original = figure1_relation()
        path = tmp_path / "faculty.csv"
        dump_temporal_csv(original, path)
        loaded = load_temporal_csv(path)
        assert loaded.schema.relation_name == "faculty"
        assert sorted(
            (t.surrogate, t.value, t.valid_from, t.valid_to)
            for t in loaded
        ) == sorted(
            (t.surrogate, t.value, t.valid_from, t.valid_to)
            for t in original
        )

    def test_constraints_attached(self):
        rel = loads_temporal_csv(
            FACULTY_CSV, constraints=faculty_constraints(continuous=True)
        )
        assert rel.validate() == []

    def test_bad_header(self):
        with pytest.raises(SchemaError):
            loads_temporal_csv("a,b,c\n1,2,3\n")
        with pytest.raises(SchemaError):
            loads_temporal_csv("Name,Rank,From,To\nSmith,Full,0,5\n")

    def test_empty_file(self):
        with pytest.raises(SchemaError):
            loads_temporal_csv("")

    def test_bad_arity_row(self):
        with pytest.raises(SchemaError):
            loads_temporal_csv(
                "Name,Rank,ValidFrom,ValidTo\nSmith,Full,0\n"
            )

    def test_dump_to_stream(self):
        buffer = io.StringIO()
        dump_temporal_csv(figure1_relation(), buffer)
        assert buffer.getvalue().startswith("Name,Rank,ValidFrom,ValidTo")


@pytest.fixture
def faculty_csv(tmp_path):
    path = tmp_path / "Faculty.csv"
    dump_temporal_csv(figure1_relation(), path)
    return path


class TestCli:
    def test_query_command(self, faculty_csv, capsys):
        code = main(
            [
                "query",
                "--relation",
                f"Faculty={faculty_csv}",
                'range of f is Faculty retrieve (N = f.Name) '
                'where f.Rank = "Full"',
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Smith" in captured.out
        assert "Jones" in captured.out
        assert "row(s)" in captured.err

    def test_query_with_explain(self, faculty_csv, capsys):
        code = main(
            [
                "query",
                "--explain",
                "--relation",
                f"Faculty={faculty_csv}",
                "range of f is Faculty retrieve (N = f.Name)",
            ]
        )
        assert code == 0
        assert "Project" in capsys.readouterr().out

    def test_query_semantic_report(self, faculty_csv, capsys):
        superstar = (
            "range of f1 is Faculty range of f2 is Faculty "
            "range of f3 is Faculty "
            "retrieve unique (Name = f1.Name) "
            'where f3.Rank = "Associate" and f1.Name = f2.Name '
            'and f1.Rank = "Assistant" and f2.Rank = "Full" '
            "and (f1 overlap f3) and (f2 overlap f3)"
        )
        code = main(
            [
                "query",
                "--semantic",
                "--relation",
                f"Faculty={faculty_csv}",
                superstar,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        # The CSV catalog has no declared constraints, so the
        # optimizer must report zero removals — knowledge comes from
        # declarations, not data.
        assert "removed 0 conjunct(s)" in captured.out

    def test_bad_relation_binding(self, capsys):
        code = main(["query", "--relation", "nonsense", "range of f is F retrieve (N = f.Name)"])
        assert code == 2
        assert "--relation needs NAME=FILE.csv" in capsys.readouterr().err

    def test_bad_relation_binding_in_explain_analyze(
        self, faculty_csv, capsys
    ):
        """The binding after a good one is checked too, before anything
        runs."""
        code = main(
            [
                "explain-analyze",
                "-r",
                f"Faculty={faculty_csv}",
                "-r",
                "=nameless.csv",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "--relation needs NAME=FILE.csv" in captured.err
        assert captured.out == ""

    def test_parse_error_reported(self, faculty_csv, capsys):
        code = main(
            [
                "query",
                "--relation",
                f"Faculty={faculty_csv}",
                "retrieve (N = f.Name)",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_demo_command(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "semantic-self-semijoin" in out
        assert "scans=1" in out
