"""FIG8 — Figure 8 / Section 5: the Superstar query, three strategies.

Claims reproduced:

* the semantic optimizer removes exactly the two redundant inequalities
  of theta' and recognises the Contained-semijoin of the associate
  period against other associate lifespans (Figure 8(a) -> 8(b));
* all three strategies return identical Stars rows;
* the performance ordering is conventional >> stream >> semantic in
  comparisons, with the semantic plan doing one Faculty scan and
  holding one state tuple;
* the gap WIDENS with relation size (the crossover series).
"""

import pytest

from repro.superstar import (
    conventional_superstar,
    semantic_superstar,
    semantic_transformation_applies,
    stream_superstar,
)
from repro.workload import FacultyWorkload

from .conftest import print_table


def test_fig8_transformation_recognised(faculty_strong):
    assert semantic_transformation_applies(faculty_strong)


def test_fig8_shape(faculty_strong):
    conventional = conventional_superstar(faculty_strong)
    stream = stream_superstar(faculty_strong)
    semantic = semantic_superstar(faculty_strong)

    # The two Quel evaluations agree as bags; the semijoin names each
    # superstar once.
    assert conventional.rows == stream.rows
    assert semantic.rows.keys() == conventional.rows.keys()
    assert semantic.comparisons < stream.comparisons < conventional.comparisons
    assert conventional.faculty_scans == 3
    assert semantic.faculty_scans == 1
    assert semantic.workspace_high_water == 1

    print_table(
        f"Figure 8 reproduced: Superstar on {len(faculty_strong)} tuples "
        f"({len(conventional.rows)} superstars)",
        f"{'strategy':26s} {'scans':>5s} {'comparisons':>12s} "
        f"{'peak state':>10s}",
        [
            f"{r.strategy:26s} {r.faculty_scans:5d} {r.comparisons:12d} "
            f"{r.workspace_high_water:10d}"
            for r in (conventional, stream, semantic)
        ],
    )


@pytest.mark.parametrize("faculty_count", [50, 150, 450])
def test_fig8_scaling_series(faculty_count):
    """The series the paper implies: the semantic plan's advantage
    grows with |Faculty| because the conventional less-than join is
    quadratic in the candidate pairs."""
    faculty = FacultyWorkload(
        faculty_count=faculty_count,
        hire_window=faculty_count * 10,
        continuous=True,
        full_fraction=1.0,
    ).generate(seed=faculty_count)
    conventional = conventional_superstar(faculty)
    semantic = semantic_superstar(faculty)
    assert conventional.rows.keys() == semantic.rows.keys()
    advantage = conventional.comparisons / max(1, semantic.comparisons)
    print(
        f"\n|faculty|={faculty_count:4d}: conventional "
        f"{conventional.comparisons:9d} cmp vs semantic "
        f"{semantic.comparisons:6d} cmp ({advantage:7.1f}x)"
    )
    # Quadratic vs linear: the ratio should exceed the faculty count
    # for anything beyond tiny inputs.
    assert advantage > faculty_count / 2
