"""Shared fixtures for the paper's table and figure checks.

Every module here regenerates one of the paper's tables or figures
(see DESIGN.md's experiment index).  The paper's evaluation is
analytical, so each module asserts the shape it claims in counts —
state class, peak state, passes, scans, comparisons — never in
wall-clock time.  The printed tables (enable with ``-s``) are the
reproduction's counterpart of the paper's Tables 1-3 and the
Superstar narrative.
"""

import pytest

from repro.workload import FacultyWorkload, PoissonWorkload, fixed_duration


@pytest.fixture(scope="session")
def poisson_pair():
    """Medium-sized X/Y inputs with containment structure: long X
    lifespans, short Y lifespans."""
    x = PoissonWorkload(1000, 0.5, fixed_duration(40), name="X").generate(1)
    y = PoissonWorkload(1000, 0.5, fixed_duration(10), name="Y").generate(2)
    return x, y


@pytest.fixture(scope="session")
def faculty_small():
    """Small Faculty instance for plans with super-linear baselines
    (the raw Figure-3(a) plan is cubic in |Faculty|)."""
    return FacultyWorkload(
        faculty_count=25,
        hire_window=300,
        continuous=True,
        full_fraction=1.0,
    ).generate(seed=42)


@pytest.fixture(scope="session")
def faculty_strong():
    """Faculty data satisfying the Section-5 assumptions."""
    return FacultyWorkload(
        faculty_count=250,
        hire_window=2500,
        continuous=True,
        full_fraction=1.0,
    ).generate(seed=42)


def print_table(title, header, rows):
    """Uniform table rendering for the regenerated tables."""
    print()
    print(title)
    print(header)
    print("-" * len(header))
    for row in rows:
        print(row)
