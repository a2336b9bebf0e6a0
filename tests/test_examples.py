"""Smoke tests: every example script runs cleanly and prints what it
promises."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

EXPECTED_MARKERS = {
    "quickstart.py": "execution profile:",
    "superstar.py": "speedup in join-condition evaluations",
    "sort_order_tradeoffs.py": "planner choices for Contain-join:",
    "payroll_history.py": "shuffled input correctly rejected",
    "semantic_optimization.py": "results identical before/after",
}


@pytest.mark.parametrize("script", sorted(EXPECTED_MARKERS))
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert EXPECTED_MARKERS[script] in result.stdout


def test_every_example_is_covered():
    scripts = {p.name for p in EXAMPLES.glob("*.py")}
    assert scripts == set(EXPECTED_MARKERS)
