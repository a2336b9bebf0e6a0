"""FIG3 — Figure 3: conventional parse-tree optimization.

Claims reproduced:

* the raw Figure-3(a) plan (Cartesian products + one big selection) and
  the rewritten Figure-3(b) plan (pushed selections/projection, joins)
  produce identical results;
* the rewrite shrinks work dramatically — comparisons drop by orders of
  magnitude because selections run before products;
* the Faculty relation is still referenced three times by either plan
  (the observation motivating the single-scan strategies).
"""

import pytest

from repro.algebra import compile_plan, optimize
from repro.query import parse_query, translate
from repro.relational import EngineStats
from repro.superstar import SUPERSTAR_QUEL

from .conftest import print_table


@pytest.fixture(scope="module")
def catalog(faculty_small):
    return {"Faculty": faculty_small}


@pytest.fixture(scope="module")
def plans(catalog):
    raw = translate(parse_query(SUPERSTAR_QUEL), catalog)
    return raw, optimize(raw)


def run_plan(plan, catalog):
    stats = EngineStats()
    rows = compile_plan(plan, catalog, stats).run()
    return rows, stats


def test_fig3_shape(plans, catalog):
    raw, rewritten = plans
    raw_rows, raw_stats = run_plan(raw, catalog)
    opt_rows, opt_stats = run_plan(rewritten, catalog)

    assert raw_rows
    assert sorted(raw_rows) == sorted(opt_rows)
    assert opt_stats.scans_started == 3  # three references to Faculty
    # The headline: pushdown shrinks predicate evaluations by >= 100x
    # at this size (the raw plan evaluates theta over |F|^3 rows).
    assert opt_stats.comparisons * 100 < raw_stats.comparisons

    print_table(
        "Figure 3 reproduced: conventional rewrites on the Superstar "
        "query",
        f"{'plan':18s} {'comparisons':>12s} {'rows materialized':>18s} "
        f"{'faculty scans':>14s}",
        [
            f"{'3(a) raw':18s} {raw_stats.comparisons:12d} "
            f"{raw_stats.rows_materialized:18d} "
            f"{raw_stats.scans_started:14d}",
            f"{'3(b) rewritten':18s} {opt_stats.comparisons:12d} "
            f"{opt_stats.rows_materialized:18d} "
            f"{opt_stats.scans_started:14d}",
        ],
    )
