"""EXT1 — hybrid execution: stream algorithms inside declarative plans.

The paper: the stream processors are "additional strategies that a
query optimizer should consider".  This module considers them: the
same Quel-like ``a during b`` query runs (1) conventionally — the
less-than join becomes a nested loop — and (2) in hybrid mode, where
the optimizer recognises the conjunction of inequalities as a
Contain-join and dispatches it to the stream engine.

Claims checked: identical rows, the join dispatched as a Contain-join
in hybrid mode only, and the recognition being semantic (a padded,
rephrased condition still streams).  The wall-clock gap is printed,
not asserted.
"""

import time

from repro.query import run_query
from repro.workload import PoissonWorkload, fixed_duration

from .conftest import print_table

DURING_QUERY = (
    "range of a is X range of b is Y "
    "retrieve (A = a.Seq, B = b.Seq) where a during b"
)


def catalog(n):
    return {
        "X": PoissonWorkload(n, 0.4, fixed_duration(4), name="X").generate(5),
        "Y": PoissonWorkload(n, 0.4, fixed_duration(30), name="Y").generate(6),
    }


def test_hybrid_shape():
    rows = []
    for n in (200, 400, 800):
        cat = catalog(n)
        start = time.perf_counter()
        conventional = run_query(DURING_QUERY, cat)
        conventional_s = time.perf_counter() - start
        start = time.perf_counter()
        hybrid = run_query(DURING_QUERY, cat, streams=True)
        hybrid_s = time.perf_counter() - start
        assert sorted(conventional.rows) == sorted(hybrid.rows)
        assert conventional.stream_joins == []
        assert len(hybrid.stream_joins) == 1
        assert hybrid.stream_joins[0].operator.value == "contain-join"
        rows.append(
            f"{n:6d} {conventional_s * 1e3:14.1f} {hybrid_s * 1e3:10.1f} "
            f"{conventional_s / max(hybrid_s, 1e-9):9.1f}x"
        )
    print_table(
        "EXT1: declarative 'a during b' query, conventional vs hybrid "
        "(ms)",
        f"{'|R|':>6s} {'conventional':>14s} {'hybrid':>10s} "
        f"{'speedup':>10s}",
        rows,
    )


def test_hybrid_recognition_is_semantic():
    """A rephrased, padded condition still routes to the stream
    engine: recognition is by logical equivalence, not pattern
    matching on the syntax."""
    cat = catalog(300)
    rephrased = (
        "range of a is X range of b is Y "
        "retrieve (A = a.Seq, B = b.Seq) "
        "where b.ValidFrom < a.ValidFrom and a.ValidTo < b.ValidTo "
        "and a.ValidFrom < b.ValidTo"  # redundant padding
    )
    result = run_query(rephrased, cat, streams=True)
    assert len(result.stream_joins) == 1
    reference = run_query(DURING_QUERY, cat)
    assert sorted(result.rows) == sorted(reference.rows)
