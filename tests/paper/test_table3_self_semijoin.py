"""TAB3 + FIG7 — Table 3 / Figure 7: the single-scan self semijoins.

Claims reproduced:

* Contained-semijoin(X,X) on (ValidFrom^, ValidTo^) runs in ONE scan
  with ONE state tuple (Table 3's (a)), at any input size;
* the Figure-7 worked trace is reproduced step for step (checked in
  ``tests/streams/test_self_semijoin.py``);
* Contain-semijoin(X,X) on ValidFrom^ keeps only open candidates
  ((b)); its ValidFrom-descending order-dual is again one state tuple;
* the naive alternative — running the binary semijoin algorithm on the
  same stream — costs a second scan, which the specialised algorithm
  avoids.
"""

import pytest

from repro.model import (
    TE_ASC,
    TS_ASC,
    TS_TE_ASC,
    Direction,
    SortOrder,
)
from repro.streams import (
    ContainedSemijoinTeTs,
    NestedLoopSelfSemijoin,
    TemporalOperator,
    contained_predicate,
    lookup,
)
from repro.workload import PoissonWorkload, fixed_duration

from tests.backends import PHYSICAL_BACKENDS

from ..streams.conftest import make_stream, values
from .conftest import print_table

TS_TE_DESC = SortOrder.by_ts(Direction.DESC, secondary_te=True)


def big_stream(n=3000, seed=5):
    return PoissonWorkload(
        n, 0.7, fixed_duration(25), name="Z"
    ).generate(seed)


def run_self(operator, order, relation, backend="tuple"):
    semi = lookup(operator, order).build(
        make_stream(relation.tuples, order, "Z"), backend=backend
    )
    return semi.run(), semi.metrics


def run_self_contained(relation, backend="tuple"):
    return run_self(
        TemporalOperator.SELF_CONTAINED_SEMIJOIN,
        TS_TE_ASC,
        relation,
        backend,
    )


@pytest.mark.parametrize("backend", PHYSICAL_BACKENDS)
def test_table3_self_contained(backend):
    relation = big_stream()
    _out, metrics = run_self_contained(relation, backend)
    assert metrics.passes_x == 1
    assert metrics.workspace_high_water == 1
    assert metrics.buffers == 1


@pytest.mark.parametrize("backend", PHYSICAL_BACKENDS)
def test_table3_self_contain_asc(backend):
    relation = big_stream()
    _out, metrics = run_self(
        TemporalOperator.SELF_CONTAIN_SEMIJOIN, TS_ASC, relation, backend
    )
    assert metrics.passes_x == 1
    assert metrics.workspace_high_water < len(relation) / 10


@pytest.mark.parametrize("backend", PHYSICAL_BACKENDS)
def test_table3_self_contain_desc(backend):
    relation = big_stream()
    _out, metrics = run_self(
        TemporalOperator.SELF_CONTAIN_SEMIJOIN, TS_TE_DESC, relation, backend
    )
    assert metrics.workspace_high_water == 1


def test_table3_avoids_second_scan():
    """Applying the binary Figure-6 algorithm to the same relation
    costs two scans; the Section-4.2.3 algorithm costs one."""
    relation = big_stream(n=1500)

    binary = ContainedSemijoinTeTs(
        make_stream(relation.tuples, TE_ASC, "X-as-left"),
        make_stream(relation.tuples, TS_ASC, "X-as-right"),
    )
    # Strict containment means no tuple matches itself, so the binary
    # operator computes the same semantics — at the price of reading
    # the relation twice.
    binary_out = binary.run()
    binary_scans = binary.metrics.passes_x + binary.metrics.passes_y

    single_out, single_metrics = run_self_contained(relation)
    assert values(single_out) == values(binary_out)
    assert binary_scans == 2
    assert single_metrics.passes_x == 1

    reference = NestedLoopSelfSemijoin(
        make_stream(relation.tuples, TS_ASC, "Z"), contained_predicate
    )
    ref_out = reference.run()
    assert values(single_out) == values(ref_out)

    print_table(
        "Table 3 reproduced: Contained-semijoin(X,X)",
        f"{'algorithm':32s} {'scans':>5s} {'peak state':>10s} "
        f"{'comparisons':>12s}",
        [
            f"{'self semijoin (4.2.3)':32s} {1:5d} "
            f"{single_metrics.workspace_high_water:10d} "
            f"{single_metrics.comparisons:12d}",
            f"{'binary Figure-6 on same stream':32s} {binary_scans:5d} "
            f"{binary.metrics.workspace_high_water:10d} "
            f"{binary.metrics.comparisons:12d}",
            f"{'nested loop':32s} {1:5d} "
            f"{reference.metrics.workspace_high_water:10d} "
            f"{reference.metrics.comparisons:12d}",
        ],
    )
