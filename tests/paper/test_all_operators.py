"""Completeness sweep: every one of the 13 Allen operators evaluated
as a stream join.

The paper covers the inequality-only operators in Section 4.2 (Tables
1-2) and disposes of the equality-bearing ones in footnote 8 ("sort on
the equality attributes, merge-join, filter").  This module runs
all thirteen through their stream implementations on one workload and
verifies each against an oracle that classifies every pair once with
``repro.allen.classify`` — the full Figure-2 catalogue, processable.

Inverse relations reuse the primal operator with operands swapped.
"""

from collections import defaultdict

from repro.allen import AllenRelation as R
from repro.allen import classify
from repro.model import TE_ASC, TS_ASC, TS_TE_ASC
from repro.streams import (
    ContainJoinTsTs,
    EqualJoin,
    FinishesJoin,
    MeetsJoin,
    NestedLoopJoin,
    BeforeJoinSweep,
    OverlapJoin,
    StartsJoin,
)
from repro.workload import PoissonWorkload, uniform_duration

from ..streams.conftest import make_stream, pair_values
from .conftest import print_table

# Denser, tie-heavy inputs so the equality operators actually match.
X = (
    PoissonWorkload(400, 2.0, uniform_duration(1, 12), name="X")
    .generate(1)
    .tuples
)
Y = (
    PoissonWorkload(400, 2.0, uniform_duration(1, 12), name="Y")
    .generate(2)
    .tuples
)

#: relation -> (factory(x_tuples, y_tuples) -> processor, swap_output)
STREAM_IMPLEMENTATIONS = {
    R.EQUAL: (
        lambda x, y: EqualJoin(
            make_stream(x, TS_TE_ASC, "X"), make_stream(y, TS_TE_ASC, "Y")
        ),
        False,
    ),
    R.MEETS: (
        lambda x, y: MeetsJoin(
            make_stream(x, TE_ASC, "X"), make_stream(y, TS_ASC, "Y")
        ),
        False,
    ),
    R.MET_BY: (
        lambda x, y: MeetsJoin(
            make_stream(y, TE_ASC, "Y"), make_stream(x, TS_ASC, "X")
        ),
        True,
    ),
    R.STARTS: (
        lambda x, y: StartsJoin(
            make_stream(x, TS_ASC, "X"), make_stream(y, TS_ASC, "Y")
        ),
        False,
    ),
    R.STARTED_BY: (
        lambda x, y: StartsJoin(
            make_stream(y, TS_ASC, "Y"), make_stream(x, TS_ASC, "X")
        ),
        True,
    ),
    R.FINISHES: (
        lambda x, y: FinishesJoin(
            make_stream(x, TE_ASC, "X"), make_stream(y, TE_ASC, "Y")
        ),
        False,
    ),
    R.FINISHED_BY: (
        lambda x, y: FinishesJoin(
            make_stream(y, TE_ASC, "Y"), make_stream(x, TE_ASC, "X")
        ),
        True,
    ),
    R.DURING: (
        lambda x, y: ContainJoinTsTs(
            make_stream(y, TS_ASC, "Y"), make_stream(x, TS_ASC, "X")
        ),
        True,
    ),
    R.CONTAINS: (
        lambda x, y: ContainJoinTsTs(
            make_stream(x, TS_ASC, "X"), make_stream(y, TS_ASC, "Y")
        ),
        False,
    ),
    # Allen's strict 'overlaps' = general overlap minus the other
    # shared-point relations; evaluate via the sweep with a residual.
    R.OVERLAPS: (
        lambda x, y: _strict_overlaps(x, y),
        False,
    ),
    R.OVERLAPPED_BY: (
        lambda x, y: _strict_overlaps(y, x),
        True,
    ),
    R.BEFORE: (
        lambda x, y: BeforeJoinSweep(
            make_stream(x, TS_ASC, "X"), make_stream(y, TS_ASC, "Y")
        ),
        False,
    ),
    R.AFTER: (
        lambda x, y: BeforeJoinSweep(
            make_stream(y, TS_ASC, "Y"), make_stream(x, TS_ASC, "X")
        ),
        True,
    ),
}


class _FilteredJoin:
    """Overlap sweep post-filtered to Allen's strict 'overlaps' —
    correct because strict overlaps implies general overlap."""

    def __init__(self, inner, relation):
        self.inner = inner
        self.relation = relation

    def run(self):
        return [
            (a, b)
            for a, b in self.inner.run()
            if self.relation.holds(a.interval, b.interval)
        ]

    @property
    def metrics(self):
        return self.inner.metrics


def _strict_overlaps(x, y):
    return _FilteredJoin(
        OverlapJoin(make_stream(x, TS_ASC, "X"), make_stream(y, TS_ASC, "Y")),
        R.OVERLAPS,
    )


def classified_pairs():
    """Relation -> sorted (x, y) value pairs, from one ``classify`` per
    pair of X x Y (the stream operators never call it)."""
    pairs = defaultdict(list)
    for a in X:
        for b in Y:
            pairs[classify(a.interval, b.interval)].append((a.value, b.value))
    for found in pairs.values():
        found.sort()
    return pairs


def test_all_thirteen_operators_streamable():
    oracle = classified_pairs()
    rows = []
    for relation, (factory, swap) in STREAM_IMPLEMENTATIONS.items():
        processor = factory(X, Y)
        result = processor.run()
        if swap:
            result = [(b, a) for a, b in result]
        pairs = pair_values(result)
        assert pairs == oracle[relation], relation
        rows.append(
            f"{relation.value:16s} {len(pairs):8d} "
            f"{processor.metrics.workspace_high_water:10d} "
            f"{processor.metrics.comparisons:12d}"
        )
    print_table(
        "All 13 Figure-2 operators evaluated as stream joins "
        f"(|X|=|Y|={len(X)})",
        f"{'operator':16s} {'output':>8s} {'peak state':>10s} "
        f"{'comparisons':>12s}",
        rows,
    )
    assert len(STREAM_IMPLEMENTATIONS) == 13


def test_equality_merges_beat_nested_loop():
    join = MeetsJoin(make_stream(X, TE_ASC, "X"), make_stream(Y, TS_ASC, "Y"))
    join.run()
    reference = NestedLoopJoin(
        make_stream(X, TS_ASC, "X"),
        make_stream(Y, TS_ASC, "Y"),
        lambda a, b: a.valid_to == b.valid_from,
    )
    reference.run()
    assert join.metrics.comparisons * 20 < reference.metrics.comparisons
