"""Backend-differential property tests: every registry cell, on every
physical backend, against the nested-loop oracle — with the workspace
high-water mark checked against the cell's state class.

Workloads are seeded-random with deliberately nasty structure: heavy
endpoint ties, duplicate rows, zero-gap adjacency, and zero-width-gap
nesting.  For the bounded state classes the high-water mark is compared
against an interval-stabbing bound computed from the data itself:

* class ``d``  -> exactly 0 state tuples,
* class ``a1`` -> at most 1,
* classes ``a``/``b``/``c``/``b1`` -> bounded by the maximum overlap
  depth (plus, for class ``b``, the maximum number of Y tuples nested
  inside one X lifespan — the paper's own characterisation of that
  state).  The columnar backend's lazily evicted active lists may hold
  up to one extra probe-window of dead entries, hence the factor 2.
"""

import random

import pytest

from repro.columnar.fused import LazyPairs
from repro.model import TS_ASC, TemporalTuple, sort_tuples
from repro.streams import (
    NestedLoopJoin,
    NestedLoopSelfSemijoin,
    NestedLoopSemijoin,
    TemporalOperator,
    before_predicate,
    contain_predicate,
    contained_predicate,
    overlap_predicate,
    supported_entries,
)

from tests.backends import PHYSICAL_BACKENDS

from .conftest import make_stream, pair_values, values

BINARY_OPERATORS = {
    TemporalOperator.CONTAIN_JOIN: (contain_predicate, "join"),
    TemporalOperator.CONTAIN_SEMIJOIN: (contain_predicate, "semi"),
    TemporalOperator.CONTAINED_SEMIJOIN: (contained_predicate, "semi"),
    TemporalOperator.OVERLAP_JOIN: (overlap_predicate, "join"),
    TemporalOperator.OVERLAP_SEMIJOIN: (overlap_predicate, "semi"),
    TemporalOperator.BEFORE_SEMIJOIN: (before_predicate, "semi"),
}

SELF_OPERATORS = {
    TemporalOperator.SELF_CONTAINED_SEMIJOIN: contained_predicate,
    TemporalOperator.SELF_CONTAIN_SEMIJOIN: contain_predicate,
}

SEEDS = (3, 17, 42)


def tie_heavy_workload(rng, n, points=9):
    """Endpoints drawn from a tiny domain: ties, duplicates and
    zero-gap intervals are the norm, not the exception."""
    out = []
    for i in range(n):
        a = rng.randrange(points)
        b = rng.randrange(points)
        ts, te = (a, b + 1) if a <= b else (b, a + 1)
        out.append(TemporalTuple(f"s{i % 4}", i, ts, te))
    if n >= 4:  # exact duplicate rows (distinct objects, equal values)
        dup = out[0]
        out[1] = TemporalTuple(dup.surrogate, 1, dup.valid_from, dup.valid_to)
        out[2] = TemporalTuple(dup.surrogate, 2, dup.valid_from, dup.valid_to)
    return out


def overlap_depth(tuples):
    """Maximum number of lifespans covering any single timepoint."""
    events = []
    for t in tuples:
        events.append((t.valid_from, 1))
        events.append((t.valid_to, -1))
    depth = best = 0
    for _, delta in sorted(events):
        depth += delta
        best = max(best, depth)
    return best


def nested_load(xs, ys):
    """Max number of Y lifespans strictly inside one X lifespan — the
    Y-side of the paper's class-(b) state characterisation."""
    return max(
        (
            sum(1 for y in ys if contain_predicate(x, y))
            for x in xs
        ),
        default=0,
    )


def state_bound(state_class, xs, ys):
    depth = overlap_depth(list(xs) + list(ys or []))
    if state_class == "d":
        return 0
    if state_class == "a1":
        return 1
    bound = 2 * depth + 2
    if state_class == "b" and ys is not None:
        bound += nested_load(xs, ys)
    return bound


def binary_cases():
    for operator, (predicate, kind) in BINARY_OPERATORS.items():
        for entry in supported_entries(operator):
            for backend in PHYSICAL_BACKENDS:
                for seed in SEEDS:
                    yield pytest.param(
                        entry,
                        predicate,
                        kind,
                        backend,
                        seed,
                        id=(
                            f"{operator.value}"
                            f"[{entry.x_order}/{entry.y_order}]"
                            f"-{backend}-seed{seed}"
                        ),
                    )


@pytest.mark.parametrize(
    "entry, predicate, kind, backend, seed", binary_cases()
)
def test_binary_cell_differential(entry, predicate, kind, backend, seed):
    rng = random.Random(seed)
    xs = tie_heavy_workload(rng, rng.randrange(5, 40))
    ys = tie_heavy_workload(rng, rng.randrange(5, 40))
    processor = entry.build(
        make_stream(xs, entry.x_order, "X"),
        make_stream(ys, entry.y_order, "Y"),
        backend=backend,
    )
    result = processor.run()
    if kind == "join":
        oracle = NestedLoopJoin(
            make_stream(xs, TS_ASC, "X"),
            make_stream(ys, TS_ASC, "Y"),
            predicate,
        ).run()
        assert pair_values(result) == pair_values(oracle)
    else:
        oracle = NestedLoopSemijoin(
            make_stream(xs, TS_ASC, "X"),
            make_stream(ys, TS_ASC, "Y"),
            predicate,
        ).run()
        assert values(result) == values(oracle)
    high_water = processor.metrics.workspace.high_water
    assert high_water <= state_bound(entry.state_class, xs, ys)
    # Single pass over each input on both backends (the tuple backend
    # may additionally stop early and leave a suffix unread).
    assert processor.metrics.passes_x <= 1
    assert processor.metrics.passes_y <= 1
    assert processor.metrics.tuples_read_x <= len(xs)
    assert processor.metrics.tuples_read_y <= len(ys)
    if backend == "columnar":
        assert processor.metrics.tuples_read_x == len(xs)
        assert processor.metrics.tuples_read_y == len(ys)


def self_cases():
    for operator, predicate in SELF_OPERATORS.items():
        for entry in supported_entries(operator):
            for backend in PHYSICAL_BACKENDS:
                for seed in SEEDS:
                    yield pytest.param(
                        entry,
                        predicate,
                        backend,
                        seed,
                        id=(
                            f"{operator.value}[{entry.x_order}]"
                            f"-{backend}-seed{seed}"
                        ),
                    )


@pytest.mark.parametrize("entry, predicate, backend, seed", self_cases())
def test_self_cell_differential(entry, predicate, backend, seed):
    rng = random.Random(seed)
    xs = tie_heavy_workload(rng, rng.randrange(5, 40))
    processor = entry.build(
        make_stream(xs, entry.x_order, "X"), backend=backend
    )
    result = processor.run()
    oracle = NestedLoopSelfSemijoin(
        make_stream(xs, TS_ASC, "X"), predicate
    ).run()
    assert values(result) == values(oracle)
    high_water = processor.metrics.workspace.high_water
    assert high_water <= state_bound(entry.state_class, xs, None)
    assert processor.metrics.passes_x <= 1
    assert processor.metrics.tuples_read_x == len(xs)


def test_every_cell_runs_on_every_advertised_backend():
    """Meta-check: each supported cell advertises all three physical
    backends."""
    for operators in (BINARY_OPERATORS, SELF_OPERATORS):
        for operator in operators:
            for entry in supported_entries(operator):
                assert "tuple" in entry.backends
                assert "columnar" in entry.backends
                assert "fused" in entry.backends


def three_way_cases():
    for operators in (BINARY_OPERATORS, SELF_OPERATORS):
        for operator in operators:
            for entry in supported_entries(operator):
                for seed in SEEDS:
                    yield pytest.param(
                        entry,
                        seed,
                        id=(
                            f"{operator.value}"
                            f"[{entry.x_order}/{entry.y_order}]"
                            f"-seed{seed}"
                        ),
                    )


def _run_on(entry, backend, xs, ys):
    """``(output, metrics, Figure-5 trace)`` of one run."""
    if ys is None:
        processor = entry.build(
            make_stream(xs, entry.x_order, "X"), backend=backend
        )
    else:
        processor = entry.build(
            make_stream(xs, entry.x_order, "X"),
            make_stream(ys, entry.y_order, "Y"),
            backend=backend,
        )
    processor.meter.enable_trace()
    return processor.run(), processor.metrics, processor.meter.trace


@pytest.mark.parametrize("entry, seed", three_way_cases())
def test_three_way_backends_byte_identical(entry, seed):
    """tuple vs columnar vs fused on every registry cell: identical
    output *sequences* (values and emission order), ``fused`` the same
    run as ``columnar`` in every count, and comparison accounting within
    the stated drift bound.

    The comparison-parity law (the accounting-drift fix): the tuple
    backend GCs its state before probing, so its ``comparisons`` count
    only live-entry match tests; the batch backends additionally pay
    one merge-advance test per consumed input element, so

        0 <= columnar - tuple <= nx + ny,

    with dead-entry rediscovery split into ``eviction_checks``.  The
    one exception is the contained-semijoin class-(c) cells, where the
    tuple processor breaks at the first witness while the batch sweep
    probes a snapshot — there the law is one-sided (tuple <= columnar).
    """
    rng = random.Random(seed)
    xs = tie_heavy_workload(rng, rng.randrange(5, 40))
    ys = (
        tie_heavy_workload(rng, rng.randrange(5, 40))
        if entry.y_order is not None
        else None
    )
    nx, ny = len(xs), len(ys or [])
    t_out, t_m, _ = _run_on(entry, "tuple", xs, ys)
    c_out, c_m, c_trace = _run_on(entry, "columnar", xs, ys)
    f_out, f_m, f_trace = _run_on(entry, "fused", xs, ys)
    kind = BINARY_OPERATORS.get(entry.operator, (None, None))[1]
    if kind == "join":
        # Both batch backends hand back the one lazy join output on
        # every cell, mirrored ones included (they reverse time on the
        # columns, so positions and payloads are the originals'): its
        # length is known, and asking for it builds no pair.
        for lazy in (c_out, f_out):
            assert isinstance(lazy, LazyPairs)
            assert len(lazy) == len(t_out)
            assert lazy.materialized is False
    assert isinstance(t_out, list)
    assert list(c_out) == t_out  # element for element, in order
    assert list(f_out) == t_out
    # One path under two names: the fused run is the columnar run in
    # comparisons, eviction checks, inserted, discarded, high water and
    # the Figure-5 trace; only the backend label differs.
    assert f_trace == c_trace
    assert {**f_m.to_dict(), "backend": "columnar"} == c_m.to_dict()
    # Comparison parity within the stated bound, on both labels.
    for batch in (c_m, f_m):
        if entry.operator is TemporalOperator.CONTAINED_SEMIJOIN:
            assert t_m.comparisons <= batch.comparisons
        else:
            assert 0 <= batch.comparisons - t_m.comparisons <= nx + ny
    # The eager backend never rediscovers dead entries.
    assert t_m.eviction_checks == 0
    # Audit-record provenance: each run names its backend and kernel.
    assert t_m.backend == "tuple" and t_m.kernel is None
    assert c_m.backend == "columnar" and c_m.kernel
    assert f_m.backend == "fused" and f_m.kernel
