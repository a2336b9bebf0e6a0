"""Observability must be free of observable effect: a traced run and an
untraced run of the same registry cell produce byte-identical output
(and identical paper metrics) on every supported Table-1/2/3 cell, on
both physical backends."""

import random

import pytest

from repro.model import TemporalTuple, sort_tuples
from repro.obs import Tracer
from repro.obs.trace import set_tracer
from repro.streams import (
    TemporalOperator,
    TupleStream,
    supported_entries,
)

from tests.backends import PHYSICAL_BACKENDS

BINARY_OPERATORS = (
    TemporalOperator.CONTAIN_JOIN,
    TemporalOperator.CONTAIN_SEMIJOIN,
    TemporalOperator.CONTAINED_SEMIJOIN,
    TemporalOperator.OVERLAP_JOIN,
    TemporalOperator.OVERLAP_SEMIJOIN,
    TemporalOperator.BEFORE_SEMIJOIN,
)

SELF_OPERATORS = (
    TemporalOperator.SELF_CONTAINED_SEMIJOIN,
    TemporalOperator.SELF_CONTAIN_SEMIJOIN,
)


def make_tuples(n, seed):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        start = rng.randrange(0, 120)
        out.append(
            TemporalTuple(f"s{i}", i, start, start + rng.randrange(1, 40))
        )
    return out


def stream_for(tuples, order, name):
    return TupleStream.from_tuples(
        sort_tuples(tuples, order), order=order, name=name
    )


def run_cell(entry, backend, xs, ys, traced):
    x = stream_for(xs, entry.x_order, "X")
    y = (
        stream_for(ys, entry.y_order, "Y")
        if entry.y_order is not None
        else None
    )
    if not traced:
        processor = (
            entry.build(x, backend=backend)
            if y is None
            else entry.build(x, y, backend=backend)
        )
        return processor.run(), processor.metrics
    tracer = Tracer("diff")
    previous = set_tracer(tracer)
    try:
        processor = (
            entry.build(x, backend=backend)
            if y is None
            else entry.build(x, y, backend=backend)
        )
        out = processor.run()
    finally:
        set_tracer(previous)
    assert tracer.open_spans == 0
    # Descending-order cells run through the mirror wrapper, which
    # records the span under the inner (ascending) operator's name —
    # so assert on the span family, not the exact name.
    assert any(s.name.startswith("operator:") for s in tracer.spans)
    return out, processor.metrics


def all_cells():
    for operator in BINARY_OPERATORS + SELF_OPERATORS:
        for entry in supported_entries(operator):
            for backend in PHYSICAL_BACKENDS:
                yield pytest.param(
                    entry,
                    backend,
                    id=(
                        f"{operator.value}"
                        f"[{entry.x_order}/{entry.y_order}]-{backend}"
                    ),
                )


@pytest.mark.parametrize("entry, backend", list(all_cells()))
def test_traced_run_is_byte_identical(entry, backend):
    xs = make_tuples(120, seed=11)
    ys = make_tuples(120, seed=23)
    plain_out, plain_metrics = run_cell(entry, backend, xs, ys, False)
    traced_out, traced_metrics = run_cell(entry, backend, xs, ys, True)
    assert repr(traced_out) == repr(plain_out)
    assert traced_metrics.comparisons == plain_metrics.comparisons
    assert (
        traced_metrics.workspace_high_water
        == plain_metrics.workspace_high_water
    )
    assert traced_metrics.passes_x == plain_metrics.passes_x
    assert traced_metrics.passes_y == plain_metrics.passes_y
    assert traced_metrics.output_count == plain_metrics.output_count
