"""The kernel boundary: whatever form an operand's endpoint columns are
stored in — the validated ``array('q')`` or a plain list — the kernels
are handed plain lists, and nothing they return or count depends on the
stored form."""

import random
from array import array
from dataclasses import replace
from functools import wraps

import pytest

from repro.columnar import CELLS, ColumnarProcessor
from repro.columnar.relation import IntervalColumns
from repro.errors import ExecutionError
from repro.model import TE_DESC, TS_ASC, TemporalTuple, sort_tuples
from repro.parallel import execute_parallel
from repro.streams import TemporalOperator, TupleStream, lookup

FORMS = ("array", "list")
SWEEP_COUNTS = (
    "comparisons", "eviction_checks", "inserted", "discarded", "high_water",
)


def tuples(name, count, seed):
    """Short lifespans on a small domain: ties on both endpoints."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        start = rng.randint(0, 40)
        out.append(
            TemporalTuple(f"{name}{i}", i, start, start + rng.randint(1, 12))
        )
    return out


def stored_as(form, rows):
    """``rows``' two endpoint columns, kept in ``form``."""
    starts = [row.valid_from for row in rows]
    ends = [row.valid_to for row in rows]
    if form == "list":
        return starts, ends
    return array("q", starts), array("q", ends)


def spied(cell, seen):
    """``cell`` with its batch kernel recording what it was handed and
    the ``SweepStats`` it returned."""

    def spy(kernel):
        @wraps(kernel)
        def run(*columns, **options):
            out, stats = kernel(*columns, **options)
            seen.append(
                (
                    [type(column) for column in columns],
                    {name: getattr(stats, name) for name in SWEEP_COUNTS},
                )
            )
            return out, stats

        return run

    return replace(cell, kernel=spy(cell.kernel))


def streams_over(form, operands):
    """One column-born stream per ``(name, order, rows)`` operand, its
    endpoint columns stored in ``form``."""
    return [
        TupleStream.from_columns(
            IntervalColumns(*stored_as(form, rows), rows, order, name=name),
            name=name,
        )
        for name, order, rows in operands
    ]


def run_cell(cell, mirrored, form):
    """Everything observable about one run of ``cell`` on operands
    whose columns are stored in ``form``."""
    operands = []
    for name, order, seed in (("X", cell.x_order, 3), ("Y", cell.y_order, 4)):
        if order is not None:
            if mirrored:
                order = order.mirrored()
            rows = sort_tuples(tuples(name, 45, seed), order)
            operands.append((name, order, rows))
    seen = []
    processor = ColumnarProcessor(
        spied(cell, seen),
        "columnar",
        *streams_over(form, operands),
        mirrored=mirrored,
    )
    processor.meter.enable_trace()
    out = list(processor.run())
    ((handed, sweep_stats),) = seen
    return {
        "handed": handed,
        "out": out,
        "sweep_stats": sweep_stats,
        "metrics": processor.metrics.to_dict(),
        "trace": list(processor.meter.trace),
    }


@pytest.mark.parametrize(
    "label,mirrored",
    [
        (label, mirrored)
        for label, cell in sorted(CELLS.items())
        # the order-free Before-semijoin has no mirror
        for mirrored in (False, True)[: 1 if cell.order_free else 2]
    ],
)
def test_a_cell_reads_lists_whatever_its_operands_are_stored_as(
    label, mirrored
):
    cell = CELLS[label]
    runs = {form: run_cell(cell, mirrored, form) for form in FORMS}
    columns = 2 if cell.y_order is None else 4
    for form, run in runs.items():
        assert run["handed"] == [list] * columns, form
        assert run == runs["array"], form
    reference = runs["array"]
    assert reference["out"], "the operands were meant to match"
    stats = reference["sweep_stats"]
    assert max(reference["trace"]) == stats["high_water"]
    # The processor reports the kernel's one charge of the sweep.
    for count in ("comparisons", "eviction_checks"):
        assert reference["metrics"][count] == stats[count]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("backend", ("columnar", "fused"))
def test_a_mirrored_cell_still_refuses_the_unnegatable_endpoint(backend, form):
    """-2**63 has no time-reversed image in int64: the typed error, from
    the array the reversal builds before the kernel's lists."""
    floor = TemporalTuple("floor", 99, -(2**63), 3)
    xs = sort_tuples(tuples("x", 5, 1) + [floor], TE_DESC)
    ys = sort_tuples(tuples("y", 5, 2), TE_DESC)
    operands = (("X", TE_DESC, xs), ("Y", TE_DESC, ys))
    processor = ColumnarProcessor(
        CELLS["contain-join[TS^,TS^]"],
        backend,
        *streams_over(form, operands),
        mirrored=True,
    )
    with pytest.raises(
        ExecutionError,
        match=f"row {xs.index(floor)} of 'X'.* {-2**63} ",
    ):
        processor.run()
    assert processor.metrics.output_count == 0


def surrogates(pairs):
    return sorted((x.surrogate, y.surrogate) for x, y in pairs)


@pytest.mark.parametrize("backend", ("columnar", "fused"))
@pytest.mark.parametrize("order", (TS_ASC, TE_DESC), ids=("plain", "mirrored"))
def test_two_shards_equal_the_serial_run_on_either_transport(order, backend):
    """Inline shards run their tasks' array slices in the parent,
    process shards the same slices in a worker: the same pairs in the
    same order, and the serial run's."""
    entry = lookup(TemporalOperator.CONTAIN_JOIN, order, order)
    xs = sort_tuples(tuples("x", 120, 5), order)
    ys = sort_tuples(tuples("y", 120, 6), order)
    serial = entry.build(
        TupleStream.from_tuples(xs, order=order, name="X"),
        TupleStream.from_tuples(ys, order=order, name="Y"),
        backend=backend,
    ).run()
    inline, process = (
        execute_parallel(
            entry, xs, ys, shards=2, workers=2, backend=backend, mode=mode
        )
        for mode in ("inline", "process")
    )
    assert process.mode == "process"
    assert list(process.results) == list(inline.results)
    assert surrogates(inline.results) == surrogates(serial) != []
