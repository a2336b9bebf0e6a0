"""Differential suite: parallel execution must be multiset-identical
to the serial kernel for every registry cell, on both backends, at
every shard count."""

import os

import pytest

from repro.errors import BudgetExceededError, StreamOrderError
from repro.governance import QueryBudget, governed
from repro.resilience import ExecutionReport, RecoveryPolicy
from repro.model import TE_DESC, TS_ASC, TemporalTuple, sort_tuples
from repro.parallel import execute_parallel
from repro.resilience.executor import execute_entry
from repro.streams import TemporalOperator, lookup

from tests.backends import PHYSICAL_BACKENDS

from .conftest import (
    all_supported_cells,
    canon,
    cell_id,
    plan_for,
    serial_run,
    sorted_inputs,
)

CELLS = all_supported_cells()

#: Worker/shard count for process-mode checks; the CI parallel job pins
#: this to 2 so the differential runs on a real spawn worker pool.
WORKERS = int(os.environ.get("REPRO_PARALLEL_WORKERS", "2"))


@pytest.mark.parametrize("entry", CELLS, ids=cell_id)
@pytest.mark.parametrize("backend", ["tuple", "columnar"])
@pytest.mark.parametrize("shards", [2, 3])
def test_every_cell_matches_serial(entry, backend, shards, small_inputs):
    x_raw, y_raw = small_inputs
    xs, ys = sorted_inputs(entry, x_raw, y_raw)
    expected = canon(serial_run(entry, xs, ys, backend))
    outcome = execute_parallel(
        entry, xs, ys, shards=shards, backend=backend, mode="inline"
    )
    assert canon(outcome.results) == expected
    assert outcome.plan.effective_shards >= 1
    assert not outcome.degraded


@pytest.mark.parametrize(
    "entry", [cell for cell in CELLS if cell.mirrored], ids=cell_id
)
@pytest.mark.parametrize("backend", ["columnar", "fused"])
def test_mirrored_strict_shard_takes_the_kernel_fast_path(
    entry, backend, small_inputs, monkeypatch
):
    """A STRICT lower-half shard runs its cell's kernel on the negated
    endpoint buffers: it names that kernel, rebuilds no tuple (the
    recovery ladder would rebuild every one), and still equals the
    serial run."""
    x_raw, y_raw = small_inputs
    xs, ys = sorted_inputs(entry, x_raw, y_raw)
    expected = canon(serial_run(entry, xs, ys, backend))
    built = []
    validate = TemporalTuple.__post_init__
    monkeypatch.setattr(
        TemporalTuple,
        "__post_init__",
        lambda self: (built.append(self), validate(self))[1],
    )
    outcome = execute_parallel(
        entry, xs, ys, shards=3, backend=backend, mode="inline"
    )
    assert outcome.plan.effective_shards > 1
    assert outcome.metrics.kernel == entry.cell.kernel.__name__
    assert canon(outcome.results) == expected
    assert built == []


@pytest.mark.parametrize("backend", ["columnar", "fused"])
def test_clean_degrade_shard_builds_no_tuple(
    backend, small_inputs, monkeypatch
):
    """The shard body is the serial body: DEGRADE on input that turns
    out clean sweeps the endpoint buffers like STRICT does."""
    entry = lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)
    xs, ys = sorted_inputs(entry, *small_inputs)
    expected = canon(serial_run(entry, xs, ys, backend))
    built = []
    validate = TemporalTuple.__post_init__
    monkeypatch.setattr(
        TemporalTuple,
        "__post_init__",
        lambda self: (built.append(self), validate(self))[1],
    )
    outcome = execute_parallel(
        entry,
        xs,
        ys,
        shards=3,
        backend=backend,
        policy=RecoveryPolicy.DEGRADE,
        mode="inline",
    )
    assert outcome.plan.effective_shards > 1
    assert outcome.metrics.kernel == entry.cell.kernel.__name__
    assert (outcome.metrics.passes_x, outcome.metrics.passes_y) == (1, 1)
    assert not outcome.degraded
    assert canon(outcome.results) == expected
    assert built == []


ORDERED_CELLS = [
    lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC),
    lookup(TemporalOperator.CONTAIN_JOIN, TE_DESC, TE_DESC),
]


def swapped_inputs(entry, side, swap):
    """Sorted operands with one adjacent-or-far pair of ``side``
    swapped: far from any cut, or straddling the first shard's cut."""
    xs, ys = sorted_inputs(
        entry,
        [TemporalTuple(f"x{i}", i, 3 * i, 3 * i + 40) for i in range(400)],
        [TemporalTuple(f"y{i}", i, 3 * i + 1, 3 * i + 9) for i in range(400)],
    )
    operand = xs if side == "X" else ys
    if swap == "far":
        a, b = 20, 300
    else:
        first = plan_for(entry, xs, ys, shards=2).ranges[0]
        b = first.owned_hi if side == "X" else first.y_hi
        a = b - 1
    operand[a], operand[b] = operand[b], operand[a]
    return xs, ys


@pytest.mark.parametrize("entry", ORDERED_CELLS, ids=cell_id)
@pytest.mark.parametrize("backend", PHYSICAL_BACKENDS)
@pytest.mark.parametrize("mode", ["inline", "process"])
@pytest.mark.parametrize("side", ["X", "Y"])
@pytest.mark.parametrize("swap", ["far", "cut-straddling"])
def test_strict_sees_an_order_violation_wherever_it_sits(
    swap, side, mode, backend, entry
):
    """Serial STRICT raises on any out-of-order pair; so must every
    sharded run — including a swap straddling the X cut, which is in
    order within both slices and so invisible to every shard."""
    xs, ys = swapped_inputs(entry, side, swap)
    with pytest.raises(StreamOrderError):
        serial_run(entry, xs, ys, backend)
    report = ExecutionReport()
    with pytest.raises(StreamOrderError) as err:
        execute_parallel(
            entry,
            xs,
            ys,
            shards=2,
            workers=WORKERS,
            backend=backend,
            mode=mode,
            report=report,
        )
    assert err.value.stream_name == side
    assert report.order_violations == 1


@pytest.mark.parametrize("entry", ORDERED_CELLS, ids=cell_id)
@pytest.mark.parametrize("backend", PHYSICAL_BACKENDS)
@pytest.mark.parametrize("mode", ["inline", "process"])
@pytest.mark.parametrize("side", ["X", "Y"])
@pytest.mark.parametrize("swap", ["far", "cut-straddling"])
def test_degrade_reports_an_order_violation_as_serial_does(
    swap, side, mode, backend, entry
):
    """DEGRADE's twin: a sharded run notes the violation once and
    re-sorts the operand once, wherever the swap sits, exactly as the
    serial run does — the order is checked on the whole operand before
    it is cut, not by the shards."""
    xs, ys = swapped_inputs(entry, side, swap)
    serial = execute_entry(
        entry, xs, ys, backend=backend, policy=RecoveryPolicy.DEGRADE
    )
    report = ExecutionReport()
    outcome = execute_parallel(
        entry,
        xs,
        ys,
        shards=2,
        workers=WORKERS,
        backend=backend,
        policy=RecoveryPolicy.DEGRADE,
        mode=mode,
        report=report,
    )
    assert report.order_violations == 1
    assert [f.kind for f in report.fallbacks] == ["re-sort"]
    assert report.passes_added == serial.report.passes_added
    assert canon(outcome.results) == canon(serial.results)


@pytest.mark.parametrize("backend", ["columnar", "fused"])
@pytest.mark.parametrize("mode", ["inline", "process"])
def test_governed_strict_batch_shard_charges_its_high_water(
    mode, backend, small_inputs
):
    """The batch kernels bypass the metered insert path; the shard's
    processor reports the sweep's high-water against the workspace cap
    all the same, in the parent and in a pool worker."""
    entry = lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)
    xs, ys = sorted_inputs(entry, *small_inputs)
    serial = execute_parallel(
        entry, xs, ys, shards=2, backend=backend, mode="inline"
    )
    assert serial.metrics.workspace_high_water > 2
    with governed(QueryBudget(workspace_tuple_cap=2)):
        with pytest.raises(BudgetExceededError) as err:
            execute_parallel(
                entry,
                xs,
                ys,
                shards=2,
                workers=WORKERS,
                backend=backend,
                mode=mode,
            )
    assert err.value.resource == "workspace"


class TestShardIsolation:
    """Recovery is shard-local: a workspace overflow triggered by one
    shard's dense time region degrades that shard alone — siblings run
    clean, and the merged output still matches serial."""

    def test_one_shard_degrades_siblings_stay_clean(self):
        from repro.model.tuples import TemporalTuple

        entry = lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)
        # First half: 48 long intervals piled on [0, 50) — dozens open
        # at once, workspace far above budget.  Second half: singleton
        # intervals marching right — workspace of one.
        xs = [
            TemporalTuple(f"dense{i}", i, i % 10, 50 + i % 10)
            for i in range(48)
        ] + [
            TemporalTuple(f"sparse{i}", 100 + i, 100 + 10 * i, 101 + 10 * i)
            for i in range(48)
        ]
        xs = sort_tuples(xs, TS_ASC)
        ys = sort_tuples(
            [
                TemporalTuple(f"y{i}", i, 12 + (i % 20), 14 + (i % 20))
                for i in range(30)
            ],
            TS_ASC,
        )
        expected = canon(serial_run(entry, xs, ys, "tuple"))
        outcome = execute_parallel(
            entry,
            xs,
            ys,
            shards=2,
            policy=RecoveryPolicy.DEGRADE,
            workspace_budget=8,
            mode="inline",
        )
        # Degradation healed the output: still identical to serial.
        assert canon(outcome.results) == expected
        degraded = [r for r in outcome.shard_runs if r.degraded]
        clean = [r for r in outcome.shard_runs if not r.degraded]
        assert degraded, "the dense shard never overflowed"
        assert clean, "overflow leaked into the sparse shard"
        # Per-shard accounting keeps the blast radius visible: fallbacks
        # are recorded on the shard that took them, not smeared.
        assert sum(r.fallbacks for r in outcome.shard_runs) == len(
            outcome.report.fallbacks
        )
        assert outcome.report.workspace_overflows == len(degraded)


class TestProcessModeDifferential:
    """Inline and process differ only in transport: the same plan, the
    same shard body, the same chunk order — so the same *sequence*,
    for every cell on every backend."""

    @pytest.mark.parametrize("entry", CELLS, ids=cell_id)
    @pytest.mark.parametrize("backend", PHYSICAL_BACKENDS)
    @pytest.mark.parametrize("shards", [2, 4])
    def test_process_matches_inline(
        self, entry, backend, shards, small_inputs
    ):
        x_raw, y_raw = small_inputs
        xs, ys = sorted_inputs(entry, x_raw, y_raw)
        inline = execute_parallel(
            entry, xs, ys, shards=shards, backend=backend, mode="inline"
        )
        process = execute_parallel(
            entry,
            xs,
            ys,
            shards=shards,
            workers=WORKERS,
            backend=backend,
            mode="process",
        )
        assert process.mode == "process"
        assert list(process.results) == list(inline.results)
        assert canon(inline.results) == canon(
            serial_run(entry, xs, ys, backend)
        )
