"""Shared helpers for the parallel-execution suite."""

import random

import pytest

from repro.columnar.relation import IntervalColumns
from repro.model import sort_tuples
from repro.model.tuples import TemporalTuple
from repro.parallel import executor as executor_mod
from repro.parallel import plan_ranges
from repro.streams import TemporalOperator, TupleStream
from repro.streams.registry import supported_entries


def all_supported_cells():
    """Every registry cell with an actual algorithm, across operators."""
    cells = []
    for operator in TemporalOperator:
        cells.extend(supported_entries(operator))
    return cells


def cell_id(entry):
    y = str(entry.y_order) if entry.y_order is not None else "unary"
    return f"{entry.operator.value}[{entry.x_order}/{y}]"


def make_tuples(name, count, seed, horizon=300, max_duration=50):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        ts = rng.randint(0, horizon)
        out.append(
            TemporalTuple(
                f"{name}{i}", i, ts, ts + rng.randint(1, max_duration)
            )
        )
    return out


def tie_heavy_tuples(name, count, seed, horizon=12):
    """Endpoints drawn from a tiny domain with few durations, so equal
    TS/TE values land on shard cuts constantly."""
    rng = random.Random(seed)
    durations = (1, 2, 3, 5)
    out = []
    for i in range(count):
        ts = rng.randint(0, horizon)
        out.append(
            TemporalTuple(f"{name}{i}", i, ts, ts + rng.choice(durations))
        )
    return out


def canon(results):
    """Order-insensitive signature of any operator's output."""
    sig = []
    for r in results:
        if isinstance(r, tuple):
            sig.append((repr(r[0].surrogate), repr(r[1].surrogate)))
        else:
            sig.append(repr(r.surrogate))
    return sorted(map(repr, sig))


def sorted_inputs(entry, x, y):
    xs = sort_tuples(x, entry.x_order)
    ys = sort_tuples(y, entry.y_order) if entry.y_order is not None else None
    return xs, ys


def plan_for(entry, xs, ys, shards):
    """The range plan ``execute_parallel`` would build for sorted
    inputs ``xs`` / ``ys`` (``None`` for a unary cell)."""
    x_cols = IntervalColumns.from_tuples(
        xs, order=entry.x_order, presorted=True
    )
    if ys is None:
        return plan_ranges(entry, x_cols.ts, x_cols.te, shards=shards)
    y_cols = IntervalColumns.from_tuples(
        ys, order=entry.y_order, presorted=True
    )
    return plan_ranges(
        entry, x_cols.ts, x_cols.te, y_cols.ts, y_cols.te, shards=shards
    )


def serial_run(entry, xs, ys, backend):
    x_stream = TupleStream.from_tuples(xs, order=entry.x_order, name="X")
    if ys is None:
        return entry.build(x_stream, backend=backend).run()
    y_stream = TupleStream.from_tuples(ys, order=entry.y_order, name="Y")
    return entry.build(x_stream, y_stream, backend=backend).run()


def exit_on_shard(monkeypatch, index, attempts):
    """Make shard ``index``'s worker exit on every dispatch attempt
    below ``attempts``: ``1`` heals on the re-dispatch, a value above
    the pool's retry cap is a poison pill."""
    original = executor_mod._shm_tasks

    def sabotaged(*args, **kwargs):
        tasks = original(*args, **kwargs)
        tasks[index]["fault_exit"] = attempts
        return tasks

    monkeypatch.setattr(executor_mod, "_shm_tasks", sabotaged)


@pytest.fixture
def small_inputs():
    return make_tuples("x", 90, seed=5), make_tuples("y", 110, seed=6)
