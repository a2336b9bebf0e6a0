"""Observability of the process-mode runtime.

Three properties, per the paper's "observability must be free of
observable effect" discipline extended across the process boundary:

* the traced-vs-untraced differential holds for process-mode parallel
  execution on every supported registry cell — tracing never changes
  the answer;
* a worker never traces: traced or not, it allocates ZERO real spans
  (the no-op tracer survives the pickle hop, and no worker tracer is
  installed);
* each process-mode shard is one parent-side ``shard:<i>`` span built
  from its shard row — its shard, attempt and worker, timed by the
  row's ``wall_seconds`` inside the ``parallel:`` span — and the
  ``pool.*`` events on the parallel span name the same shards.
"""

import pytest

from repro.model import TS_ASC, sort_tuples
from repro.obs import Tracer, set_tracer
from repro.parallel import execute_parallel
from repro.streams import TemporalOperator, lookup

from .conftest import (
    all_supported_cells,
    canon,
    cell_id,
    exit_on_shard,
    make_tuples,
    sorted_inputs,
)


def small_xy():
    return make_tuples("x", 60, seed=5), make_tuples("y", 70, seed=6)


def run_process(entry, xs, ys, traced, shards=2, workers=2, **kwargs):
    """One process-mode run; returns (outcome, tracer-or-None)."""
    if not traced:
        outcome = execute_parallel(
            entry, xs, ys, shards=shards, workers=workers,
            mode="process", **kwargs
        )
        return outcome, None
    tracer = Tracer("diff")
    previous = set_tracer(tracer)
    try:
        outcome = execute_parallel(
            entry, xs, ys, shards=shards, workers=workers,
            mode="process", **kwargs
        )
    finally:
        set_tracer(previous)
    assert tracer.open_spans == 0
    return outcome, tracer


@pytest.mark.parametrize(
    "entry", all_supported_cells(), ids=cell_id
)
def test_traced_process_run_is_byte_identical(entry):
    x, y = small_xy()
    xs, ys = sorted_inputs(entry, x, y)
    plain, _ = run_process(entry, xs, ys, traced=False)
    traced, tracer = run_process(entry, xs, ys, traced=True)
    assert canon(traced.results) == canon(plain.results)
    assert traced.metrics.passes_x == plain.metrics.passes_x
    assert traced.metrics.passes_y == plain.metrics.passes_y
    assert traced.metrics.comparisons == plain.metrics.comparisons
    assert (
        traced.metrics.workspace_high_water
        == plain.metrics.workspace_high_water
    )
    # The zero-span gate, on both halves: the no-op tracer crossed the
    # pipe, and a worker never installs a tracer of its own.
    for outcome in (plain, traced):
        if outcome.mode == "process":
            assert all(
                run.worker_spans_created == 0 for run in outcome.shard_runs
            )


def contain_entry():
    return lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)


def traced_contain_run(shards=4, workers=4, **kwargs):
    entry = contain_entry()
    x, y = small_xy()
    xs, ys = sorted_inputs(entry, x, y)
    outcome, tracer = run_process(
        entry, xs, ys, traced=True, shards=shards, workers=workers,
        **kwargs
    )
    return outcome, tracer


class TestShardSpans:
    def test_shard_span_names_its_row(self):
        outcome, tracer = traced_contain_run()
        if outcome.mode != "process":
            pytest.skip("pool unavailable; fell back to inline")
        spans = [s for s in tracer.spans if s.name.startswith("shard:")]
        assert len(spans) == len(outcome.shard_runs)
        for span, run in zip(spans, outcome.shard_runs):
            # Which shard, which dispatch, which worker — and no count:
            # those are the row's.
            assert span.attributes["shard"] == run.index
            assert span.attributes["attempt"] == run.attempt
            assert span.attributes["pid"] == run.pid
            assert "output_count" not in span.attributes

    def test_shard_span_is_timed_by_its_row(self):
        outcome, tracer = traced_contain_run(shards=4, workers=4)
        if outcome.mode != "process":
            pytest.skip("pool unavailable; fell back to inline")
        assert len(outcome.shard_runs) == 4
        (parallel,) = [
            s for s in tracer.spans if s.name.startswith("parallel:")
        ]
        for run in outcome.shard_runs:
            (span,) = tracer.find(f"shard:{run.index}")
            assert span.parent_id == parallel.span_id
            assert parallel.start_ns <= span.start_ns
            assert span.end_ns <= parallel.end_ns
            wall_ns = round(run.wall_seconds * 1e9)
            if span.start_ns == parallel.start_ns:
                # Clamped: the row's time did not fit the window.
                assert span.duration_ns <= wall_ns
            else:
                assert span.duration_ns == wall_ns


def pool_events(tracer, name):
    """The attributes of every ``pool.<name>`` event in the trace."""
    return [
        event["attributes"]
        for span in tracer.spans
        for event in span.events
        if event["name"] == f"pool.{name}"
    ]


class TestPoolEvents:
    def test_dispatch_names_the_batch(self):
        outcome, tracer = traced_contain_run(shards=2, workers=2)
        if outcome.mode != "process":
            pytest.skip("pool unavailable; fell back to inline")
        (dispatch,) = pool_events(tracer, "dispatch")
        assert dispatch["shards"] == len(outcome.shard_runs)
        assert dispatch["indices"] == [
            run.index for run in outcome.shard_runs
        ]


class TestRedispatchObservability:
    def test_killed_worker_leaves_attempt_one_trail(self, monkeypatch):
        """A worker killed on first dispatch is re-dispatched; the audit
        trail — shard attempt, pool events, shard span attributes —
        all agree that the surviving result is attempt 1."""
        entry = contain_entry()
        x, y = small_xy()
        xs, ys = sorted_inputs(entry, x, y)
        target = 1
        exit_on_shard(monkeypatch, target, 1)
        tracer = Tracer("worker-death")
        previous = set_tracer(tracer)
        try:
            outcome = execute_parallel(
                entry, xs, ys, shards=2, workers=2, mode="process"
            )
        finally:
            set_tracer(previous)
        if outcome.mode != "process":
            pytest.skip("pool unavailable; fell back to inline")
        victim = next(
            r for r in outcome.shard_runs if r.index == target
        )
        assert victim.attempt >= 1
        assert outcome.containment.get("worker_deaths", 0) >= 1
        assert {
            (event["index"], event["attempt"])
            for event in pool_events(tracer, "redispatch")
        } >= {(target, victim.attempt)}
        # The parent's span of the surviving run carries the attempt.
        (span,) = tracer.find(f"shard:{target}")
        assert span.attributes["attempt"] == victim.attempt
        assert span.attributes["pid"] == victim.pid
