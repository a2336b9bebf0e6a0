"""Distributed observability of the process-mode runtime.

Three properties, per the paper's "observability must be free of
observable effect" discipline extended across the process boundary:

* the traced-vs-untraced differential holds for process-mode parallel
  execution on every supported registry cell — worker-side tracing
  never changes the answer;
* untraced runs allocate ZERO real spans in the workers (the no-op
  tracer survives the pickle hop), while traced runs ship their span
  forest back and the parent grafts it under the matching ``shard:<i>``
  span with monotone, clock-calibrated, window-clamped timestamps and
  distinct worker pids;
* each grafted ``shard:<i>`` span names the shard row it times, attempt
  for attempt and worker for worker, and the ``pool.*`` events on the
  parallel span name the same workers.
"""

import json

import pytest

from repro.model import TS_ASC, sort_tuples
from repro.obs import Tracer, set_tracer, to_chrome_trace
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
    if plain.mode == "process":
        # The untraced half is the zero-overhead gate: the no-op tracer
        # crossed the pipe and no real Span was ever allocated.
        assert all(
            run.worker_spans_created == 0 for run in plain.shard_runs
        )
    if traced.mode == "process":
        assert all(
            run.worker_spans_created > 0 for run in traced.shard_runs
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


class TestGraftStructure:
    def test_worker_spans_nest_under_shard_spans(self):
        outcome, tracer = traced_contain_run()
        if outcome.mode != "process":
            pytest.skip("pool unavailable; fell back to inline")
        shard_spans = {
            int(s.name.split(":", 1)[1]): s
            for s in tracer.spans
            if s.name.startswith("shard:")
        }
        worker_roots = [
            s for s in tracer.spans if s.name.startswith("worker:shard:")
        ]
        assert len(worker_roots) == len(outcome.shard_runs)
        by_id = {s.span_id: s for s in tracer.spans}
        for root in worker_roots:
            parent = by_id[root.parent_id]
            assert parent.name == f"shard:{root.attributes['shard']}"
            # Monotone, clamped into the parent summary span's window.
            assert parent.start_ns <= root.start_ns
            assert root.end_ns <= parent.end_ns
            assert root.end_ns >= root.start_ns
            assert root.pid is not None
            assert root.attributes["worker_pid"] == root.pid
        # Grafted operator spans came along under the worker roots.
        grafted_ops = [
            s
            for s in tracer.spans
            if s.name.startswith("operator:") and s.pid is not None
        ]
        assert len(grafted_ops) == len(outcome.shard_runs)
        assert len(shard_spans) == len(outcome.shard_runs)
        # One shard body for every backend: a STRICT batch shard grafts
        # the same attempt -> operator pair the tuple backend does.
        for backend in ("tuple", "columnar", "fused"):
            outcome, tracer = traced_contain_run(backend=backend)
            by_id = {s.span_id: s for s in tracer.spans}
            parents = [
                by_id[s.parent_id].name
                for s in tracer.spans
                if s.name.startswith("operator:") and s.pid is not None
            ]
            assert parents == ["attempt"] * len(outcome.shard_runs)

    def test_worker_pids_agree_between_spans_and_shard_table(self):
        outcome, tracer = traced_contain_run(shards=4, workers=4)
        if outcome.mode != "process":
            pytest.skip("pool unavailable; fell back to inline")
        pids = {s.pid for s in tracer.spans if s.pid is not None}
        assert pids
        assert {r.pid for r in outcome.shard_runs} == pids
        # On tiny shards one warm worker can legally drain the whole
        # queue before its siblings wake, so >=2 distinct pids is only
        # guaranteed at real sizes — the CI multi-track gate enforces it
        # there.

    def test_chrome_trace_has_one_track_per_worker(self):
        outcome, tracer = traced_contain_run(shards=4, workers=4)
        if outcome.mode != "process":
            pytest.skip("pool unavailable; fell back to inline")
        doc = json.loads(json.dumps(to_chrome_trace(tracer)))
        events = doc["traceEvents"]
        worker_pids = {r.pid for r in outcome.shard_runs}
        named = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        for pid in worker_pids:
            assert named[pid] == f"worker:{pid}"
        # Parent track sorts first.
        own = next(p for p in named if p not in worker_pids)
        sort_index = {
            e["pid"]: e["args"]["sort_index"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_sort_index"
        }
        assert sort_index[own] < min(sort_index[p] for p in worker_pids)

    def test_clock_offsets_and_shard_attrs(self):
        outcome, tracer = traced_contain_run()
        if outcome.mode != "process":
            pytest.skip("pool unavailable; fell back to inline")
        spans = [s for s in tracer.spans if s.name.startswith("shard:")]
        assert len(spans) == len(outcome.shard_runs)
        for span, run in zip(spans, outcome.shard_runs):
            # What the graft needs, and no count: those are the row's.
            assert span.attributes["shard"] == run.index
            assert span.attributes["attempt"] == run.attempt
            assert span.attributes["pid"] == run.pid
            assert "output_count" not in span.attributes


def pool_events(tracer, name):
    """The attributes of every ``pool.<name>`` event in the trace."""
    return [
        event["attributes"]
        for span in tracer.spans
        for event in span.events
        if event["name"] == f"pool.{name}"
    ]


class TestPoolEvents:
    def test_dispatch_and_acks_name_shard_workers(self):
        outcome, tracer = traced_contain_run(shards=2, workers=2)
        if outcome.mode != "process":
            pytest.skip("pool unavailable; fell back to inline")
        (dispatch,) = pool_events(tracer, "dispatch")
        assert dispatch["shards"] == len(outcome.shard_runs)
        # An ack may still be in flight when the batch's last result
        # lands, so not every shard need show one; every ack drained
        # names the worker its shard row names.
        acks = {
            (ack["index"], ack["pid"]) for ack in pool_events(tracer, "ack")
        }
        assert acks <= {(run.index, run.pid) for run in outcome.shard_runs}


class TestRedispatchObservability:
    def test_killed_worker_leaves_attempt_one_trail(self, monkeypatch):
        """A worker killed on first dispatch is re-dispatched; the audit
        trail — shard attempt, pool events, grafted span attributes —
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
        assert pool_events(tracer, "reap")
        # The grafted span of the surviving run carries the attempt.
        roots = [
            s
            for s in tracer.spans
            if s.name == f"worker:shard:{target}" and s.pid is not None
        ]
        assert roots
        assert any(s.attributes.get("attempt") == victim.attempt
                   for s in roots)
