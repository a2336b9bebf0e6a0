"""Executor mechanics: fork-pool mode, STRICT propagation from
workers, shard-span emission, and max-vs-sum metric merging."""

import pytest

from repro.errors import ExecutionError, WorkspaceOverflowError
from repro.model import TS_ASC, sort_tuples
from repro.obs.trace import Tracer, set_tracer
from repro.parallel import execute_parallel
from repro.resilience import RecoveryPolicy
from repro.streams import TemporalOperator, lookup

from .conftest import canon, make_tuples, serial_run


def contain_entry():
    return lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)


def inputs():
    xs = sort_tuples(make_tuples("x", 80, seed=31), TS_ASC)
    ys = sort_tuples(make_tuples("y", 80, seed=32), TS_ASC)
    return xs, ys


class TestProcessMode:
    def test_pool_smoke_matches_serial(self):
        entry = contain_entry()
        xs, ys = inputs()
        expected = canon(serial_run(entry, xs, ys, "tuple"))
        outcome = execute_parallel(
            entry, xs, ys, shards=2, workers=2, mode="process"
        )
        assert canon(outcome.results) == expected
        assert outcome.mode in ("process", "inline")
        assert len(outcome.shard_runs) == outcome.plan.effective_shards
        assert all(r.output_count >= 0 for r in outcome.shard_runs)

    def test_strict_fault_propagates_from_worker(self):
        """A workspace breach inside a worker under STRICT must surface
        the original WorkspaceOverflowError through the pool, not a
        pickling wrapper."""
        entry = contain_entry()
        xs, ys = inputs()
        with pytest.raises(WorkspaceOverflowError):
            execute_parallel(
                entry,
                xs,
                ys,
                shards=2,
                workers=2,
                policy=RecoveryPolicy.STRICT,
                workspace_budget=1,
                mode="process",
            )

    def test_unknown_mode_rejected(self):
        entry = contain_entry()
        xs, ys = inputs()
        with pytest.raises(ExecutionError):
            execute_parallel(entry, xs, ys, shards=2, mode="threads")


class TestShardSpans:
    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_each_shard_gets_a_span(self, mode):
        entry = contain_entry()
        xs, ys = inputs()
        tracer = Tracer("shards")
        previous = set_tracer(tracer)
        try:
            outcome = execute_parallel(
                entry, xs, ys, shards=3, mode=mode
            )
        finally:
            set_tracer(previous)
        shard_spans = [
            s for s in tracer.spans if s.name.startswith("shard:")
        ]
        assert len(shard_spans) == outcome.plan.effective_shards
        # The span is the shard's time and identity; its counts are the
        # shard row's.
        assert [
            (s.attributes["shard"], s.attributes["attempt"])
            for s in shard_spans
        ] == [(run.index, run.attempt) for run in outcome.shard_runs]
        for run in outcome.shard_runs:
            assert run.passes_x <= 1
            assert "owned_lo" in run.as_dict()
            assert "wall_ms" in run.as_dict()
        parallel_spans = [
            s for s in tracer.spans if s.name.startswith("parallel:")
        ]
        assert len(parallel_spans) == 1
        assert parallel_spans[0].attributes["output_count"] == len(
            outcome.results
        )


class TestMergedAccounting:
    def test_passes_take_shard_max_not_sum(self):
        """Four single-scan shards must still report a single scan —
        the Tables 1-3 bound is shard-local, so merging sums would
        fabricate a violation that never happened."""
        entry = contain_entry()
        xs, ys = inputs()
        outcome = execute_parallel(
            entry, xs, ys, shards=4, mode="inline"
        )
        assert outcome.metrics.passes_x == 1
        assert outcome.metrics.passes_y == 1
        # Totals do sum: every shard's reads are real work.
        assert outcome.metrics.tuples_read_x == sum(
            r.owned_count for r in outcome.plan.ranges
        )
