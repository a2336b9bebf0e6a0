"""Shared-memory runtime lifecycle: segments must never outlive the
query (success, STRICT re-raise, or worker crash), the warm pool must
persist across queries and survive concurrent dispatch, and pool
degradation must be visible (containment + span), never silent."""

import os
import threading
import time

import pytest

from repro.errors import WorkspaceOverflowError
from repro.model import TS_ASC, sort_tuples
from repro.obs.trace import Tracer, set_tracer
from repro.parallel import (
    LazyResults,
    WorkerPool,
    WorkerPoolError,
    execute_parallel,
    pool_stats,
    shutdown_pool,
)
from repro.parallel import executor as executor_mod
from repro.parallel import pool as pool_mod
from repro.resilience import RecoveryPolicy, WorkerFaultKind, WorkerFaultPlan
from repro.streams import TemporalOperator, lookup

from .conftest import canon, make_tuples, serial_run


def contain_entry():
    return lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)


def inputs(seed_x=31, seed_y=32, n=80):
    xs = sort_tuples(make_tuples("x", n, seed=seed_x), TS_ASC)
    ys = sort_tuples(make_tuples("y", n, seed=seed_y), TS_ASC)
    return xs, ys


def shm_entries():
    """Names of our segments currently visible in /dev/shm (empty set
    on platforms without the tmpfs mount, making leak checks vacuous
    rather than wrong)."""
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return set()
    return {name for name in names if name.startswith("repro-")}


class TestSegmentLifecycle:
    def test_success_unlinks_every_segment(self):
        entry = contain_entry()
        xs, ys = inputs()
        before = shm_entries()
        outcome = execute_parallel(
            entry, xs, ys, shards=3, workers=2, mode="process"
        )
        assert outcome.mode == "process"
        assert canon(outcome.results) == canon(
            serial_run(entry, xs, ys, "tuple")
        )
        assert shm_entries() == before

    def test_strict_reraise_sweeps_segments(self):
        """A STRICT failure inside a worker must surface the original
        exception type AND leave /dev/shm clean — the parent sweeps the
        names it handed out on the error path too."""
        entry = contain_entry()
        xs, ys = inputs()
        before = shm_entries()
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
        assert shm_entries() == before

    def test_worker_crash_degrades_visibly_and_sweeps(self, monkeypatch):
        """Kill one worker before it writes its result: the run must
        fall back inline with correct output, record the exception class
        in the containment counters, mark the span, and leave no segments
        behind (the crashed shard's result segment never existed; the
        sweep tolerates that)."""
        entry = contain_entry()
        xs, ys = inputs()
        expected = canon(serial_run(entry, xs, ys, "tuple"))
        original = executor_mod._shm_tasks

        def sabotaged(*args, **kwargs):
            tasks = original(*args, **kwargs)
            tasks[0]["fault_exit"] = True
            return tasks

        monkeypatch.setattr(executor_mod, "_shm_tasks", sabotaged)
        before = shm_entries()
        tracer = Tracer("crash")
        previous = set_tracer(tracer)
        try:
            outcome = execute_parallel(
                entry, xs, ys, shards=2, workers=2, mode="process"
            )
        finally:
            set_tracer(previous)
            shutdown_pool()
        assert outcome.mode == "inline"
        assert canon(outcome.results) == expected
        assert shm_entries() == before
        assert outcome.containment == {"pool_fallback:WorkerPoolError": 1}
        parallel_span = next(
            s for s in tracer.spans if s.name.startswith("parallel:")
        )
        assert parallel_span.attributes["pool_fallback"] is True
        assert (
            parallel_span.attributes["fallback_error"]
            == "WorkerPoolError"
        )

    def test_pool_recovers_after_crash(self, monkeypatch):
        """The poisoned pool must be rebuilt transparently: the very
        next process-mode query succeeds through fresh workers."""
        entry = contain_entry()
        xs, ys = inputs()
        original = executor_mod._shm_tasks
        calls = {"n": 0}

        def sabotage_first(*args, **kwargs):
            tasks = original(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] == 1:
                tasks[0]["fault_exit"] = True
            return tasks

        monkeypatch.setattr(executor_mod, "_shm_tasks", sabotage_first)
        crashed = execute_parallel(
            entry, xs, ys, shards=2, workers=2, mode="process"
        )
        assert crashed.mode == "inline"
        healed = execute_parallel(
            entry, xs, ys, shards=2, workers=2, mode="process"
        )
        assert healed.mode == "process"
        assert canon(healed.results) == canon(
            serial_run(entry, xs, ys, "tuple")
        )


class TestWarmPool:
    def test_pool_persists_across_queries(self):
        entry = contain_entry()
        xs, ys = inputs()
        shutdown_pool()
        execute_parallel(entry, xs, ys, shards=2, workers=2, mode="process")
        first = pool_stats()
        execute_parallel(entry, xs, ys, shards=2, workers=2, mode="process")
        second = pool_stats()
        assert first["alive"] and second["alive"]
        assert first["pids"] == second["pids"]

    def test_concurrent_queries_from_two_threads(self):
        """Two threads sharing the warm pool must both get exactly
        their own results — the regression the old fork-pool global
        task handoff (_FORK_TASKS) could not guarantee."""
        entry = contain_entry()
        runs = [inputs(seed_x=71, seed_y=72), inputs(seed_x=73, seed_y=74)]
        expected = [
            canon(serial_run(entry, xs, ys, "tuple")) for xs, ys in runs
        ]
        failures = []

        def query(slot):
            xs, ys = runs[slot]
            try:
                outcome = execute_parallel(
                    entry, xs, ys, shards=2, workers=2, mode="process"
                )
                if canon(outcome.results) != expected[slot]:
                    failures.append(f"slot {slot}: wrong results")
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(f"slot {slot}: {exc!r}")

        threads = [
            threading.Thread(target=query, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures


class TestFaultContainment:
    """Worker-level faults must be contained at shard granularity: one
    dead worker costs one shard re-dispatch, never a pool rebuild or an
    inline fallback."""

    def run_with_fault(self, plan, straggler_after=None, shards=3):
        entry = contain_entry()
        xs, ys = inputs()
        expected = canon(serial_run(entry, xs, ys, "tuple"))
        outcome = execute_parallel(
            entry,
            xs,
            ys,
            shards=shards,
            workers=2,
            mode="process",
            worker_fault_plan=plan,
            straggler_after=straggler_after,
        )
        assert outcome.mode == "process"
        assert canon(outcome.results) == expected
        return outcome

    def test_kill_heals_with_one_retry_and_no_rebuild(self):
        rebuilds = pool_stats()["rebuilds"]
        outcome = self.run_with_fault(
            WorkerFaultPlan(seed=3, kind=WorkerFaultKind.KILL)
        )
        containment = outcome.containment
        assert containment["worker_deaths"] == 1
        assert containment["shard_retries"] == 1
        # Contained crash: the pool stays healthy (topped up, not
        # rebuilt) and the next query runs through it.
        assert pool_stats()["rebuilds"] == rebuilds
        assert pool_stats()["alive"]

    def test_stall_triggers_speculation_not_death_handling(self):
        plan = WorkerFaultPlan(
            seed=11, kind=WorkerFaultKind.STALL, stall_seconds=1.0
        )
        # A replacement worker from an earlier test may still be
        # importing (one warm worker can absorb a whole clean batch
        # meanwhile), and a still-importing worker makes its shard look
        # silent past the threshold.  Warm the pool and give the
        # replacement time to finish importing before the faulted run.
        entry = contain_entry()
        xs, ys = inputs()
        execute_parallel(entry, xs, ys, shards=2, workers=2, mode="process")
        time.sleep(1.0)
        # One shard per worker: a queued-but-healthy shard would also
        # look silent past the threshold and be speculated.
        outcome = self.run_with_fault(plan, straggler_after=0.2, shards=2)
        containment = outcome.containment
        assert containment["worker_deaths"] == 0
        assert containment["speculations"] == 1
        # Quiesce: the abandoned loser still holds its worker for the
        # stall; don't let the next test's batch queue behind it.
        time.sleep(plan.stall_seconds)

    def test_corrupt_result_is_reread_from_a_fresh_segment(self):
        outcome = self.run_with_fault(
            WorkerFaultPlan(seed=42, kind=WorkerFaultKind.CORRUPT_RESULT)
        )
        containment = outcome.containment
        assert containment["worker_deaths"] == 0
        assert containment["shard_retries"] == 1
        # The shard row reports the attempt whose segment was read.
        assert [run.attempt for run in outcome.shard_runs].count(1) == 1

    def test_fault_gated_on_attempt_heals_deterministically(self):
        """attempts=1 means the re-dispatched attempt runs clean — the
        property that makes the differential oracle hold."""
        entry = contain_entry()
        xs, ys = inputs()
        expected = canon(serial_run(entry, xs, ys, "tuple"))
        plan = WorkerFaultPlan(seed=7, kind=WorkerFaultKind.KILL)
        for _ in range(2):  # replays identically, heals identically
            outcome = execute_parallel(
                entry,
                xs,
                ys,
                shards=3,
                workers=2,
                mode="process",
                worker_fault_plan=plan,
            )
            assert outcome.mode == "process"
            assert canon(outcome.results) == expected
            assert outcome.containment["shard_retries"] == 1


class TestPoolLifecycle:
    def test_worker_pool_double_shutdown_is_idempotent(self):
        pool = WorkerPool(2)
        assert pool.healthy
        pool.shutdown()
        assert not pool.healthy
        pool.shutdown()  # second call must be a no-op, not an error

    def test_shutdown_pool_twice_and_after_manual_teardown(self):
        """The atexit hook may fire after a test (or the CLI) already
        shut the shared pool down manually; both orders must be safe."""
        entry = contain_entry()
        xs, ys = inputs()
        execute_parallel(entry, xs, ys, shards=2, workers=2, mode="process")
        assert pool_stats()["alive"]
        rebuilds = pool_stats()["rebuilds"]
        stopped = {"alive": False, "size": 0, "pids": [], "rebuilds": rebuilds}
        shutdown_pool()
        assert pool_stats() == stopped
        shutdown_pool()  # idempotent
        assert pool_stats() == stopped

    def test_get_pool_rebuilds_poisoned_pool_under_old_reference(self):
        """Code holding a reference to the poisoned pool must not
        resurrect it: get_pool hands out a fresh pool, the old object
        stays dead, and a batch on the stale reference fails fast."""
        old = pool_mod.get_pool(2)
        old._broken = True  # what quorum loss / a hung batch does
        rebuilds = pool_stats()["rebuilds"]
        fresh = pool_mod.get_pool(2)
        assert fresh is not old
        assert fresh.healthy and not old.healthy
        assert pool_stats()["rebuilds"] == rebuilds + 1
        with pytest.raises(WorkerPoolError):
            old.run_batch([{"index": 0}])
        # The fresh pool serves queries normally.
        entry = contain_entry()
        xs, ys = inputs()
        outcome = execute_parallel(
            entry, xs, ys, shards=2, workers=2, mode="process"
        )
        assert outcome.mode == "process"


class TestLazyResults:
    def test_len_is_free_and_payloads_cache(self):
        entry = contain_entry()
        xs, ys = inputs()
        expected = canon(serial_run(entry, xs, ys, "columnar"))
        outcome = execute_parallel(
            entry,
            xs,
            ys,
            shards=2,
            workers=2,
            backend="columnar",
            mode="process",
        )
        assert outcome.mode == "process"
        results = outcome.results
        assert isinstance(results, LazyResults)
        count = len(results)
        assert results._cache is None  # len() alone must not materialise
        assert canon(results) == expected
        assert results._cache is not None
        assert len(results) == count == len(expected)
        left, right = results[0]
        assert left in xs and right in ys

    @pytest.mark.parametrize("backend", ["tuple", "columnar", "fused"])
    def test_index_columns_are_global_positions_in_chunk_order(
        self, backend
    ):
        entry = contain_entry()
        xs, ys = inputs()
        outcome = execute_parallel(
            entry, xs, ys, shards=3, backend=backend, mode="inline"
        )
        results = outcome.results
        xi, yj = results.index_columns()
        assert results.index_columns() is results.index_columns()
        assert results._cache is None  # no payload pair built yet
        assert len(xi) == len(yj) == len(results)
        assert results.x_payload == xs and results.y_payload == ys
        # Entry k of the columns is the k-th merged output pair.
        assert list(results) == [
            (xs[i], ys[j]) for i, j in zip(xi, yj)
        ]

    def test_semijoin_index_columns_have_an_empty_y_column(self):
        entry = lookup(
            TemporalOperator.CONTAIN_SEMIJOIN, TS_ASC, TS_ASC
        )
        xs, ys = inputs()
        results = execute_parallel(
            entry, xs, ys, shards=2, backend="columnar", mode="inline"
        ).results
        xi, yj = results.index_columns()
        assert len(yj) == 0
        assert list(results) == [xs[i] for i in xi]

    def test_a_join_that_ran_no_shard_still_has_both_columns(self):
        _, ys = inputs()
        results = execute_parallel(
            contain_entry(), [], ys, shards=2, mode="inline"
        ).results
        xi, yj = results.index_columns()
        assert len(xi) == len(yj) == len(results) == 0
        assert list(results) == []
