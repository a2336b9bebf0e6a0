"""Shared-memory runtime lifecycle: segments must never outlive the
query (success, STRICT re-raise, or worker crash), the warm pool must
persist across queries and survive concurrent dispatch, and pool
degradation must be visible (containment + span), never silent."""

import os
import threading
from array import array
from multiprocessing import shared_memory

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
from repro.parallel import shm
from repro.resilience import RecoveryPolicy
from repro.streams import RANKED_BACKENDS, TemporalOperator, lookup
from repro.streams.registry import supported_entries

from .conftest import canon, exit_on_shard, make_tuples, serial_run


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


#: Dispatch attempts that kill every worker a shard lands on.
POISON = pool_mod._MAX_SHARD_RETRIES + 1


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
        exit_on_shard(monkeypatch, 0, POISON)
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
                tasks[0]["fault_exit"] = POISON
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
    """A worker death is contained at shard granularity: it costs one
    shard re-dispatch, never a pool rebuild or an inline fallback."""

    def run_process(self):
        entry = contain_entry()
        xs, ys = inputs()
        expected = canon(serial_run(entry, xs, ys, "tuple"))
        outcome = execute_parallel(
            entry, xs, ys, shards=3, workers=2, mode="process"
        )
        assert outcome.mode == "process"
        assert canon(outcome.results) == expected
        return outcome

    def test_kill_heals_with_one_retry_and_no_rebuild(self, monkeypatch):
        rebuilds = pool_stats()["rebuilds"]
        exit_on_shard(monkeypatch, 1, 1)
        outcome = self.run_process()
        containment = outcome.containment
        assert containment["worker_deaths"] == 1
        assert containment["shard_retries"] == 1
        # Contained crash: the pool stays healthy (topped up, not
        # rebuilt) and the next query runs through it.
        assert pool_stats()["rebuilds"] == rebuilds
        assert pool_stats()["alive"]

    def test_fault_gated_on_attempt_heals_deterministically(
        self, monkeypatch
    ):
        """``fault_exit=1`` means the re-dispatched attempt runs clean:
        every replay heals the same way, and the shard row names the
        attempt that produced it."""
        exit_on_shard(monkeypatch, 2, 1)
        for _ in range(2):
            outcome = self.run_process()
            assert outcome.containment["shard_retries"] == 1
            attempts = {run.index: run.attempt for run in outcome.shard_runs}
            assert attempts == {0: 0, 1: 0, 2: 1}

    #: One cell per result-segment kind.  The worker exits before the
    #: shard body runs, so a cell matters to the death path only
    #: through the kind of segment its re-dispatch writes.
    KIND_CELLS = {
        "semi": TemporalOperator.CONTAIN_SEMIJOIN,
        "pairs": TemporalOperator.CONTAIN_JOIN,
        "self": TemporalOperator.SELF_CONTAIN_SEMIJOIN,
    }

    @pytest.mark.parametrize("kind", sorted(KIND_CELLS))
    def test_death_heals_for_each_result_kind(self, monkeypatch, kind):
        entry = supported_entries(self.KIND_CELLS[kind])[0]
        xs, ys = inputs()
        xs = sort_tuples(xs, entry.x_order)
        ys = None if entry.y_order is None else sort_tuples(ys, entry.y_order)

        def run():
            return execute_parallel(
                entry, xs, ys, shards=3, workers=2,
                backend="columnar", mode="process",
            )

        clean = run()
        assert clean.mode == "process" and len(clean.shard_runs) >= 2
        rebuilds = pool_stats()["rebuilds"]
        exit_on_shard(monkeypatch, 0, 1)
        healed = run()
        assert healed.mode == "process"
        assert list(healed.results) == list(clean.results)
        assert healed.containment["worker_deaths"] == 1
        assert healed.containment["shard_retries"] == 1
        assert pool_stats()["rebuilds"] == rebuilds
        ours = f"repro-{os.getpid()}-"
        assert not {n for n in shm_entries() if n.startswith(ours)}


class TestResultIntegrity:
    """The result segment's crc32 is checked on every read; a segment
    that fails it is a pool failure, answered by the inline run."""

    def test_flipped_payload_byte_raises_and_unlinks(self):
        name = shm.segment_name("crc")
        shm.write_result(
            name, shm.RESULT_PAIRS, array("q", [1, 2, 3]), array("q", [4])
        )
        segment = shared_memory.SharedMemory(name=name)
        try:
            # The first payload byte sits right after the header words.
            segment.buf[shm._HEADER_ITEMS * shm._ITEM] ^= 0x01
        finally:
            segment.close()
        with pytest.raises(shm.SegmentIntegrityError):
            shm.read_result(name)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_integrity_failure_runs_the_join_inline(self, monkeypatch):
        entry = contain_entry()
        xs, ys = inputs()
        expected = canon(serial_run(entry, xs, ys, "tuple"))
        original = shm.read_result
        calls = {"n": 0}

        def fails_once(name):
            calls["n"] += 1
            if calls["n"] == 1:
                raise shm.SegmentIntegrityError(f"{name} failed its checksum")
            return original(name)

        monkeypatch.setattr(shm, "read_result", fails_once)
        before = shm_entries()
        outcome = execute_parallel(
            entry, xs, ys, shards=2, workers=2, mode="process"
        )
        assert outcome.mode == "inline"
        assert canon(outcome.results) == expected
        assert outcome.containment == {
            "pool_fallback:SegmentIntegrityError": 1
        }
        assert shm_entries() == before


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

    @pytest.mark.parametrize("backend", RANKED_BACKENDS)
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
