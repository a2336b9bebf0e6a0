"""Shared-memory runtime lifecycle: segments must never outlive the
query (success, STRICT re-raise, or worker crash), the warm pool must
persist across queries and survive concurrent dispatch, and pool
degradation must be visible (containment + span), never silent."""

import os
import pathlib
import random
import subprocess
import sys
import threading
from array import array
from multiprocessing import shared_memory

import pytest

from repro.columnar.relation import IntervalColumns
from repro.errors import DeadlineExceededError, WorkspaceOverflowError
from repro.governance import QueryBudget, governed
from repro.model import TS_ASC, sort_tuples
from repro.obs.trace import Tracer, set_tracer
from repro.parallel import (
    LazyResults,
    execute_parallel,
    pool_stats,
    shutdown_pool,
)
from repro.parallel import executor as executor_mod
from repro.parallel import pool as pool_mod
from repro.parallel import shm
from repro.resilience import RecoveryPolicy
from repro.streams import TemporalOperator, lookup
from repro.streams.registry import supported_entries

from tests.backends import PHYSICAL_BACKENDS

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
    """A worker death breaks the pool: the batch waits for its
    teardown, rebuilds it once and re-runs every shard still unfinished
    under the next attempt — same rows, no inline fallback, no leaked
    segment."""

    def run_process(self, entry, xs, ys, **kwargs):
        outcome = execute_parallel(
            entry, xs, ys, shards=3, workers=2, mode="process", **kwargs
        )
        assert outcome.mode == "process"
        return outcome

    def assert_healed(self, outcome, killed, rebuilds):
        assert outcome.containment["worker_deaths"] == 1
        assert outcome.containment["shard_retries"] >= 1
        attempts = {run.index: run.attempt for run in outcome.shard_runs}
        assert attempts[killed] == 1
        assert pool_stats()["rebuilds"] == rebuilds + 1
        ours = f"repro-{os.getpid()}-"
        assert not {n for n in shm_entries() if n.startswith(ours)}

    def test_kill_heals_with_one_rebuild(self, monkeypatch):
        entry = contain_entry()
        xs, ys = inputs()
        expected = canon(serial_run(entry, xs, ys, "tuple"))
        rebuilds = pool_stats()["rebuilds"]
        exit_on_shard(monkeypatch, 1, 1)
        outcome = self.run_process(entry, xs, ys)
        assert canon(outcome.results) == expected
        self.assert_healed(outcome, 1, rebuilds)
        # The rebuilt pool stays up for the next query.
        assert pool_stats()["alive"]

    def test_fault_gated_on_attempt_heals_deterministically(
        self, monkeypatch
    ):
        """``fault_exit=1`` means the re-run attempt runs clean: every
        replay heals the same way, and the killed shard's row names the
        attempt that produced it."""
        entry = contain_entry()
        xs, ys = inputs()
        expected = canon(serial_run(entry, xs, ys, "tuple"))
        exit_on_shard(monkeypatch, 2, 1)
        for _ in range(2):
            rebuilds = pool_stats()["rebuilds"]
            outcome = self.run_process(entry, xs, ys)
            assert canon(outcome.results) == expected
            self.assert_healed(outcome, 2, rebuilds)

    #: One cell per result-segment kind.  The worker exits before the
    #: shard body runs, so a cell matters to the death path only
    #: through the kind of segment its re-run writes.
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
        clean = self.run_process(entry, xs, ys, backend="columnar")
        assert len(clean.shard_runs) >= 2
        rebuilds = pool_stats()["rebuilds"]
        exit_on_shard(monkeypatch, 0, 1)
        healed = self.run_process(entry, xs, ys, backend="columnar")
        assert list(healed.results) == list(clean.results)
        self.assert_healed(healed, 0, rebuilds)


class TestEmptySegment:
    def test_sweep_unlinks_a_segment_its_worker_never_sized(self):
        """A broken pool terminates every worker, one possibly between
        creating its result segment and sizing it: the sweep must still
        unlink the empty segment, which cannot be mapped."""
        import _posixshmem

        name = shm.segment_name("empty")
        fd = _posixshmem.shm_open(
            f"/{name}", os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600
        )
        os.close(fd)
        shm.destroy_segment(name)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


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


#: A process-mode run as a script of its own: spawn workers re-import
#: ``__main__``, so the run sits under the main guard.
EXIT_SCRIPT = """
import os

from repro.model import TS_ASC, sort_tuples
from repro.parallel import execute_parallel
from repro.streams import TemporalOperator, lookup
from repro.workload import FacultyWorkload

if __name__ == "__main__":
    faculty = sort_tuples(
        FacultyWorkload(faculty_count=60).generate(seed=3).tuples, TS_ASC
    )
    entry = lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)
    outcome = execute_parallel(
        entry, faculty, faculty, shards=2, workers=2, mode="process"
    )
    print(os.getpid(), outcome.mode)
"""


def sorted_columns(n, seed):
    """``n`` TS-ordered endpoint rows held as columns, payload the row
    position: big operands at the price of two arrays."""
    rng = random.Random(seed)
    ts = array("q", sorted(rng.randrange(0, 4 * n) for _ in range(n)))
    te = array("q", (start + rng.randint(1, 400) for start in ts))
    return IntervalColumns(ts, te, range(n), TS_ASC)


def run_script(source, tmp_path):
    script = tmp_path / "probe.py"
    script.write_text(source, encoding="utf-8")
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


class TestProcessBoundaries:
    """The pool's edges: interpreter exit, a deadline mid-batch, and a
    serial query that must never import it."""

    def test_a_process_mode_script_exits_clean(self, tmp_path):
        result = run_script(EXIT_SCRIPT, tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        pid, mode = result.stdout.split()
        assert mode == "process"
        assert not {
            n for n in shm_entries() if n.startswith(f"repro-{pid}-")
        }

    def test_deadline_inside_a_process_batch_sweeps(self):
        """The batch outlives its deadline: the poll loop's checkpoint
        (or the worker's own) raises, no segment survives, and the next
        query runs in process mode again.  8 000 rows a side plan well
        inside the deadline; their tuple-backend shards do not."""
        entry = contain_entry()
        xs, ys = inputs()
        warm = execute_parallel(entry, xs, ys, shards=2, mode="process")
        assert warm.mode == "process"
        x_cols, y_cols = sorted_columns(8000, 1), sorted_columns(8000, 2)
        with pytest.raises(DeadlineExceededError):
            with governed(QueryBudget(deadline_seconds=0.05)):
                execute_parallel(
                    entry,
                    x_cols,
                    y_cols,
                    shards=2,
                    backend="tuple",
                    mode="process",
                )
        ours = f"repro-{os.getpid()}-"
        assert not {n for n in shm_entries() if n.startswith(ours)}
        again = execute_parallel(entry, xs, ys, shards=2, mode="process")
        assert again.mode == "process"

    def test_a_serial_query_never_imports_the_process_pool(self, tmp_path):
        result = run_script(
            """
import sys

from repro.cli import PARALLEL_DEFAULT_QUEL
from repro.query import run_query
from repro.workload import FacultyWorkload

faculty = FacultyWorkload(faculty_count=50).generate(seed=7)
run_query(PARALLEL_DEFAULT_QUEL, {"Faculty": faculty}, streams=True)
print("concurrent.futures.process" in sys.modules)
""",
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"]


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

    @pytest.mark.parametrize("backend", PHYSICAL_BACKENDS)
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
