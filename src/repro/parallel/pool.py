"""Persistent spawn-based worker pool for the shard runtime.

The fork pool of the original process mode was built per query, which
priced every parallel run at pool construction plus a full pickle of
the operand tuples.  This pool is built **once**, reused across
queries, and shut down atexit; workers are spawn-safe (no inherited
parent state beyond the module imports) and receive only segment names
plus shard offsets, so a warm dispatch costs a few hundred bytes of
task dict per shard.

Concurrency: one batch owns the pool at a time (``run_batch`` holds a
lock), and every task/result carries a monotone job id, so two threads
calling ``execute_parallel`` concurrently serialise cleanly instead of
interleaving results — the replacement for the ``_FORK_TASKS`` module
global that was unsafe under concurrent ``run_query`` calls.

Failure semantics — **shard-level containment**, not batch abort:

* a worker raising a :class:`~repro.errors.ReproError` (STRICT
  violations, corrupt pages, governance breaches) ships the pickled
  original exception back; ``run_batch`` re-raises the lowest-index
  one after every shard resolves — deterministic errors are never
  retried, they would only fail again;
* a worker *dying* costs **one shard re-dispatch**, not the batch:
  workers ack each task before running it, so the collector knows
  which shard a dead pid owned, re-enqueues that task (shards are
  idempotent — exactly-once ownership means a re-run produces the
  identical index arrays) under a fresh result-segment name, and
  prunes the corpse from the process list.  The pool stays healthy;
  the next ``get_pool`` merely tops it back up;
* a *slow* shard is waited for: shards are deterministic, so a
  re-dispatched slow shard would be exactly as slow.  The governance
  deadline (checked every poll tick) and the batch timeout bound the
  wait;
* the pool is poisoned (and :class:`WorkerPoolError` raised, which the
  executor answers with a visible inline fallback) only when **quorum
  is lost** — fewer than half the target workers still alive — when a
  shard exhausts its re-dispatch budget (a poison-pill shard that
  kills every worker it touches), or when the whole batch goes silent
  past the batch timeout;
* the parent owns every shared-memory segment name it put into a
  batch, so cleanup after any failure is the executor's
  ``finally``-block sweep; segments that a superseded attempt (a
  queued first attempt of an orphan re-dispatch) may write after that
  sweep land on the pool's deferred-cleanup list and are re-swept on
  the next batches and at shutdown.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..errors import ExecutionError
from ..obs.trace import get_tracer
from . import shm

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..governance.budget import CancellationToken

#: Seconds of total batch silence before the pool is declared hung.
_BATCH_TIMEOUT = 600.0
#: Poll interval while waiting on the result queue.
_POLL_SECONDS = 0.05
#: Re-dispatches allowed per shard before the batch is declared
#: infrastructure-hopeless.  A poison-pill shard that crashes every
#: worker it lands on must not consume the pool worker by worker —
#: quorum loss usually trips first, this cap is the backstop.
_MAX_SHARD_RETRIES = 2
#: Sweep attempts for deferred segment names (a superseded attempt may
#: write after the batch's own sweep; a few re-sweeps reap them).
_DEFERRED_SWEEPS = 3
#: Grace period after a worker death before unacked shards are treated
#: as orphans.  A worker that exits right after acking can take the
#: ack down with the queue's feeder thread, so an unacked shard may be
#: owned by the corpse — but it may also just have its ack in flight,
#: and the grace lets those land before any conservative re-dispatch.
_ORPHAN_GRACE = 0.25


def _pool_event(name: str, **attrs) -> None:
    """One containment-ladder event on the active tracer (structured
    event on the enclosing span)."""
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(f"pool.{name}", **attrs)


class WorkerPoolError(RuntimeError):
    """Pool infrastructure failure (quorum loss, hang, retry budget
    spent) — parallelism is unavailable, correctness falls back
    inline."""


def _encode_error(exc: BaseException) -> bytes:
    """Pickle the original exception, downgrading to an ExecutionError
    carrying the repr when the instance itself cannot travel."""
    try:
        return pickle.dumps(exc)
    # Pickling fallback, not a swallow: whatever payload survives is
    # re-raised in the parent, so a governance error still surfaces
    # (worst case as ExecutionError naming the original).
    except Exception:  # repro: noqa(REP009)
        return pickle.dumps(
            ExecutionError(f"shard failed with unpicklable {exc!r}")
        )


def _worker_main(tasks, results, acks) -> None:
    """Worker loop: run shard tasks until the ``None`` sentinel.

    Each task is acked (job, shard index, attempt, pid) *before* it
    runs: the ack is what lets the parent map a dead pid back to the
    shard it owned and re-dispatch exactly that shard.  Acks and
    results both travel on ``SimpleQueue``\\ s — synchronous pipe
    writes with no feeder thread — so a worker that ``os._exit``\\ s
    cannot lose an ack it sent or a summary it finished: by the time
    the loop takes the next task, the previous result is in the pipe.
    """
    from .worker import run_task

    while True:
        task = tasks.get()
        if task is None:
            break
        acks.put(
            {
                "job": task.get("job"),
                "index": task.get("index"),
                "attempt": task.get("attempt", 0),
                "pid": os.getpid(),
            }
        )
        try:
            results.put(run_task(task))
        # Not a swallow: the exception (governance errors included) is
        # shipped to the parent as an error message and re-raised by
        # the collector — the worker loop must outlive any one shard.
        except BaseException as exc:  # noqa: BLE001  # repro: noqa(REP009)
            results.put(
                {
                    "job": task.get("job"),
                    "index": task.get("index"),
                    "attempt": task.get("attempt", 0),
                    "error": _encode_error(exc),
                }
            )


@dataclass
class _ShardState:
    """Collector-side bookkeeping for one shard of the current batch."""

    task: dict
    attempt: int = 0
    pid: Optional[int] = None
    dispatched_at: float = 0.0
    retries: int = 0
    #: Result-segment names created for re-dispatches (the original
    #: name stays owned by the caller's sweep list).
    retry_segments: List[str] = field(default_factory=list)


class WorkerPool:
    """A fixed set of warm spawn workers around one task/result queue
    pair.  Grows on demand; never shrinks until shutdown (dead workers
    are pruned mid-batch and replaced by the next ``get_pool``)."""

    def __init__(self, size: int):
        import multiprocessing

        self._context = multiprocessing.get_context("spawn")
        self._tasks = self._context.Queue()
        # Results and acks travel on SimpleQueues — synchronous pipe
        # writes with no feeder thread.  A buffered Queue loses state
        # to ``os._exit``: a worker that finishes shard A, then takes
        # shard B and dies, takes A's *finished but unflushed* summary
        # down with the feeder.  A synchronous write means a worker
        # cannot take task N+1 before result N is physically in the
        # pipe, so a corpse owns at most one unresolved shard.
        self._results = self._context.SimpleQueue()
        self._acks = self._context.SimpleQueue()
        self._processes: List = []
        self._dispatch_lock = threading.Lock()
        self._job_counter = 0
        self._spawn_counter = 0
        self._broken = False
        self._target_size = max(1, size)
        #: name -> remaining sweep attempts for segments a superseded
        #: attempt may still write after the batch's own sweep.
        self._deferred_segments: Dict[str, int] = {}
        #: Containment counters of the most recent batch (the executor
        #: copies them onto the ``parallel:`` span; batches serialise
        #: on the dispatch lock, so no extra locking is needed).
        self.last_batch_stats: Dict[str, int] = {}
        self.grow(size)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._processes)

    @property
    def healthy(self) -> bool:
        return not self._broken and all(
            p.is_alive() or p.exitcode == 0 for p in self._processes
        )

    def grow(self, size: int) -> None:
        self._target_size = max(self._target_size, size)
        while len(self._processes) < size:
            process = self._context.Process(
                target=_worker_main,
                args=(self._tasks, self._results, self._acks),
                daemon=True,
                name=f"repro-shard-{self._spawn_counter}",
            )
            self._spawn_counter += 1
            process.start()
            self._processes.append(process)

    def worker_pids(self) -> List[int]:
        return [p.pid for p in self._processes]

    def shutdown(self) -> None:
        """Graceful stop: sentinels, short join, terminate, then
        ``kill()`` for anything SIGTERM could not stop (a worker stuck
        in uninterruptible C code or with the signal masked must not
        outlive the pool).  Idempotent."""
        self._broken = True
        for _ in self._processes:
            try:
                self._tasks.put_nowait(None)
            except Exception:  # pragma: no cover - queue already closed
                break
        for process in self._processes:
            process.join(timeout=1.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for process in self._processes:
            if process.is_alive():  # terminate was not enough: escalate
                process.kill()
                process.join(timeout=1.0)
        self._sweep_deferred(final=True)
        try:
            self._tasks.close()
            self._tasks.join_thread()
        except Exception:  # pragma: no cover - teardown race
            pass
        for channel in (self._results, self._acks):
            try:
                channel.close()
            except Exception:  # pragma: no cover - teardown race
                pass
        self._processes.clear()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run_batch(
        self,
        tasks: List[dict],
        token: Optional["CancellationToken"] = None,
        segment_names: Optional[List[str]] = None,
    ) -> List[dict]:
        """Run one batch of shard tasks; returns the per-task summary
        dicts in shard-index order.

        ``token`` makes the collect loop a governance checkpoint (a
        deadline or cancellation surfaces within one poll tick);
        ``segment_names`` is the caller's sweep list, which
        re-dispatches append their fresh result-segment names to.

        Re-raises the first (lowest shard index) worker
        :class:`~repro.errors.ReproError` with its original type after
        every shard resolves; raises :class:`WorkerPoolError` only for
        infrastructure failure (quorum loss, hang, retry budget spent).
        """
        if not tasks:
            return []
        with self._dispatch_lock:
            if self._broken:
                raise WorkerPoolError("worker pool is poisoned")
            self._sweep_deferred()
            self._job_counter += 1
            job = self._job_counter
            now = time.monotonic()
            states: Dict[int, _ShardState] = {}
            self.last_batch_stats = {"shard_retries": 0, "worker_deaths": 0}
            for task in tasks:
                task["job"] = job
                task.setdefault("attempt", 0)
                states[task["index"]] = _ShardState(
                    task=task, dispatched_at=now
                )
            _pool_event(
                "dispatch",
                job=job,
                shards=len(tasks),
                indices=sorted(states),
            )
            for task in tasks:
                self._tasks.put(task)
            try:
                summaries = self._collect(job, states, token, segment_names)
            except BaseException:
                self._defer_segments(states)
                raise
            # Segments a superseded attempt may still write are deferred
            # for later sweeps — except the winners, which the caller is
            # about to read (the next batch's sweep must not reap them
            # first).
            self._defer_segments(
                states,
                keep={s.get("result_segment") for s in summaries},
            )
            return summaries

    def _defer_segments(self, states, keep=frozenset()) -> None:
        for state in states.values():
            for name in state.retry_segments:
                if name not in keep:
                    self._deferred_segments[name] = _DEFERRED_SWEEPS

    def _collect(
        self,
        job: int,
        states: Dict[int, _ShardState],
        token: Optional["CancellationToken"],
        segment_names: Optional[List[str]],
    ) -> List[dict]:
        summaries: Dict[int, dict] = {}
        errors: Dict[int, dict] = {}
        dead_pids: set = set()
        acked_pids: set = set()
        orphan_deadline: Optional[float] = None
        death_time = 0.0
        silence_deadline = time.monotonic() + _BATCH_TIMEOUT
        while len(summaries) + len(errors) < len(states):
            if token is not None:
                # Governance checkpoint: a deadline or cancellation
                # surfaces within one poll tick.  The batch is simply
                # abandoned — workers finish and their now-stale
                # results are discarded by the job check below.
                token.check()
            self._drain_acks(job, states, acked_pids)
            # SimpleQueue has no get(timeout=); poll the read end of
            # its pipe directly (single reader: the poll/get pair
            # cannot race with anyone).
            if not self._results._reader.poll(_POLL_SECONDS):
                now = time.monotonic()
                resolved = summaries.keys() | errors.keys()
                if self._reap_dead(states, dead_pids):
                    death_time = now
                    if orphan_deadline is None:
                        orphan_deadline = now + _ORPHAN_GRACE
                # Runs every tick, not just on the tick that observed a
                # death: the corpse's ack may drain one tick *after*
                # the reap, and only then does the shard's state.pid
                # make the ownership visible.
                self._redispatch_dead_owned(
                    states, resolved, segment_names, dead_pids
                )
                if orphan_deadline is not None and now >= orphan_deadline:
                    orphan_deadline = None
                    self._reap_orphans(
                        states,
                        resolved,
                        segment_names,
                        dead_pids,
                        acked_pids,
                        death_time,
                    )
                if now > silence_deadline:
                    self._broken = True
                    raise WorkerPoolError(
                        "shard batch produced no result for "
                        f"{_BATCH_TIMEOUT}s"
                    )
                continue
            result = self._results.get()
            if result.get("job") != job:
                # Stale traffic from an abandoned batch: discard, and
                # crucially do NOT refresh the liveness deadline — an
                # abandoned batch's late shards must not keep a hung
                # batch looking alive.
                continue
            silence_deadline = time.monotonic() + _BATCH_TIMEOUT
            index = result.get("index")
            state = states.get(index)
            if state is None:
                continue
            if index in summaries or index in errors:
                continue  # duplicate from a re-dispatched orphan
            if "error" in result:
                # Deterministic shard failure (STRICT violation,
                # corrupt page, governance breach): never retried —
                # a re-run of an idempotent shard fails identically.
                errors[index] = result
            else:
                summaries[index] = result
        if errors:
            lowest = min(errors)
            raise pickle.loads(errors[lowest]["error"])
        return [summaries[index] for index in sorted(summaries)]

    # ------------------------------------------------------------------
    # containment
    # ------------------------------------------------------------------
    def _drain_acks(
        self,
        job: int,
        states: Dict[int, _ShardState],
        acked_pids: set,
    ) -> None:
        """Record which worker owns which shard.  Non-blocking: acks
        arrive on a synchronous pipe, so everything a live-or-dead
        worker ever acked is readable here."""
        while not self._acks.empty():
            ack = self._acks.get()
            if ack.get("job") != job:
                continue
            pid = ack.get("pid")
            _pool_event(
                "ack",
                job=job,
                index=ack.get("index"),
                attempt=ack.get("attempt"),
                pid=pid,
            )
            acked_pids.add(pid)
            state = states.get(ack.get("index"))
            if state is not None and ack.get("attempt") == state.attempt:
                state.pid = pid

    def _reap_dead(
        self,
        states: Dict[int, _ShardState],
        dead_pids: set,
    ) -> bool:
        """Prune dead workers; returns whether any new deaths were
        observed.  Re-dispatching the shards a corpse owned is
        :meth:`_redispatch_dead_owned`'s job — ownership may only
        become known (via a late-draining ack) ticks after the reap.

        Poisons the pool only on quorum loss: fewer than half the
        target workers alive means the host is unhealthy and inline
        execution is the safer degradation.
        """
        dead = [p for p in self._processes if not p.is_alive()]
        if not dead:
            return False
        _pool_event(
            "reap",
            pids=[p.pid for p in dead],
            exit_codes=sorted({p.exitcode for p in dead}),
        )
        dead_pids.update(p.pid for p in dead)
        self._processes = [p for p in self._processes if p.is_alive()]
        self.last_batch_stats["worker_deaths"] = (
            self.last_batch_stats.get("worker_deaths", 0) + len(dead)
        )
        quorum = max(1, math.ceil(self._target_size / 2))
        if len(self._processes) < quorum:
            self._broken = True
            codes = sorted({p.exitcode for p in dead})
            raise WorkerPoolError(
                f"lost pool quorum: {len(dead)} worker(s) died (exit "
                f"codes {codes}), {len(self._processes)}/"
                f"{self._target_size} alive"
            )
        return True

    def _redispatch_dead_owned(
        self,
        states: Dict[int, _ShardState],
        resolved,
        segment_names: Optional[List[str]],
        dead_pids: set,
    ) -> None:
        """Re-dispatch unresolved shards owned by a dead worker.

        Idempotent per death: a re-dispatch clears ``state.pid`` and
        bumps the attempt, so the shard only matches again if its
        *new* owner also dies (a later ack for the superseded attempt
        cannot re-set ``pid`` — :meth:`_drain_acks` checks the attempt
        number).
        """
        if not dead_pids:
            return
        for index, state in states.items():
            if index in resolved:
                continue
            if state.pid is not None and state.pid in dead_pids:
                self._redispatch(
                    index, state, "worker-death", segment_names
                )

    def _reap_orphans(
        self,
        states: Dict[int, _ShardState],
        resolved,
        segment_names: Optional[List[str]],
        dead_pids: set,
        acked_pids: set,
        death_time: float,
    ) -> None:
        """Re-dispatch shards still unacked a grace period after an
        *unattributed* worker death.

        The synchronous ack channel makes attribution reliable for any
        worker that reached its ack, so this backstop only fires for a
        corpse that died between taking a task and acking it.  Such a
        shard is indistinguishable from one merely queued behind busy
        workers — and re-running a queued shard is safe (idempotent
        work, fresh segment names, first summary wins), so the
        conservative re-dispatch costs at most a duplicate, never a
        hang.
        """
        if not (dead_pids - acked_pids):
            return  # every death is attributed; nothing is orphaned
        for index, state in states.items():
            if index in resolved:
                continue
            if state.dispatched_at > death_time:
                continue  # dispatched after the death: not the orphan
            if state.pid is None or state.pid in dead_pids:
                self._redispatch(
                    index, state, "worker-death", segment_names
                )

    def _redispatch(
        self,
        index: int,
        state: _ShardState,
        reason: str,
        segment_names: Optional[List[str]],
    ) -> None:
        """Re-enqueue one shard under a fresh attempt number and (when
        it writes a result segment) a fresh segment name — two attempts
        must never race on one ``SharedMemory(create=True)`` name."""
        if state.retries >= _MAX_SHARD_RETRIES:
            self._broken = True
            raise WorkerPoolError(
                f"shard {index} failed {state.retries + 1} dispatch "
                f"attempts (last reason: {reason})"
            )
        state.retries += 1
        state.attempt += 1
        task = dict(state.task)
        task["attempt"] = state.attempt
        if task.get("result_segment") is not None:
            # Both the superseded name (a queued first attempt may
            # still write it after this batch's sweep) and the fresh
            # one go on the deferred list; whichever attempt wins is
            # excluded at batch end.
            state.retry_segments.append(task["result_segment"])
            fresh = shm.segment_name(f"res{index}r{state.attempt}")
            task["result_segment"] = fresh
            state.retry_segments.append(fresh)
            if segment_names is not None:
                segment_names.append(fresh)
        _pool_event(
            "redispatch",
            index=index,
            attempt=state.attempt,
            reason=reason,
        )
        state.task = task
        state.pid = None
        state.dispatched_at = time.monotonic()
        self.last_batch_stats["shard_retries"] = (
            self.last_batch_stats.get("shard_retries", 0) + 1
        )
        self._tasks.put(task)

    def _sweep_deferred(self, final: bool = False) -> None:
        """Reap segments that a superseded attempt may have written after
        its batch's sweep.  An orphan re-dispatch (:meth:`_reap_orphans`)
        can leave the shard's first attempt queued behind busy workers,
        and that attempt still runs and writes its segment late.  Each
        name gets a few attempts (the attempt may not have written yet)
        and is then dropped — a worker that never writes leaves nothing
        to reap."""
        if not self._deferred_segments:
            return
        for name in list(self._deferred_segments):
            shm.destroy_segment(name)
            self._deferred_segments[name] -= 1
            if final or self._deferred_segments[name] <= 0:
                del self._deferred_segments[name]


# ----------------------------------------------------------------------
# the process-wide pool
# ----------------------------------------------------------------------
_POOL: Optional[WorkerPool] = None
_POOL_GUARD = threading.Lock()
_ATEXIT_INSTALLED = False
#: Poisoned pools torn down and rebuilt by :func:`get_pool` in this
#: process.
_REBUILDS = 0


def get_pool(workers: int) -> WorkerPool:
    """The shared warm pool, grown to at least ``workers`` processes.

    A *poisoned* pool (quorum loss, hung batch) is torn down and
    rebuilt here — counted in ``pool_stats()["rebuilds"]``.
    A healthy pool that merely lost a worker to a contained crash is
    **not** rebuilt: ``grow`` tops it back up to the requested size.
    """
    global _POOL, _ATEXIT_INSTALLED, _REBUILDS
    with _POOL_GUARD:
        if _POOL is not None and not _POOL.healthy:
            _POOL.shutdown()
            _POOL = None
            _REBUILDS += 1
        if _POOL is None:
            _POOL = WorkerPool(max(1, workers))
            if not _ATEXIT_INSTALLED:
                atexit.register(shutdown_pool)
                _ATEXIT_INSTALLED = True
        elif _POOL.size < workers:
            _POOL.grow(workers)
        return _POOL


def shutdown_pool() -> None:
    """Stop the shared pool (atexit hook; also used by tests).
    Idempotent: safe to call manually and again from atexit."""
    global _POOL
    with _POOL_GUARD:
        if _POOL is not None:
            _POOL.shutdown()
            _POOL = None


def pool_stats() -> Dict[str, object]:
    """Introspection for tests and EXPLAIN ANALYZE."""
    with _POOL_GUARD:
        if _POOL is None:
            return {
                "alive": False,
                "size": 0,
                "pids": [],
                "rebuilds": _REBUILDS,
            }
        return {
            "alive": _POOL.healthy,
            "size": _POOL.size,
            "pids": _POOL.worker_pids(),
            "rebuilds": _REBUILDS,
        }


def warm_pool(workers: int) -> List[int]:
    """Ensure ``workers`` processes exist and have finished importing;
    returns their pids (benchmarks call this before timing)."""
    pool = get_pool(workers)
    # Spawned workers import the runtime while the parent keeps going;
    # a zero-task batch is not observable, so just confirm liveness.
    for process in pool._processes:
        while process.pid is None:  # pragma: no cover - start race
            time.sleep(_POLL_SECONDS)
    return pool.worker_pids()


__all__ = [
    "WorkerPool",
    "WorkerPoolError",
    "get_pool",
    "pool_stats",
    "shutdown_pool",
    "warm_pool",
]
