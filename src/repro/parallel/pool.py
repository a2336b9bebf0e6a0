"""The shard runtime's warm worker pool: one stdlib
:class:`concurrent.futures.ProcessPoolExecutor` on the spawn context,
created (and ``concurrent.futures.process`` first imported) by the first
process-mode batch, reused across queries and shut down atexit.

Each task is :func:`~repro.parallel.worker.run_task`'s argument and
its ``(summary, chunk)`` the future's result, so the task's column
slices and the shard's index arrays travel as the executor's own
pickles.  A shard that raises is never retried: :func:`run_batch`
re-raises the lowest-index shard's exception with its original type.
A worker death breaks the executor, which fails every unfinished future
with ``BrokenProcessPool`` and then stops the other workers; the batch
waits for that, builds a fresh pool and re-submits each unfinished
shard under ``attempt + 1``, up to ``_MAX_SHARD_RETRIES`` times.  A
batch given up mid-flight (a governance checkpoint, ``_BATCH_TIMEOUT``
of silence) kills its workers first, so no abandoned shard keeps a
worker busy.
"""

from __future__ import annotations

import atexit
import importlib
import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..obs.trace import get_tracer
from .worker import run_task

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from concurrent.futures import ProcessPoolExecutor

    from ..governance.budget import CancellationToken

#: Seconds of total batch silence before the pool is declared hung.
_BATCH_TIMEOUT = 600.0
#: Poll interval of the governance checkpoint while shards run.
_POLL_SECONDS = 0.05
#: Re-runs allowed per shard: a poison-pill shard that kills every
#: worker it lands on must not rebuild pools forever.
_MAX_SHARD_RETRIES = 2


class WorkerPoolError(RuntimeError):
    """Pool infrastructure failure (a hung batch, the retry budget
    spent): the executor runs the join inline instead."""


_POOL: Optional["ProcessPoolExecutor"] = None
_POOL_WORKERS = 0
_POOL_GUARD = threading.Lock()
#: Pools retired after a worker death or an abandoned batch.
_REBUILDS = 0


def _submit(workers: int, fn, calls) -> Tuple["ProcessPoolExecutor", list]:
    """Submit ``fn(*args)`` per entry of ``calls`` on the shared pool,
    (re)built for the most workers any batch asked for: it spawns them
    only as tasks arrive.  A worker can die on its task before the next
    is submitted: then the caller gets fewer futures."""
    from concurrent.futures.process import BrokenProcessPool

    global _POOL, _POOL_WORKERS
    with _POOL_GUARD:
        if _POOL is not None and _POOL_WORKERS < workers:
            _POOL.shutdown(wait=True)
            _POOL = None
        if _POOL is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            _POOL_WORKERS = max(1, workers, _POOL_WORKERS)
            _POOL = ProcessPoolExecutor(
                _POOL_WORKERS,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=importlib.import_module,
                initargs=(run_task.__module__,),
            )
        futures = []
        try:
            for args in calls:
                futures.append(_POOL.submit(fn, *args))
        except BrokenProcessPool:
            pass
        return _POOL, futures


def _discard(pool: "ProcessPoolExecutor", kill: bool = False) -> None:
    """Retire a broken (with ``kill``: an abandoned) pool; its workers
    are joined before this returns, and the next batch builds anew."""
    global _POOL, _REBUILDS
    with _POOL_GUARD:
        if kill:
            # The executor has no public way to stop a running worker.
            for process in list((pool._processes or {}).values()):
                process.terminate()
        pool.shutdown(wait=True)
        if _POOL is pool:
            _POOL = None
            _REBUILDS += 1


def run_batch(
    tasks: List[dict],
    workers: int,
    token: Optional["CancellationToken"] = None,
) -> Tuple[List[tuple], Dict[str, int]]:
    """Run shard tasks on the shared pool; returns their ``(summary,
    chunk)`` results in shard-index order and the containment counters.
    ``token`` is checked every poll tick."""
    from concurrent.futures.process import BrokenProcessPool

    stats = {"shard_retries": 0, "worker_deaths": 0}
    pending = {task["index"]: task for task in tasks}
    results: Dict[int, tuple] = {}
    errors: Dict[int, BaseException] = {}
    get_tracer().event(
        "pool.dispatch", shards=len(tasks), indices=sorted(pending)
    )
    while pending:
        pool, futures = _submit(
            workers, run_task, [(task,) for task in pending.values()]
        )
        shard_of = dict(zip(futures, pending))
        broken = len(futures) < len(pending)
        try:
            for future in _completed(shard_of, token):
                error = future.exception()
                if isinstance(error, BrokenProcessPool):
                    broken = True
                elif error is not None:
                    errors[shard_of[future]] = error
                else:
                    results[shard_of[future]] = future.result()
        except BaseException:
            _discard(pool, kill=True)
            raise
        if not broken:
            break
        _discard(pool)
        stats["worker_deaths"] += 1
        pending = {
            index: _rerun(task)
            for index, task in pending.items()
            if index not in results and index not in errors
        }
        stats["shard_retries"] += len(pending)
    if errors:
        raise errors[min(errors)]
    return [results[index] for index in sorted(results)], stats


def _rerun(task: dict) -> dict:
    """The next attempt of a shard a worker death left unfinished."""
    index, attempt = task["index"], task["attempt"] + 1
    if attempt > _MAX_SHARD_RETRIES:
        raise WorkerPoolError(f"shard {index} lost {attempt} workers")
    get_tracer().event(
        "pool.redispatch", index=index, attempt=attempt, reason="worker-death"
    )
    return dict(task, attempt=attempt)


def _completed(futures, token: Optional["CancellationToken"]):
    """Yield each of ``futures`` as it completes.  The poll loop is a
    governance checkpoint: a deadline or cancellation surfaces within
    one tick."""
    from concurrent.futures import FIRST_COMPLETED, wait

    waiting = set(futures)
    silence_deadline = time.monotonic() + _BATCH_TIMEOUT
    while waiting:
        if token is not None:
            token.check()
        done, waiting = wait(
            waiting, timeout=_POLL_SECONDS, return_when=FIRST_COMPLETED
        )
        if done:
            silence_deadline = time.monotonic() + _BATCH_TIMEOUT
        elif time.monotonic() > silence_deadline:
            raise WorkerPoolError(
                f"shard batch produced no result for {_BATCH_TIMEOUT}s"
            )
        yield from done


def shutdown_pool() -> None:
    """Stop the shared pool; idempotent (the atexit hook)."""
    global _POOL
    with _POOL_GUARD:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
            _POOL = None


atexit.register(shutdown_pool)


def pool_stats() -> Dict[str, object]:
    """Introspection for tests and the benchmark."""
    with _POOL_GUARD:
        processes = getattr(_POOL, "_processes", None) or {}
        return {
            "alive": _POOL is not None,
            "size": len(processes),
            "pids": sorted(processes),
            "rebuilds": _REBUILDS,
        }

