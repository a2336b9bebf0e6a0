"""Corrupted protocol twin: the worker acks *after* running the shard.

Everything else — synchronous channels, the collector's staleness and
duplicate guards, attempt-gated redispatch — is faithful to
``parallel/pool.py``; exactly one transition is out of order.  The
protocol checker must catch this by name (``ack-precedes-run`` plus a
``no-unattributed-execution`` witness from the death-point
simulation).  Never imported at runtime; parsed only.
"""

import os

_MAX_SHARD_RETRIES = 2


def segment_name(tag):
    return f"repro-{os.getpid()}-{tag}"


def run_task(task):
    return {"job": task["job"], "index": task["index"]}


def _worker_main(tasks, results, acks):
    while True:
        task = tasks.get()
        if task is None:
            break
        summary = run_task(task)
        acks.put(
            {
                "job": task.get("job"),
                "index": task.get("index"),
                "attempt": task.get("attempt", 0),
                "pid": os.getpid(),
            }
        )
        results.put(summary)


class WorkerPool:
    def __init__(self, context):
        self._context = context
        self._tasks = self._context.Queue()
        self._results = self._context.SimpleQueue()
        self._acks = self._context.SimpleQueue()

    def _drain_acks(self, job, states, acked_pids):
        while not self._acks.empty():
            ack = self._acks.get()
            if ack.get("job") != job:
                continue
            acked_pids.add(ack.get("pid"))
            state = states.get(ack.get("index"))
            if state is not None and ack.get("attempt") == state.attempt:
                state.pid = ack.get("pid")

    def _collect(self, job, states, summaries, errors):
        while states:
            result = self._results.get()
            if result.get("job") != job:
                continue
            index = result.get("index")
            if index in summaries or index in errors:
                continue
            if "error" in result:
                errors[index] = result
            else:
                summaries[index] = result

    def _redispatch(self, index, state, segment_names):
        if state.retries >= _MAX_SHARD_RETRIES:
            raise RuntimeError("shard kept dying")
        state.retries += 1
        state.attempt += 1
        fresh = segment_name(f"res{index}r{state.attempt}")
        segment_names.append(fresh)
        self._tasks.put(state.task)
