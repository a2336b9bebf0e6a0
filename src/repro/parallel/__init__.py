"""Parallel temporal join execution via time-domain range partitioning.

The package splits a sorted operator input into K contiguous shards
whose boundary-spanning tuples are replicated by per-operator necessity
windows (:mod:`repro.parallel.shards` — contiguous *index ranges* over
the operand endpoint columns), then runs the unmodified sweep kernels
per shard under the resilience ladder (:mod:`repro.parallel.worker`)
and merges the shard outputs (:mod:`repro.parallel.executor`).  Shards
run either in-process or on the zero-copy shared-memory process
runtime (:mod:`repro.parallel.shm`, :mod:`repro.parallel.pool`), where
they are described by offsets into one published segment, so nothing
is pickled on the hot path.

See ``docs/PARALLEL.md`` for the partitioning rules and their
derivation from the paper's Tables 1-3 workspace characterisations.
"""

from .executor import (
    EXECUTION_MODES,
    LazyResults,
    ParallelOutcome,
    ShardRun,
    execute_parallel,
)
from .pool import WorkerPoolError, pool_stats, shutdown_pool
from .shards import RangePlan, ShardRange, plan_ranges, slice_bounds

__all__ = [
    "EXECUTION_MODES",
    "LazyResults",
    "ParallelOutcome",
    "RangePlan",
    "ShardRange",
    "ShardRun",
    "WorkerPoolError",
    "execute_parallel",
    "plan_ranges",
    "pool_stats",
    "shutdown_pool",
    "slice_bounds",
]
