"""repro — a reproduction of Leung & Muntz, "Query Processing for
Temporal Databases" (UCLA CSD-890024 / ICDE 1990).

The package implements the paper's full pipeline:

* :mod:`repro.model` — the temporal data model: discrete time,
  half-open lifespans, temporal 4-tuples, relations, sort orders, and
  integrity constraints (Section 2);
* :mod:`repro.allen` — the thirteen interval relationships and their
  explicit inequality constraints (Figure 2);
* :mod:`repro.relational` / :mod:`repro.query` / :mod:`repro.algebra`
  — the conventional system of Section 3: a Quel-like query language,
  logical algebra with selection/projection pushdown (Figure 3), and a
  Volcano-style execution engine;
* :mod:`repro.streams` — the paper's contribution: single-pass stream
  processors for the temporal joins and semijoins, with workspace
  accounting and the executable Tables 1-3 (Section 4);
* :mod:`repro.semantic` — semantic query optimization: inequality
  implication, redundant-predicate elimination, and recognition of the
  Contained-semijoin inside less-than joins (Section 5, Figure 8);
* :mod:`repro.optimizer` — cost-based choice among sort orders, stream
  algorithms, and nested loops;
* :mod:`repro.storage` / :mod:`repro.stats` / :mod:`repro.workload` —
  supporting substrates: simulated paged storage with I/O accounting,
  statistics estimators, and deterministic synthetic workloads;
* :mod:`repro.superstar` — the running example end to end, three ways.

Quickstart::

    from repro.model import Interval, TemporalTuple, TS_ASC
    from repro.streams import ContainJoinTsTs, TupleStream

    xs = [TemporalTuple("job", "long", 0, 100)]
    ys = [TemporalTuple("task", "short", 10, 20)]
    join = ContainJoinTsTs(
        TupleStream.from_tuples(xs, order=TS_ASC),
        TupleStream.from_tuples(ys, order=TS_ASC),
    )
    pairs = join.run()           # [(long-job-tuple, short-task-tuple)]
    join.metrics.workspace_high_water  # bounded state, single pass
"""

from . import (
    algebra,
    allen,
    model,
    optimizer,
    query,
    relational,
    semantic,
    stats,
    storage,
    streams,
    superstar,
    workload,
)
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "__version__",
    "algebra",
    "allen",
    "model",
    "optimizer",
    "query",
    "relational",
    "semantic",
    "stats",
    "storage",
    "streams",
    "superstar",
    "workload",
]
