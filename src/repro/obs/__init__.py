"""Observability: tracing, EXPLAIN ANALYZE, and audit records.

The paper's claims are structural — workspace high-water marks, buffer
counts, single-scan guarantees — and this package makes them *visible*
at run time instead of only as post-hoc
:class:`~repro.streams.metrics.ProcessorMetrics` snapshots:

* :mod:`repro.obs.trace` — hierarchical spans (query -> plan ->
  operator -> pass -> page I/O) with monotonic timing, an always-cheap
  no-op default, and exporters for JSONL and the Chrome
  ``chrome://tracing`` trace-event format (a process-mode shard is
  one parent-side ``shard:<i>`` span timed by its shard row — workers
  do not trace);
* :mod:`repro.obs.explain` — the EXPLAIN ANALYZE renderer over a
  recorded trace (imported lazily by the query runner and CLI; it sits
  *above* the engine layers and is therefore not re-exported here);
* :mod:`repro.obs.audit` — per-query append-only JSONL audit records
  with a versioned schema (also above the engine; imported lazily by
  the query runner and the ``python -m repro audit`` subcommand).

Everything is zero-dependency and deterministic-friendly: spans use
``time.perf_counter_ns`` only for durations, and nothing here ever
sleeps or touches the network.
"""

from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    span_creation_count,
    to_chrome_trace,
    to_jsonl,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "span_creation_count",
    "to_chrome_trace",
    "to_jsonl",
]
