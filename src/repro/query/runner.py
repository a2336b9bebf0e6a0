"""One-call query execution: text in, rows out.

Convenience façade over the full Section-3 pipeline (parse ->
translate -> rewrite -> optionally semantically optimize -> compile ->
execute), for examples, tests, and interactive use.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from ..algebra.logical import LogicalPlan

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..governance.budget import QueryBudget
from ..algebra.physical import compile_plan
from ..algebra.rewrite import optimize
from ..model.relation import TemporalRelation
from ..obs.trace import NULL_TRACER, Tracer, set_tracer
from ..relational.operators import EngineStats
from ..relational.schema import Row, RowSchema
from ..resilience.recovery import RecoveryPolicy
from .parser import parse_query
from .translator import translate


@dataclass
class QueryResult:
    """Rows plus the plan and execution profile that produced them."""

    rows: list[Row]
    schema: RowSchema
    plan: LogicalPlan
    stats: EngineStats
    #: Set when semantic optimization ran.
    semantic_report: Optional[object] = None
    #: Temporal joins executed by the stream engine (hybrid mode).
    stream_joins: list = None
    #: The resilience :class:`~repro.resilience.recovery.
    #: ExecutionReport` (the merge of the stream joins' own), set when
    #: ``streams=True`` ran.
    execution_report: Optional[object] = None
    #: The :class:`~repro.obs.trace.Tracer` that recorded this run, set
    #: when ``run_query`` was called with ``trace=...``.
    trace: Optional[object] = None
    #: Governance spend summary (budget caps, elapsed seconds, pages
    #: read, workspace peak, checkpoints) — set when ``run_query`` ran
    #: with a ``deadline``/``budget``.
    governance: Optional[dict] = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def run_query(
    source: str,
    catalog: Mapping[str, TemporalRelation],
    rewrite: bool = True,
    semantic: bool = False,
    streams: bool = False,
    recovery: RecoveryPolicy = RecoveryPolicy.STRICT,
    trace: Optional[object] = None,
    parallelism: Optional[int] = None,
    deadline: Optional[float] = None,
    budget: Optional["QueryBudget"] = None,
    audit: Optional[object] = None,
) -> QueryResult:
    """Execute a Quel-like query against ``catalog``.

    Parameters
    ----------
    source:
        The query text (``range of ... retrieve ... where ...``).
    catalog:
        Relation name -> temporal relation.
    rewrite:
        Apply the conventional Figure-3 rewrites (on by default; turn
        off to execute the raw parse tree).
    semantic:
        Additionally run the Section-5 semantic optimizer; the
        resulting report is attached to the result.
    streams:
        Execute recognised temporal joins with the stream engine via
        the cost-based planner (hybrid execution on the batch
        backend: the planner picks the cell, its sorts and its shard
        count); the stream joins taken are listed on the result.
    recovery:
        The :class:`~repro.resilience.recovery.RecoveryPolicy` applied
        to the stream joins (only meaningful with ``streams=True``;
        ``STRICT`` by default); the resulting
        :class:`~repro.resilience.recovery.ExecutionReport` is attached
        to the result as ``execution_report``.
    trace:
        ``True`` (record with a fresh :class:`~repro.obs.trace.Tracer`)
        or an existing tracer.  The tracer is installed as the active
        one for the duration of the run — every instrumented layer
        contributes spans under one ``query`` root — and attached to
        the result as ``result.trace``.  The default (``None``/falsy)
        keeps the zero-allocation no-op tracer.
    parallelism:
        Maximum shard count for time-domain-partitioned parallel
        stream joins (only meaningful with ``streams=True``); the cost
        model may still pick fewer shards, or serial execution.
    deadline:
        Wall-clock seconds this query may run; past it, the next
        governance checkpoint raises
        :class:`~repro.errors.DeadlineExceededError` (detection latency
        is one checkpoint interval: a page read, a pass boundary, a
        batch drain, or a shard-collect poll tick).
    budget:
        A :class:`~repro.governance.QueryBudget` of resource caps
        (deadline, workspace tuples, page reads, shared-memory bytes).
        ``deadline`` merges into it; breaches raise the typed
        :class:`~repro.errors.GovernanceError` subclasses, which the
        resilience ladder never retries.  Its workspace cap is not the
        paper's workspace: breaching it ends the query under every
        ``recovery`` policy.  The spend summary is
        attached as ``result.governance``.
    audit:
        A filesystem path or an :class:`~repro.obs.audit.AuditLog`;
        exactly one append-only JSONL audit record is written per call
        — on success (query id, plan/registry hashes, shard attempt
        table, governance spend, metrics/trace summaries) and on
        failure (the error, then the exception re-raises).  This is the
        outermost layer, so governance aborts are audited too.
    """
    log = token = None
    tracer = NULL_TRACER
    if audit is not None:
        from ..obs.audit import AuditLog, build_record

        log = audit if isinstance(audit, AuditLog) else AuditLog(audit)
    try:
        # audit > governance > trace, entered in that order.
        with ExitStack() as stack:
            if deadline is not None or budget is not None:
                from ..governance.budget import governed

                token = stack.enter_context(
                    governed(budget=budget, deadline=deadline)
                )
            if trace:
                tracer = (
                    trace if isinstance(trace, Tracer) else Tracer("query")
                )
                stack.callback(set_tracer, set_tracer(tracer))
            with tracer.span(
                "query",
                source=" ".join(source.split())[:200],
                streams=streams,
                semantic=semantic,
                rewrite=rewrite,
            ) as span:
                result = _run_pipeline(
                    source,
                    catalog,
                    rewrite,
                    semantic,
                    streams,
                    recovery,
                    parallelism,
                )
                span.set(rows=len(result.rows))
        if trace:
            result.trace = tracer
        if token is not None:
            result.governance = token.as_dict()
    except Exception as exc:
        if log is not None:
            log.append(build_record(source, error=exc))
        raise
    if log is not None:
        log.append(build_record(source, result=result))
    return result


def _run_pipeline(
    source: str,
    catalog: Mapping[str, TemporalRelation],
    rewrite: bool,
    semantic: bool,
    streams: bool,
    recovery: RecoveryPolicy,
    parallelism: Optional[int] = None,
) -> QueryResult:
    plan = translate(parse_query(source), catalog)
    if rewrite:
        plan = optimize(plan)
    report = None
    if semantic:
        from ..semantic.optimizer import semantically_optimize

        plan, report = semantically_optimize(plan, catalog)
    if streams:
        from ..optimizer.integration import execute_hybrid

        execution = execute_hybrid(
            plan, catalog, recovery=recovery, parallelism=parallelism
        )
        return QueryResult(
            rows=execution.rows,
            schema=execution.schema,
            plan=plan,
            stats=execution.stats,
            semantic_report=report,
            stream_joins=execution.stream_joins,
            execution_report=execution.execution_report,
        )
    stats = EngineStats()
    operator = compile_plan(plan, catalog, stats)
    rows = operator.run()
    return QueryResult(
        rows=rows,
        schema=operator.schema,
        plan=plan,
        stats=stats,
        semantic_report=report,
        stream_joins=[],
    )
