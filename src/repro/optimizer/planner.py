"""Physical planning for temporal joins and semijoins.

Given an operator (a Table-1/2/3 column), two temporal relations, and
their (possibly absent) sort orders, the planner enumerates:

* every supported registry entry (sort-order combination with a
  bounded-workspace stream algorithm), charging external sorts for
  orders the inputs do not already have and the expected workspace for
  the entry's state class;
* the nested loop, which needs no sort but re-scans the inner input
  per outer tuple.

An operand is a :class:`~repro.model.relation.TemporalRelation` or an
:class:`~repro.columnar.relation.IntervalColumns` born as columns (the
hybrid executor's), which builds its tuples only for a tuple-at-a-time
winner.

It picks the cheapest alternative and can execute it, returning both
the results and an execution profile (chosen entry, estimated cost,
measured workspace/IO) — the machinery behind the paper's claim that
"the optimal sort ordering for a query may depend on the statistics of
data instances".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..columnar.relation import IntervalColumns
from ..errors import PlanStateError, UnsupportedBackendError
from ..model.relation import TemporalRelation
from ..model.sortorder import order_satisfies
from ..obs.trace import get_tracer
from ..resilience.executor import execute_entry, stream_over
from ..resilience.recovery import ExecutionReport, RecoveryPolicy
from ..stats.estimators import collect_statistics
from ..streams.metrics import ProcessorMetrics
from ..streams.processors.baseline import (
    PREDICATES,
    NestedLoopJoin,
    NestedLoopSemijoin,
)
from ..streams.registry import (
    BACKENDS,
    RegistryEntry,
    TemporalOperator,
    supported_entries,
)
from .cost import (
    CostModel,
    choose_shard_count,
    expected_output_for,
    expected_replication_per_cut,
    expected_workspace_for,
)

#: What the planner plans over and runs on.
Operand = Union[TemporalRelation, IntervalColumns]


def _entry_of(alternative: "Alternative") -> RegistryEntry:
    if alternative.entry is None:
        raise PlanStateError(
            f"{alternative.kind} alternative has no registry entry"
        )
    return alternative.entry


def _in_entry_order(
    alternative: "Alternative", x: Operand, y: Operand
) -> tuple[Operand, Operand]:
    """Both operands as the alternative's cell reads them: sorted into
    the entry's orders where the plan charged a sort, else as given."""
    entry = _entry_of(alternative)
    if alternative.sort_x:
        x = x.sorted_by(entry.x_order)
    if alternative.sort_y and entry.y_order is not None:
        y = y.sorted_by(entry.y_order)
    return x, y


@dataclass(frozen=True)
class Alternative:
    """One costed way to evaluate the operator."""

    kind: str  # "stream", "parallel-stream" or "nested-loop"
    entry: Optional[RegistryEntry]
    sort_x: bool
    sort_y: bool
    estimated_cost: float
    cost_breakdown: dict
    #: Shard count for "parallel-stream" alternatives (1 otherwise).
    workers: int = 1
    #: Physical backend this alternative executes on; ``None`` for the
    #: nested loop, which runs no registry cell.
    backend: Optional[str] = "columnar"

    def as_dict(self) -> dict:
        """The alternative as the audit record lists it, its estimates
        (``cost_breakdown``: expected workspace, expected output) next
        to what the run measured."""
        entry = self.entry
        return {
            "kind": self.kind,
            "backend": self.backend,
            "x_order": str(entry.x_order) if entry else None,
            "y_order": str(entry.y_order) if entry else None,
            "sort_x": self.sort_x,
            "sort_y": self.sort_y,
            "workers": self.workers,
            "estimated_cost": self.estimated_cost,
            "cost_breakdown": self.cost_breakdown,
        }

    def describe(self) -> str:
        if self.kind == "nested-loop":
            return f"nested-loop (cost {self.estimated_cost:.1f})"
        if self.entry is None:
            raise PlanStateError(
                f"{self.kind} alternative has no registry entry"
            )
        sorts = []
        if self.sort_x:
            sorts.append(f"sort X by [{self.entry.x_order}]")
        if self.sort_y and self.entry.y_order is not None:
            sorts.append(f"sort Y by [{self.entry.y_order}]")
        prefix = (", ".join(sorts) + "; ") if sorts else ""
        label = "stream"
        if self.kind == "parallel-stream":
            label = f"parallel[{self.workers}]-stream"
        if self.backend != "tuple":
            label = f"{label}({self.backend})"
        return (
            f"{label}[{self.entry.x_order} / {self.entry.y_order}] "
            f"state ({self.entry.state_class}) — {prefix}"
            f"cost {self.estimated_cost:.1f}"
        )


@dataclass
class ExecutionProfile:
    """What actually happened when the chosen alternative ran."""

    chosen: Alternative
    alternatives: list[Alternative]
    metrics: Optional[ProcessorMetrics] = None
    details: dict = field(default_factory=dict)
    #: The X and Y operands as the winner read them: in the chosen
    #: entry's sort orders wherever the plan said "sort".
    operands: tuple = ()


class TemporalJoinPlanner:
    """Cost-based chooser between stream algorithms and nested loops.

    With ``use_histograms=True`` the workspace component of stream
    costs comes from equi-width histograms
    (:func:`repro.stats.histograms.estimate_peak_workspace`) instead of
    the stationary ``lambda * E[duration]`` model — markedly better on
    bursty, non-stationary data (Section 6's "suitable form for the
    optimizer").
    """

    def __init__(
        self,
        use_histograms: bool = False,
        backend: str = "columnar",
        parallelism: Optional[int] = None,
        parallel_mode: str = "auto",
        workspace_budget: Optional[int] = None,
    ) -> None:
        if backend != "auto" and backend not in BACKENDS:
            raise UnsupportedBackendError(
                f"unknown execution backend {backend!r}; "
                f"choose one of {BACKENDS + ('auto',)}"
            )
        self.cost_model = CostModel()
        self.use_histograms = use_histograms
        #: Physical backend stream plans execute on: the batch backend
        #: ("columnar", or its second name "fused"), or "tuple", the
        #: one-buffer processors kept as the oracle.  The cost model
        #: ranks cells, not backends, so "auto" names the batch backend.
        self.backend = "columnar" if backend == "auto" else backend
        #: Maximum shard count for time-domain-partitioned plans; the
        #: cost model may pick fewer (or fall back to serial) per
        #: instance.  ``None``/1 disables parallel alternatives.  It is
        #: also the core grant the shard-count search assumes, so
        #: ``--parallelism K`` plans K-shard alternatives even on boxes
        #: the planner would otherwise keep serial.
        self.parallelism = parallelism
        #: Execution mode handed to the parallel executor ("auto",
        #: "process", or "inline" — see repro.parallel.executor).
        self.parallel_mode = parallel_mode
        #: The paper's finite local workspace, in state tuples, for
        #: every ``execute`` that does not name its own.  Not a
        #: governance cap: a breach is a recovery-ladder event.
        self.workspace_budget = workspace_budget

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def alternatives(
        self,
        operator: TemporalOperator,
        x_relation: Operand,
        y_relation: Operand,
    ) -> list[Alternative]:
        model = self.cost_model
        x_stats = collect_statistics(x_relation)
        y_stats = collect_statistics(y_relation)
        histogram_peak: Optional[float] = None
        if self.use_histograms:
            from ..stats.histograms import (
                build_histogram,
                estimate_peak_workspace,
            )

            histogram_peak = estimate_peak_workspace(
                build_histogram(x_relation.tuples),
                build_histogram(y_relation.tuples),
            )
        output = expected_output_for(operator, x_stats, y_stats)
        out: list[Alternative] = []
        order_free_seen = False
        for entry in supported_entries(operator):
            if entry.order_free:
                # One alternative suffices: the algorithm ignores sort
                # orders entirely.
                if order_free_seen:
                    continue
                order_free_seen = True
                sort_x = sort_y = False
            else:
                sort_x = not order_satisfies(
                    x_relation.order, entry.x_order
                )
                sort_y = entry.y_order is not None and not order_satisfies(
                    y_relation.order, entry.y_order
                )
            sort_cost = 0.0
            if sort_x:
                sort_cost += model.sort_cost(x_stats.cardinality)
            if sort_y:
                sort_cost += model.sort_cost(y_stats.cardinality)
            workspace = expected_workspace_for(
                entry.state_class, x_stats, y_stats
            )
            if histogram_peak is not None and entry.state_class in (
                "a",
                "b",
                "c",
            ):
                workspace = histogram_peak
                if entry.state_class == "c":
                    workspace /= 2.0
            pass_cost = model.stream_pass_cost(
                x_stats.cardinality,
                y_stats.cardinality,
                workspace,
                expected_output=output,
            )
            out.append(
                Alternative(
                    kind="stream",
                    entry=entry,
                    sort_x=sort_x,
                    sort_y=sort_y,
                    estimated_cost=sort_cost + pass_cost,
                    cost_breakdown={
                        "sort": sort_cost,
                        "pass": pass_cost,
                        "expected_workspace": workspace,
                        "expected_output": output,
                    },
                    backend=self.backend,
                )
            )
            if self.parallelism and self.parallelism > 1:
                workers = choose_shard_count(
                    model,
                    x_stats,
                    y_stats,
                    workspace,
                    self.parallelism,
                    available_cpus=self.parallelism,
                    expected_output=output,
                )
                if workers > 1:
                    replicated = (workers - 1) * expected_replication_per_cut(
                        x_stats, y_stats
                    )
                    parallel_pass = model.parallel_stream_cost(
                        x_stats.cardinality,
                        y_stats.cardinality,
                        workspace,
                        workers,
                        replicated=replicated,
                        expected_output=output,
                    )
                    out.append(
                        Alternative(
                            kind="parallel-stream",
                            entry=entry,
                            sort_x=sort_x,
                            sort_y=sort_y,
                            estimated_cost=sort_cost + parallel_pass,
                            cost_breakdown={
                                "sort": sort_cost,
                                "pass": parallel_pass,
                                "expected_workspace": workspace,
                                "expected_output": output,
                                "workers": workers,
                                "expected_replication": replicated,
                            },
                            workers=workers,
                            backend=self.backend,
                        )
                    )
        nested = model.nested_loop_cost(
            x_stats.cardinality, y_stats.cardinality
        )
        out.append(
            Alternative(
                kind="nested-loop",
                entry=None,
                sort_x=False,
                sort_y=False,
                estimated_cost=nested,
                cost_breakdown={"nested_loop": nested},
                backend=None,
            )
        )
        out.sort(key=lambda alt: alt.estimated_cost)
        return out

    def choose(
        self,
        operator: TemporalOperator,
        x_relation: Operand,
        y_relation: Operand,
    ) -> Alternative:
        return self.alternatives(operator, x_relation, y_relation)[0]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        operator: TemporalOperator,
        x_relation: Operand,
        y_relation: Operand,
        workspace_budget: Optional[int] = None,
        recovery: RecoveryPolicy = RecoveryPolicy.STRICT,
    ) -> tuple[list, ExecutionProfile]:
        """Plan, run the winner, and report the profile.

        ``workspace_budget`` (default: the planner's) caps the stream
        algorithm's state tuples — the paper's finite local workspace.

        ``recovery`` selects how a violated assumption is handled:
        ``STRICT`` fails fast with the original error (an overflowing
        workspace raises :class:`~repro.errors.WorkspaceOverflowError`),
        ``DEGRADE`` re-sorts on order violations and
        spills into extra passes on overflow.  The policy and this
        run's own :class:`~repro.resilience.recovery.ExecutionReport`
        land in ``profile.details``.

        Governance (a :class:`~repro.governance.QueryBudget`) is not the
        planner's: it is whatever token the caller installed
        (:func:`~repro.governance.governed`, ``run_query(budget=)``).
        """
        if workspace_budget is None:
            workspace_budget = self.workspace_budget
        tracer = get_tracer()
        with tracer.span(
            f"plan:{operator.value}", backend=self.backend
        ) as span:
            ranked = self.alternatives(operator, x_relation, y_relation)
            chosen = ranked[0]
            profile = ExecutionProfile(chosen=chosen, alternatives=ranked)
            if tracer.enabled:
                span.set(
                    chosen=chosen.describe(),
                    kind=chosen.kind,
                    estimated_cost=chosen.estimated_cost,
                    alternatives=len(ranked),
                    sort_x=chosen.sort_x,
                    sort_y=chosen.sort_y,
                )
            report = ExecutionReport()
            profile.details.update(
                recovery=recovery.value, execution_report=report
            )
            if chosen.kind == "nested-loop":
                # The nested loop reads the operands as given.
                profile.operands = (x_relation, y_relation)
                results, metrics = self._run_nested_loop(
                    operator, x_relation, y_relation
                )
            else:
                profile.operands = _in_entry_order(
                    chosen, x_relation, y_relation
                )
                args = (
                    chosen,
                    *profile.operands,
                    workspace_budget,
                    recovery,
                    report,
                )
                if chosen.kind == "parallel-stream":
                    outcome = self._run_parallel(*args, profile.details)
                else:
                    outcome = self._run_cell(*args)
                results, metrics = outcome.results, outcome.metrics
            profile.metrics = metrics
            return results, profile

    def _run_cell(
        self,
        alternative: Alternative,
        x_relation: Operand,
        y_relation: Operand,
        workspace_budget: Optional[int],
        recovery: RecoveryPolicy,
        report: ExecutionReport,
    ):
        """Run the chosen cell serially, operands as they are."""
        entry = _entry_of(alternative)
        return execute_entry(
            entry,
            x_relation,
            y_relation if entry.y_order is not None else None,
            backend=alternative.backend,
            policy=recovery,
            workspace_budget=workspace_budget,
            report=report,
        )

    def _run_parallel(
        self,
        alternative: Alternative,
        x_relation: Operand,
        y_relation: Operand,
        workspace_budget: Optional[int],
        recovery: RecoveryPolicy,
        report: ExecutionReport,
        details: dict,
    ):
        """Run the chosen cell through the time-domain parallel
        executor; the recovery ladder applies per shard.  The partition
        plan, the shard rows and the containment counters land in the
        profile's ``details``."""
        from ..parallel import execute_parallel

        entry = _entry_of(alternative)
        outcome = execute_parallel(
            entry,
            x_relation,
            y_relation if entry.y_order is not None else None,
            shards=alternative.workers,
            workers=alternative.workers,
            backend=alternative.backend,
            policy=recovery,
            workspace_budget=workspace_budget,
            report=report,
            mode=self.parallel_mode,
        )
        details.update(
            parallel=dict(
                outcome.plan.as_dict(),
                mode=outcome.mode,
                workers=outcome.workers,
            ),
            shard_runs=[run.as_dict() for run in outcome.shard_runs],
            containment=dict(outcome.containment),
        )
        return outcome

    def _run_nested_loop(
        self,
        operator: TemporalOperator,
        x_relation: Operand,
        y_relation: Operand,
    ):
        predicate = PREDICATES[operator]
        x_stream = stream_over(x_relation, "X")
        y_stream = stream_over(y_relation, "Y")
        if operator.shape == "semi":
            processor = NestedLoopSemijoin(x_stream, y_stream, predicate)
        else:
            processor = NestedLoopJoin(x_stream, y_stream, predicate)
        results = processor.run()
        return results, processor.metrics
