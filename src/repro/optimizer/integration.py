"""Stream algorithms inside declarative query plans.

The paper positions its stream processors as "additional strategies
that a query optimizer should consider".  This module is that
consideration, end to end: given a logical plan from the query
frontend, it recognises joins whose predicate *is* a temporal operator
over two range variables, evaluates those joins with the registry's
stream algorithms via the cost-based
:class:`~repro.optimizer.planner.TemporalJoinPlanner`, and evaluates
everything else conventionally.

Recognition reuses the semantic layer: the join predicate's temporal
conjuncts are matched against the thirteen Figure-2 constraints and the
TQuel general overlap under the intra-tuple background
(:func:`repro.semantic.recognize.recognize_allen`), so rephrased or
padded conditions are still recognised.

Row bridging is column-first: each side's two endpoint columns are read
straight off its row list and validated in bulk (:func:`_rows_to_columns`),
and the planner's operand *is* that
:class:`~repro.columnar.relation.IntervalColumns`, its payload the row
position.  Statistics, the sort (an argsort, skipped when the columns
are already in order) and the batch backends' drain all read the
columns, so a columnar or fused join builds no
:class:`~repro.model.tuples.TemporalTuple` at all; a consumer that is
tuple-at-a-time by nature (tuple backend, nested-loop winner, a
recovery rung that reads tuples) makes the operand build them once —
surrogate the row position, no value — so the stream operators (which
only inspect endpoints for the inequality operators) run unchanged.
The join's output comes back as an **index-pair relation**
(see :class:`_StreamJoin`): the two sides' rows plus two parallel
index columns, one entry per output pair in emission order.  The batch
backends hand over their kernels' positional index columns directly
(``index_columns()`` on the lazy join output — no payload pair is ever
built); the tuple backend and the nested-loop and spill fallbacks
return pairs, whose surrogates are the indexes
(:func:`~repro.resilience.executor.index_sides` decodes either).  Rows
are assembled late, by whoever consumes the join: the projection that
sits directly above it (every Quel ``retrieve`` produces one) gathers
only the columns it keeps, column-wise; any other parent iterates
concatenated rows.  Either way each output pair maps back to its original rows
losslessly — duplicates included.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from operator import add, itemgetter, lt
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..governance.budget import QueryBudget
    from ..resilience.recovery import ExecutionReport, RecoveryPolicy

from ..obs.trace import get_tracer

from ..algebra.logical import LJoin, LogicalPlan
from ..algebra.physical import Catalog, build_node, compile_plan
from ..allen.relations import AllenRelation
from ..allen.symbolic import Comparison, Endpoint, EndpointKind
from ..columnar.relation import IntervalColumns
from ..errors import PlanningError
from ..model.interval import Interval
from ..relational.expressions import Compare
from ..relational.operators import BinaryOperator, EngineStats, Operator
from ..relational.schema import Row, RowSchema
from ..resilience.executor import index_sides
from ..semantic.bridge import to_symbolic
from ..semantic.inequality_graph import ImplicationGraph
from ..semantic.recognize import GENERAL_OVERLAP, recognize_allen
from ..streams.registry import TemporalOperator
from .planner import TemporalJoinPlanner

#: Allen relation -> (registry operator, operands swapped?).  The
#: registry names operators from the containing/overlapping side.
_OPERATOR_FOR_RELATION = {
    AllenRelation.CONTAINS: (TemporalOperator.CONTAIN_JOIN, False),
    AllenRelation.DURING: (TemporalOperator.CONTAIN_JOIN, True),
    GENERAL_OVERLAP: (TemporalOperator.OVERLAP_JOIN, False),
    AllenRelation.BEFORE: (TemporalOperator.BEFORE_JOIN, False),
    AllenRelation.AFTER: (TemporalOperator.BEFORE_JOIN, True),
}


@dataclass
class StreamJoinInfo:
    """One join the hybrid executor ran through the stream engine."""

    operator: TemporalOperator
    swapped: bool
    chosen: str  # the planner alternative's description
    workspace_high_water: int
    output_rows: int
    #: Recovery policy the join ran under (``None`` = legacy mode).
    recovery: Optional[str] = None
    #: The chosen operator's full :class:`~repro.streams.metrics.
    #: ProcessorMetrics` (``None`` for nested-loop winners without one).
    metrics: Optional[object] = None
    #: Wall-clock seconds spent planning + executing this join.
    wall_seconds: float = 0.0
    #: Parallel execution details when the planner chose a sharded
    #: plan: the partition plan, the per-shard attempt table
    #: (``shard_runs``), and the containment counters — the audit
    #: record's source when the run was untraced.
    parallel: Optional[dict] = None


@dataclass
class HybridExecution:
    """Result of :func:`execute_hybrid`."""

    rows: list[Row]
    schema: RowSchema
    stats: EngineStats
    stream_joins: list[StreamJoinInfo] = field(default_factory=list)
    #: The resilience report shared by all stream joins of this plan
    #: (``None`` when executed without a recovery policy).
    execution_report: Optional[object] = None


def recognize_stream_join(
    join: LJoin,
) -> Optional[tuple[TemporalOperator, bool]]:
    """Does this join's predicate denote a registry temporal operator
    between its two sides?  Returns (operator, operands_swapped) or
    ``None``.

    Requirements: every conjunct converts to a timestamp comparison,
    the condition mentions exactly the two sides' variables (one
    each), and — under the intra-tuple background — it is equivalent
    to a supported Figure-2 operator.
    """
    comparisons: list[Comparison] = []
    for conjunct in join.predicate.conjuncts():
        if not isinstance(conjunct, Compare):
            return None
        symbolic = to_symbolic(conjunct)
        if symbolic is None:
            return None
        comparisons.append(symbolic)
    if not comparisons:
        return None
    variables: set[str] = set()
    for comparison in comparisons:
        variables |= comparison.variables()
    left_vars = join.left.variables()
    right_vars = join.right.variables()
    if len(variables) != 2:
        return None
    left_used = variables & left_vars
    right_used = variables & right_vars
    if len(left_used) != 1 or len(right_used) != 1:
        return None
    x_var = next(iter(left_used))
    y_var = next(iter(right_used))

    background = ImplicationGraph()
    for variable in (x_var, y_var):
        background.add_fact(
            Comparison.lt(
                Endpoint(variable, EndpointKind.TS),
                Endpoint(variable, EndpointKind.TE),
            )
        )
    from ..allen.symbolic import Conjunction

    label = recognize_allen(
        Conjunction(tuple(comparisons)), x_var, y_var, background
    )
    if label not in _OPERATOR_FOR_RELATION:
        return None
    return _OPERATOR_FOR_RELATION[label]


def execute_hybrid(
    plan: LogicalPlan,
    catalog: Catalog,
    planner: Optional[TemporalJoinPlanner] = None,
    recovery: Optional["RecoveryPolicy"] = None,
    report: Optional["ExecutionReport"] = None,
    parallelism: Optional[int] = None,
    budget: Optional["QueryBudget"] = None,
) -> HybridExecution:
    """Execute ``plan``, sending recognised temporal joins through the
    stream planner and everything else through the conventional
    engine.

    ``recovery``/``report`` select and record the resilience behaviour
    of the stream joins (see
    :meth:`~repro.optimizer.planner.TemporalJoinPlanner.execute`);
    conventional operators are unaffected.  ``parallelism`` caps the
    shard count of time-domain-partitioned stream plans (ignored when
    an explicit ``planner`` is given — configure that planner instead).
    ``budget`` runs the whole execution — stream and conventional
    operators alike — under a governance token built from that
    :class:`~repro.governance.QueryBudget`; when the caller already
    installed a token (e.g. ``run_query(deadline=...)``), the existing
    token governs and ``budget`` is ignored.
    """
    if budget is not None:
        from ..governance.budget import active_token, governed

        if active_token() is None:
            with governed(budget=budget):
                return execute_hybrid(
                    plan, catalog, planner, recovery, report, parallelism
                )
    stats = EngineStats()
    execution = HybridExecution(
        rows=[], schema=plan.schema(), stats=stats
    )
    if recovery is not None and report is None:
        from ..resilience.recovery import ExecutionReport

        report = ExecutionReport()
    execution.execution_report = report
    chooser = planner or TemporalJoinPlanner(parallelism=parallelism)
    joins: list[_StreamJoin] = []
    operator = _build(
        plan, catalog, stats, chooser, joins, recovery, report
    )
    execution.rows = operator.run()
    # Plan post-order (left subtree, right subtree, the join itself),
    # whichever side a conventional parent happened to drain first.
    execution.stream_joins = [join.info for join in joins]
    return execution


class _StreamJoin(BinaryOperator):
    """A recognised temporal join, run by the stream planner when its
    parent consumes it.

    The join's output is an index-pair relation (:meth:`_index_pairs`);
    how it becomes rows depends only on who asks.  A plain-attribute
    projection directly above calls :meth:`narrowed` and gets just its
    columns, gathered column-wise; any other parent iterates and gets
    concatenated rows, in the same emission order.  Every parent drains
    both its inputs, so :attr:`info` is set once the plan has run.
    """

    def __init__(
        self,
        schema: RowSchema,
        left: Operator,
        right: Operator,
        operator_kind: TemporalOperator,
        swapped: bool,
        planner: TemporalJoinPlanner,
        recovery=None,
        report=None,
    ) -> None:
        super().__init__(left, right, schema)
        self.operator_kind = operator_kind
        self.swapped = swapped
        self.info: Optional[StreamJoinInfo] = None
        self._planner = planner
        self._recovery = recovery
        self._report = report

    def __iter__(self) -> Iterator[Row]:
        return self._run(None)

    def narrowed(self, positions: Sequence[int]) -> Iterator[Row]:
        return self._run(positions)

    def _run(self, positions: Optional[Sequence[int]]) -> Iterator[Row]:
        left_rows = self.left.run()
        right_rows = self.right.run()
        tracer = get_tracer()
        with tracer.span(
            f"stream-join:{self.operator_kind.value}", swapped=self.swapped
        ) as span:
            with tracer.span(
                "bridge:rows-to-relation",
                rows=len(left_rows) + len(right_rows),
            ):
                left = _rows_to_columns(left_rows, self.left.schema)
                right = _rows_to_columns(right_rows, self.right.schema)
            left_side, right_side = self._index_pairs(
                (left, left_rows), (right, right_rows), span
            )
            with tracer.span(
                "bridge:assemble", late=positions is not None
            ) as assemble:
                if positions is None:
                    columns_gathered = len(self.schema)
                    assembly = _concatenated(left_side, right_side)
                else:
                    columns_gathered = len(set(positions))
                    assembly = _gathered(
                        left_side,
                        right_side,
                        len(self.left.schema),
                        positions,
                    )
                if tracer.enabled:
                    # A C-level iterator: run it to completion here, so
                    # the span times the work and not its creation.
                    rows = list(assembly)
                    assemble.set(
                        rows=len(rows), columns_gathered=columns_gathered
                    )
                    return iter(rows)
        return assembly

    def _index_pairs(self, left, right, span):
        """Plan and run the join over ``(columns, rows)`` sides;
        returns the ``(rows, index column)`` sides of its index-pair
        relation and records the :class:`StreamJoinInfo`, whose
        ``wall_seconds`` brackets plan + sort + sweep + index
        extraction — no row is assembled inside it."""
        x, y = (right, left) if self.swapped else (left, right)
        recovery = self._recovery
        started = time.perf_counter()
        results, profile = self._planner.execute(
            self.operator_kind,
            x[0],
            y[0],
            recovery=recovery,
            report=self._report,
        )
        x_side, y_side = index_sides(
            results, self.operator_kind.shape, x[1], y[1]
        )
        wall_seconds = time.perf_counter() - started
        self.info = StreamJoinInfo(
            operator=self.operator_kind,
            swapped=self.swapped,
            chosen=profile.chosen.describe(),
            workspace_high_water=(
                profile.metrics.workspace_high_water
                if profile.metrics
                else 0
            ),
            output_rows=len(results),
            recovery=recovery.value if recovery is not None else None,
            metrics=profile.metrics,
            wall_seconds=wall_seconds,
            parallel=_parallel_details(profile.details),
        )
        # The operands as given and as the winner read them (the same
        # object where no sort was planned).
        operands = {id(o): o for o in (x[0], y[0], *profile.operands)}
        span.set(
            output_rows=len(results),
            tuples_built=sum(o.tuples_built for o in operands.values()),
            sorted=any(
                not isinstance(o.payload, range) for o in profile.operands
            ),
        )
        return (y_side, x_side) if self.swapped else (x_side, y_side)

    def describe(self) -> str:
        return f"StreamJoin({self.operator_kind.value})"


def _build(
    plan: LogicalPlan,
    catalog: Catalog,
    stats: EngineStats,
    planner: TemporalJoinPlanner,
    joins: list[_StreamJoin],
    recovery=None,
    report=None,
) -> Operator:
    if not plan.children():
        return compile_plan(plan, catalog, stats)
    built_children = [
        _build(child, catalog, stats, planner, joins, recovery, report)
        for child in plan.children()
    ]
    recognised = (
        recognize_stream_join(plan) if isinstance(plan, LJoin) else None
    )
    if recognised is None:
        return build_node(plan, built_children)
    operator_kind, swapped = recognised
    join = _StreamJoin(
        plan.schema(),
        *built_children,
        operator_kind,
        swapped,
        planner,
        recovery,
        report,
    )
    joins.append(join)
    return join


def _rows_to_columns(rows: list[Row], schema: RowSchema) -> IntervalColumns:
    """Rows -> their two endpoint columns, payload the row position.

    Projection pushdown may have pruned an endpoint the recognised
    operator never reads (Before/After mention only one endpoint per
    side); the missing one is synthesised one timepoint away so the
    interval is well-formed, without affecting the operator's
    predicate.

    The columns are validated in bulk, at C level.  Only when that
    fails does a second pass visit the rows one by one, so the first
    offending row raises exactly what building its
    :class:`~repro.model.tuples.TemporalTuple` would have.
    """
    variable = _variable_of_schema(schema)
    from_name = f"{variable}.ValidFrom"
    to_name = f"{variable}.ValidTo"
    has_from, has_to = from_name in schema, to_name in schema
    if not has_from and not has_to:
        raise PlanningError(
            f"neither endpoint of {variable!r} survives in the schema"
        )

    def column(name: str) -> list:
        return list(map(itemgetter(schema.index_of(name)), rows))

    starts = column(from_name) if has_from else None
    ends = column(to_name) if has_to else [start + 1 for start in starts]
    if starts is None:
        starts = [end - 1 for end in ends]
    try:
        ts, te = array("q", starts), array("q", ends)
        well_formed = all(map(lt, ts, te)) and (
            {*map(type, starts), *map(type, ends)} <= {int}
        )
    except (TypeError, OverflowError):
        well_formed = False
    if not well_formed:
        for start, end in zip(starts, ends):
            Interval(start, end)  # raises on the first offending row
        ts, te = array("q", starts), array("q", ends)  # int subclasses
    return IntervalColumns(ts, te, range(len(rows)), None)


def _concatenated(left_side, right_side) -> Iterator[Row]:
    """Index-pair relation -> whole rows, left columns then right."""
    (left_rows, left_index), (right_rows, right_index) = left_side, right_side
    return map(
        add,
        map(left_rows.__getitem__, left_index),
        map(right_rows.__getitem__, right_index),
    )


def _gathered(
    left_side, right_side, left_width: int, positions: Sequence[int]
) -> Iterator[Row]:
    """Index-pair relation -> rows of just ``positions`` (of the
    concatenated schema): each column is read off its side's rows once
    (|side| work), then looked up per output pair and zipped."""
    columns: dict[int, list] = {}
    lookups = []
    for position in positions:
        if position < left_width:
            (rows, index), offset = left_side, position
        else:
            (rows, index), offset = right_side, position - left_width
        column = columns.get(position)
        if column is None:
            column = columns[position] = list(map(itemgetter(offset), rows))
        lookups.append(map(column.__getitem__, index))
    return zip(*lookups)


def _parallel_details(details: dict) -> Optional[dict]:
    """The parallel slice of an execution profile, or ``None`` for a
    serial plan — carried on :class:`StreamJoinInfo` so the audit layer
    sees the shard attempt table without re-parsing the trace."""
    if "parallel" not in details:
        return None
    out = {
        "plan": details["parallel"],
        "shard_runs": details.get("shard_runs") or [],
    }
    if details.get("containment"):
        out["containment"] = details["containment"]
    return out


def _variable_of_schema(schema: RowSchema) -> str:
    variables = {
        attribute.partition(".")[0]
        for attribute in schema.attributes
        if "." in attribute
    }
    if len(variables) != 1:
        raise PlanningError(
            "stream join sides must carry exactly one range variable; "
            f"schema has {sorted(variables)}"
        )
    return next(iter(variables))
