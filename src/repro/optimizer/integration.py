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

The bridge is column-first from the leaf to the projection.  A stream
join consumes both children column-wise
(:meth:`~repro.relational.operators.Operator.batch`): under a Quel
``retrieve`` that is a scan, the pushed-down plain projection and
perhaps a selection, none of which builds a row — the scan answers
with the columns its :class:`~repro.model.relation.TemporalRelation`
memoises.  The planner's operand is a per-query
:class:`~repro.columnar.relation.IntervalColumns` over each side's two
endpoint columns (:func:`_operand`), its payload the row position.
Endpoint columns that arrive untouched from a scan are validated,
summarised and put in each sort order once per relation — the arrays,
the statistics and the sorted views are memoised on it and shared,
read-only, by every query.  A selection below the join keeps the
relation and names the rows it kept: its operand is those rows of the
relation's, summarised per query and sorted by filtering the relation's
kept view.  Any other columns (a pruned endpoint, a join below the
join) are validated in bulk and sorted per query.  The sort (an
argsort, skipped when the columns are already in order) and the batch
backend's drain read the columns too, so a batch-backend join
builds no :class:`~repro.model.tuples.TemporalTuple` at all; a
consumer that is
tuple-at-a-time by nature (tuple backend, nested-loop winner, a
recovery rung that reads tuples) makes the operand build them once —
surrogate the row position, no value — so the stream operators (which
only inspect endpoints for the inequality operators) run unchanged.
The join's output comes back as an **index-pair relation**
(see :class:`_StreamJoin`): per side, the order the kernel read it in
and an index column, one entry per output pair in emission order.  The
batch backends hand over their kernels' positional index columns
directly (``index_columns()`` on the lazy join output — no payload pair
is ever built); the tuple backend, a nested-loop winner and the spill
return pairs, whose surrogates are the indexes
(:func:`~repro.resilience.executor.index_sides` decodes either).  Rows
are assembled late, from the children's columns gathered eagerly, one
call per column (:func:`_gathered`, one C-level
:func:`~repro.columns.gather` each), then zipped: the projection
directly above the join (every Quel ``retrieve`` produces one) asks
for only the columns it keeps, any other parent for all of them, and a
stream join above takes the gathered columns unzipped.  Either way
each output pair maps back to its original rows losslessly —
duplicates included.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from operator import lt
from typing import Iterator, Optional, Sequence

from ..obs.trace import get_tracer

from ..algebra.logical import LJoin, LogicalPlan
from ..algebra.physical import Catalog, build_node, compile_plan
from ..allen.relations import AllenRelation
from ..allen.symbolic import Comparison, Conjunction, Endpoint, EndpointKind
from ..columnar.relation import IntervalColumns
from ..columns import gather
from ..errors import ExecutionError, PlanningError
from ..model.interval import Interval
from ..model.relation import TemporalRelation
from ..relational.expressions import Compare
from ..relational.operators import Batch, BinaryOperator, EngineStats, Operator
from ..relational.schema import Row, RowSchema
from ..resilience.executor import index_sides
from ..resilience.recovery import ExecutionReport, RecoveryPolicy
from ..semantic.bridge import to_symbolic
from ..semantic.inequality_graph import ImplicationGraph
from ..semantic.recognize import GENERAL_OVERLAP, recognize_allen
from ..stats.estimators import collect_statistics
from ..streams.metrics import ProcessorMetrics
from ..streams.registry import TemporalOperator
from .planner import ExecutionProfile, TemporalJoinPlanner

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
    """One join the hybrid executor ran through the stream engine — the
    join row.  It keeps the planner's profile of the run, so whatever is
    said about the join is read off that, not copied out of it."""

    operator: TemporalOperator
    swapped: bool
    #: Ranked alternatives (the chosen one first) with their cost
    #: breakdowns, the measured operator row and, under ``details``,
    #: the recovery policy and report and a sharded plan's partition,
    #: shard rows and containment counters.
    profile: ExecutionProfile
    output_rows: int
    #: Wall-clock seconds spent planning + executing this join.
    wall_seconds: float = 0.0
    #: What the operands went through on the way in: the
    #: ``TemporalTuple``s built from their endpoint columns, whether the
    #: winner read one through an argsort's permutation, and how many
    #: (0-2) were answered from an order their relation kept from an
    #: earlier query.
    tuples_built: int = 0
    sorted: bool = False
    orders_reused: int = 0

    @property
    def chosen(self) -> str:
        return self.profile.chosen.describe()

    @property
    def recovery(self) -> str:
        """The recovery policy the join ran under, by name."""
        return self.profile.details["recovery"]

    @property
    def execution_report(self) -> ExecutionReport:
        """What the resilience layer did in this join, and only here."""
        return self.profile.details["execution_report"]

    @property
    def metrics(self) -> ProcessorMetrics:
        return self.profile.metrics

    @property
    def workspace_high_water(self) -> int:
        return self.metrics.workspace_high_water

    @property
    def parallel(self) -> Optional[dict]:
        """The partition plan of a sharded run; ``None`` for a serial
        one."""
        return self.profile.details.get("parallel")

    def as_dict(self) -> dict:
        """The join row's one dict form (the audit record's)."""
        details = self.profile.details
        return {
            "operator": self.operator.value,
            "swapped": self.swapped,
            "chosen": self.chosen,
            "output_rows": self.output_rows,
            "recovery": self.recovery,
            "wall_seconds": round(self.wall_seconds, 6),
            "tuples_built": self.tuples_built,
            "sorted": self.sorted,
            "orders_reused": self.orders_reused,
            "metrics": self.metrics.to_dict(),
            "alternatives": [
                alternative.as_dict()
                for alternative in self.profile.alternatives
            ],
            "parallel": self.parallel,
            "containment": details.get("containment") or None,
            "shards": details.get("shard_runs", []),
        }


@dataclass
class HybridExecution:
    """Result of :func:`execute_hybrid`."""

    rows: list[Row]
    schema: RowSchema
    stats: EngineStats
    stream_joins: list[StreamJoinInfo] = field(default_factory=list)
    #: What the resilience layer did across the plan: the merge of the
    #: stream joins' own reports.
    execution_report: ExecutionReport = field(
        default_factory=ExecutionReport
    )


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
    recovery: RecoveryPolicy = RecoveryPolicy.STRICT,
    parallelism: Optional[int] = None,
) -> HybridExecution:
    """Execute ``plan``, sending recognised temporal joins through the
    stream planner and everything else through the conventional
    engine.

    ``recovery`` selects the resilience behaviour of the stream joins
    (see :meth:`~repro.optimizer.planner.TemporalJoinPlanner.execute`);
    conventional operators are unaffected.  Each join records into its
    own report; the result's ``execution_report`` is their merge.
    ``parallelism`` caps the shard count of time-domain-partitioned
    stream plans (ignored when an explicit ``planner`` is given —
    configure that planner instead).  Governance is the caller's
    installed token, if any (``run_query(budget=...)``).
    """
    stats = EngineStats()
    execution = HybridExecution(
        rows=[], schema=plan.schema(), stats=stats
    )
    chooser = planner or TemporalJoinPlanner(parallelism=parallelism)
    joins: list[_StreamJoin] = []
    operator = _build(plan, catalog, stats, chooser, joins, recovery)
    execution.rows = operator.run()
    # Plan post-order (left subtree, right subtree, the join itself),
    # whichever side a conventional parent happened to drain first.
    execution.stream_joins = [join.info for join in joins]
    for info in execution.stream_joins:
        execution.execution_report.absorb(info.execution_report)
    return execution


class _StreamJoin(BinaryOperator):
    """A recognised temporal join, run by the stream planner when its
    parent consumes it.

    The join's output is an index-pair relation (:meth:`_index_pairs`);
    how it becomes rows depends only on who asks.  A plain-attribute
    projection directly above calls :meth:`narrowed` and gets just its
    columns, gathered column-wise; any other parent iterates and gets
    every column, and a stream join (:meth:`batch`) gets them unzipped
    — all in the same emission order.  Every parent drains both its
    inputs, so :attr:`info` is set once the plan has run.
    """

    def __init__(
        self,
        plan: LJoin,
        left: Operator,
        right: Operator,
        operator_kind: TemporalOperator,
        swapped: bool,
        planner: TemporalJoinPlanner,
        recovery: RecoveryPolicy,
    ) -> None:
        super().__init__(left, right, plan.schema())
        #: The range variables the predicate relates, one per side (a
        #: side that is itself a join carries others too).
        self._variables = {
            name.partition(".")[0] for name in plan.predicate.attributes()
        }
        self.operator_kind = operator_kind
        self.swapped = swapped
        self.info: Optional[StreamJoinInfo] = None
        self._planner = planner
        self._recovery = recovery

    def __iter__(self) -> Iterator[Row]:
        return self._run(range(len(self.schema)), late=False)

    def narrowed(self, positions: Sequence[int]) -> Iterator[Row]:
        return self._run(positions, late=True)

    def batch(self) -> Batch:
        return self._run(range(len(self.schema)), late=False, rows=False)

    def _run(self, positions: Sequence[int], late: bool, rows: bool = True):
        """The output cut down to ``positions``: an iterator of rows,
        or (``rows=False``) the gathered columns themselves."""
        left = self.left.batch()
        right = self.right.batch()
        tracer = get_tracer()
        with tracer.span(f"stream-join:{self.operator_kind.value}"):
            with tracer.span(
                "bridge:rows-to-relation", rows=left.length + right.length
            ):
                operands = (
                    _operand(left, self.left.schema, self._variables),
                    _operand(right, self.right.schema, self._variables),
                )
            left_side, right_side = self._index_pairs(*operands)
            with tracer.span("bridge:assemble", late=late) as assemble:
                gathered = _gathered(
                    (left, *left_side), (right, *right_side), positions
                )
                if not rows:
                    out = Batch(gathered, len(left_side[1]))
                elif tracer.enabled:
                    # The zip is lazy: run it to completion here, so the
                    # span times the work and not its creation.
                    out = iter(list(zip(*gathered)))
                else:
                    out = zip(*gathered)
                assemble.set(
                    rows=len(left_side[1]),
                    columns_gathered=len(set(positions)),
                )
        return out

    def _index_pairs(self, left, right):
        """Plan and run the join over the two sides' operands; returns
        the ``(order, index column)`` sides of its index-pair relation
        — output ``k`` is position ``order[index[k]]`` of that side's
        batch columns, or ``index[k]`` where ``order`` is ``None`` — and
        records the :class:`StreamJoinInfo`, whose ``wall_seconds``
        brackets plan + sort + sweep + index extraction — no row is
        assembled inside it."""
        x, y = (right, left) if self.swapped else (left, right)
        # The orders each relation had kept before this run.
        known = [set((o.selected_from or o).orders or ()) for o in (x, y)]
        started = time.perf_counter()
        results, profile = self._planner.execute(
            self.operator_kind, x, y, recovery=self._recovery
        )
        x_side, y_side = index_sides(results, self.operator_kind.shape)
        wall_seconds = time.perf_counter() - started
        # The operands as given and as the winner read them (the same
        # object where no sort was planned).
        operands = {id(o): o for o in (x, y, *profile.operands)}
        self.info = StreamJoinInfo(
            operator=self.operator_kind,
            swapped=self.swapped,
            profile=profile,
            output_rows=len(results),
            wall_seconds=wall_seconds,
            tuples_built=sum(o.tuples_built for o in operands.values()),
            sorted=any(
                o.payload is not given.payload
                and not isinstance(o.payload, range)
                for o, given in zip(profile.operands, (x, y))
            ),
            orders_reused=sum(
                o.order in seen for o, seen in zip(profile.operands, known)
            ),
        )
        # The join row outlives the query; its operands must not.
        profile.operands = ()
        return (y_side, x_side) if self.swapped else (x_side, y_side)

    def describe(self) -> str:
        return f"StreamJoin({self.operator_kind.value})"


def _build(
    plan: LogicalPlan,
    catalog: Catalog,
    stats: EngineStats,
    planner: TemporalJoinPlanner,
    joins: list[_StreamJoin],
    recovery: RecoveryPolicy,
) -> Operator:
    if not plan.children():
        return compile_plan(plan, catalog, stats)
    built_children = [
        _build(child, catalog, stats, planner, joins, recovery)
        for child in plan.children()
    ]
    recognised = (
        recognize_stream_join(plan) if isinstance(plan, LJoin) else None
    )
    if recognised is None:
        return build_node(plan, built_children)
    operator_kind, swapped = recognised
    join = _StreamJoin(
        plan,
        *built_children,
        operator_kind,
        swapped,
        planner,
        recovery,
    )
    joins.append(join)
    return join


def _operand(
    batch: Batch, schema: RowSchema, related: set[str]
) -> IntervalColumns:
    """One side's two endpoint columns — those of the one variable of
    ``related`` (the join predicate's two) that its schema carries — as
    the planner's operand, payload each row's position in the batch's
    columns.

    Projection pushdown may have pruned an endpoint the recognised
    operator never reads (Before/After mention only one endpoint per
    side); the missing one is synthesised one timepoint away so the
    interval is well-formed, without affecting the operator's
    predicate.

    Endpoint columns that are still a relation's own (nothing since
    the scan touched a row) are the relation's operand
    (:func:`_relation_operand`).  A selection's are some rows of them:
    its operand is those rows of the relation's (``selected_from``), so
    it is sorted by filtering the relation's kept view, summarised over
    the rows kept and, like any undeclared operand, priced as a sort.
    The operand is per query, so the tuples a tuple-at-a-time consumer
    builds on it are not shared.
    """
    variable = _variable_of_schema(schema, related)
    starts, ends = (
        batch.columns[schema.index_of(name)] if name in schema else None
        for name in (f"{variable}.ValidFrom", f"{variable}.ValidTo")
    )
    if starts is None and ends is None:
        raise PlanningError(
            f"neither endpoint of {variable!r} survives in the schema"
        )
    relation, rows = batch.relation, batch.selection
    whole = None
    if relation is not None:
        # A bad row a selection drops must not fail the query.
        whole = _relation_operand(relation, starts, ends, rows is None)
    if rows is not None:
        # Gathered from the relation's lists, not its arrays: no int is
        # boxed.
        starts, ends = (
            None if column is None else gather(column, rows)
            for column in (starts, ends)
        )
    if whole is not None:
        if rows is None:
            return whole
        operand = IntervalColumns(starts, ends, rows, None)
        operand.selected_from = whole
        return operand
    if ends is None:
        ends = [start + 1 for start in starts]
    if starts is None:
        starts = [end - 1 for end in ends]
    return IntervalColumns(
        *_validated(starts, ends),
        range(batch.length) if rows is None else rows,
        None,
    )


def _relation_operand(
    relation: TemporalRelation, starts: Sequence, ends: Sequence, strict: bool
) -> Optional[IntervalColumns]:
    """The operand over ``relation``'s own endpoint columns, if
    ``starts``/``ends`` are they: validated, summarised and sorted once,
    on the relation, whose declared order it carries.  ``None`` when
    they are not — or, unless ``strict``, when a row fails validation
    (the caller then validates only the rows it reads)."""
    _, _, own_starts, own_ends = relation.columns()
    if starts is not own_starts or ends is not own_ends:
        return None
    if relation.endpoints is None:
        relation.endpoints = (_validated if strict else _int64)(starts, ends)
        if relation.endpoints is None:
            return None
    operand = IntervalColumns(*relation.endpoints, range(len(relation)), None)
    # A declared order is a claim the stream layer checks: one with a
    # non-endpoint key (no column) stays undeclared.
    order = relation.order
    if order is not None and operand._key_columns(order) is not None:
        operand.order = order
    operand.statistics = collect_statistics(relation)
    operand.orders = relation.orders
    return operand


def _int64(starts: Sequence, ends: Sequence) -> Optional[tuple[array, array]]:
    """Two endpoint columns as int64 arrays, validated in bulk, at C
    level; ``None`` when some row is not a well-formed interval of
    plain ints."""
    try:
        ts, te = array("q", starts), array("q", ends)
    except (TypeError, OverflowError):
        return None
    well_formed = all(map(lt, ts, te)) and (
        {*map(type, starts), *map(type, ends)} <= {int}
    )
    return (ts, te) if well_formed else None


def _validated(starts: Sequence, ends: Sequence) -> tuple[array, array]:
    """:func:`_int64`, or — only when that fails — a second pass over
    the rows one by one, so the first offending row raises exactly what
    building its :class:`~repro.model.tuples.TemporalTuple` would have —
    or, for an endpoint the model admits and an int64 column cannot
    hold, an :class:`~repro.errors.ExecutionError` naming the row and
    value."""
    arrays = _int64(starts, ends)
    if arrays is None:
        for row, (start, end) in enumerate(zip(starts, ends)):
            Interval(start, end)  # raises on the first offending row
            for endpoint in (start, end):
                if not -(2**63) <= endpoint < 2**63:
                    raise ExecutionError(
                        f"row {row}: endpoint {endpoint} is outside the "
                        "stream engine's int64 time domain"
                    )
        arrays = array("q", starts), array("q", ends)  # int subclasses
    return arrays


def _gathered(left_side, right_side, positions: Sequence[int]) -> list:
    """Index-pair relation -> one gathered column per entry of
    ``positions`` (of the concatenated schema), eager, one call per
    column.  A side is ``(batch, order, index)``: each column asked for
    is put in the kernel's order once (|side| work, none when nothing
    moved the rows: ``order`` is ``None``) and kept beside ``order``
    when that is one of its relation's kept permutations, then read at
    every output pair's ``index`` entry by one :func:`gather`.  A
    position asked for twice shares its column."""
    columns = left_side[0].columns + right_side[0].columns
    gathered: dict[int, tuple] = {}
    for position in positions:
        if position in gathered:
            continue
        in_left = position < len(left_side[0].columns)
        batch, order, index = left_side if in_left else right_side
        column = columns[position]
        if order is not None:
            relation = batch.relation
            views = () if relation is None else relation.orders.values()
            kept = next(
                (v.gathered for v in views if v.permutation is order), {}
            )
            if id(column) not in kept:
                kept[id(column)] = list(gather(column, order))
            column = kept[id(column)]
        gathered[position] = gather(column, index)
    return [gathered[position] for position in positions]


def _variable_of_schema(schema: RowSchema, related: set[str]) -> str:
    variables = related & {
        attribute.partition(".")[0] for attribute in schema.attributes
    }
    if len(variables) != 1:
        raise PlanningError(
            "a stream join side must carry exactly one of the range "
            f"variables its predicate relates; schema has {sorted(variables)}"
        )
    return next(iter(variables))
