"""Compile logical plans to conventional physical operators.

This is the "conventional relational query processor" of Section 3:
joins with an equality conjunct become hash joins, other joins fall
back to nested loops (the paper: "traditionally, the best strategy for
processing less-than joins appears to be the conventional nested-loop
join method").  Stream-algorithm selection is the *optimizer's* job
(:mod:`repro.optimizer`); this module is deliberately conventional.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..errors import PlanningError
from ..model.relation import TemporalRelation
from ..relational.expressions import And, Attr, Compare
from ..relational.operators import (
    CrossProduct,
    Distinct,
    EngineStats,
    HashEquiJoin,
    Operator,
    Project,
    RowSemijoin,
    Select,
    ThetaNestedLoopJoin,
    temporal_scan,
)
from .logical import (
    LDistinct,
    LJoin,
    LogicalPlan,
    LProduct,
    LProject,
    LSelect,
    LSemijoin,
    Rel,
)

Catalog = Mapping[str, TemporalRelation]
"""Relation name -> temporal relation instance."""


def compile_plan(
    plan: LogicalPlan,
    catalog: Catalog,
    stats: Optional[EngineStats] = None,
) -> Operator:
    """Build the physical operator tree for ``plan``."""
    shared = stats if stats is not None else EngineStats()
    return _compile(plan, catalog, shared)


def _compile(
    plan: LogicalPlan, catalog: Catalog, stats: EngineStats
) -> Operator:
    if isinstance(plan, Rel):
        try:
            relation = catalog[plan.relation_name]
        except KeyError:
            raise PlanningError(
                f"catalog has no relation named {plan.relation_name!r}"
            ) from None
        return temporal_scan(relation, plan.variable, stats=stats)
    return build_node(
        plan, [_compile(child, catalog, stats) for child in plan.children()]
    )


def build_node(
    plan: LogicalPlan, built_children: Sequence[Operator]
) -> Operator:
    """The conventional operator for one non-leaf logical node, over
    its already-built children — the one place relational nodes are
    chosen; the hybrid executor builds its non-stream nodes here too."""
    if isinstance(plan, LDistinct):
        return Distinct(*built_children)
    if isinstance(plan, LSelect):
        return Select(*built_children, plan.predicate)
    if isinstance(plan, LProject):
        return Project(*built_children, list(plan.items))
    if isinstance(plan, LProduct):
        return CrossProduct(*built_children)
    if isinstance(plan, LJoin):
        equality = _splittable_equality(plan)
        if equality is not None:
            left_attr, right_attr, residual = equality
            return HashEquiJoin(
                *built_children, left_attr, right_attr, residual=residual
            )
        return ThetaNestedLoopJoin(*built_children, plan.predicate)
    if isinstance(plan, LSemijoin):
        return RowSemijoin(*built_children, plan.predicate)
    raise PlanningError(f"cannot compile logical node {plan!r}")


def _splittable_equality(plan: LJoin):
    """Find an attr = attr conjunct spanning both sides; return
    ``(left_attr, right_attr, residual_predicate_or_None)``."""
    left_attrs = frozenset(plan.left.schema().attributes)
    right_attrs = frozenset(plan.right.schema().attributes)
    conjuncts = list(plan.predicate.conjuncts())
    for index, conjunct in enumerate(conjuncts):
        if not isinstance(conjunct, Compare) or not conjunct.is_equality:
            continue
        if not (
            isinstance(conjunct.left, Attr)
            and isinstance(conjunct.right, Attr)
        ):
            continue
        a, b = conjunct.left.name, conjunct.right.name
        if a in left_attrs and b in right_attrs:
            left_attr, right_attr = a, b
        elif b in left_attrs and a in right_attrs:
            left_attr, right_attr = b, a
        else:
            continue
        rest = conjuncts[:index] + conjuncts[index + 1 :]
        residual = And.of(*rest) if rest else None
        return left_attr, right_attr, residual
    return None
