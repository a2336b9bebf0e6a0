"""The Superstar query, end to end, three ways.

*Superstar*: "Who got promoted from assistant to full professor while at
least one other faculty remained at the associate rank?"  The query is
the paper's running example; this module implements the three
evaluation strategies the paper contrasts and reports comparable
metrics for each:

1. :func:`conventional_superstar` — Section 3: parse the Quel-like
   query, desugar the ``overlap`` operators, push selections and
   projections (Figure 3(b)), and evaluate with conventional operators
   — a hash equi-join plus a **nested-loop less-than join**.  The
   Faculty relation is scanned three times.

2. :func:`stream_superstar` — Section 4: evaluate both ``overlap``
   conditions with single-pass **stream Overlap-joins** on
   ValidFrom-sorted inputs, then match the two witness sets.  Faculty
   is still referenced three times (once per rank selection), but each
   temporal condition costs one bounded-workspace pass instead of a
   quadratic loop.

3. :func:`semantic_superstar` — Section 5: with the chronological
   ordering and continuous-employment constraints the less-than join
   *is* a Contained-semijoin of the associate periods against
   themselves (Figure 8(b)), answered by the **single-scan,
   one-state-tuple self-semijoin** of Section 4.2.3.

The conventional and stream strategies return the same :class:`Stars`
rows with the same multiplicities (one row per witnessing ``f3``, as
the Quel query's bag semantics gives); the semantic one returns the
same rows once each, and so does :func:`planned_superstar` whichever
strategy it picks.  :func:`all_strategies` verifies both.  The
semantic strategy additionally *derives* its own applicability from
the declared constraints via :func:`repro.semantic.semantically_optimize`
— see :func:`semantic_transformation_applies`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Tuple

from ..algebra import compile_plan, optimize
from ..model.constraints import ContinuousLifespan, FirstValue
from ..model.relation import TemporalRelation
from ..model.sortorder import TS_ASC, SortOrder
from ..query import parse_query, translate
from ..relational.operators import EngineStats
from ..semantic import semantically_optimize
from ..streams import (
    OverlapJoin,
    SelfContainedSemijoin,
    TupleStream,
)

#: The paper's Quel formulation (Section 3).
SUPERSTAR_QUEL = """
range of f1 is Faculty
range of f2 is Faculty
range of f3 is Faculty
retrieve into Stars (Name = f1.Name, ValidFrom = f1.ValidFrom,
                     ValidTo = f2.ValidTo)
where f3.Rank = "Associate" and f1.Name = f2.Name
  and f1.Rank = "Assistant" and f2.Rank = "Full"
  and (f1 overlap f3) and (f2 overlap f3)
"""

StarRow = Tuple[object, int, int]
"""One Stars tuple: (Name, f1.ValidFrom, f2.ValidTo)."""


@dataclass
class StrategyResult:
    """Stars rows plus the execution profile of one strategy."""

    strategy: str
    #: The Stars rows as a multiset: row -> how many (f1, f2, f3)
    #: bindings derive it.  ``len(rows)`` counts distinct superstars.
    rows: "Counter[StarRow]"
    #: Scans of the Faculty relation (logical references that touched
    #: every tuple).
    faculty_scans: int
    #: Join-condition evaluations performed.
    comparisons: int
    #: Peak state tuples held by temporal operators (0 for plans whose
    #: temporal work is nested loops).
    workspace_high_water: int
    #: Free-form extras (sorts performed, operator metrics...).
    details: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# strategy 1: conventional (Section 3)
# ----------------------------------------------------------------------
def conventional_superstar(
    faculty: TemporalRelation, use_rewrites: bool = True
) -> StrategyResult:
    """Parse, desugar, (optionally) rewrite, and run conventionally."""
    catalog = {"Faculty": faculty}
    plan = translate(parse_query(SUPERSTAR_QUEL), catalog)
    if use_rewrites:
        plan = optimize(plan)
    stats = EngineStats()
    rows = Counter(compile_plan(plan, catalog, stats).run())
    return StrategyResult(
        strategy="conventional" if use_rewrites else "conventional-raw",
        rows=rows,
        faculty_scans=stats.scans_started,
        comparisons=stats.comparisons,
        workspace_high_water=0,
        details={"rows_materialized": stats.rows_materialized},
    )


# ----------------------------------------------------------------------
# strategy 2: stream overlap joins (Section 4)
# ----------------------------------------------------------------------
def stream_superstar(faculty: TemporalRelation) -> StrategyResult:
    """Evaluate each desugared ``overlap`` with a single-pass stream
    Overlap-join, then match the witness sets."""
    assistants = faculty.where_value("Assistant").sorted_by(TS_ASC)
    fulls = faculty.where_value("Full").sorted_by(TS_ASC)
    associates = faculty.where_value("Associate").sorted_by(TS_ASC)

    join_a = OverlapJoin(
        TupleStream.from_relation(assistants, name="f1"),
        TupleStream.from_relation(associates, name="f3"),
    )
    assistant_witnesses = join_a.run()
    join_b = OverlapJoin(
        TupleStream.from_relation(fulls, name="f2"),
        TupleStream.from_relation(associates, name="f3"),
    )
    full_witnesses = join_b.run()

    # Match: same witness f3, same faculty name on the f1/f2 side.
    by_witness: dict = {}
    for f1, f3 in assistant_witnesses:
        by_witness.setdefault(f3, {}).setdefault(f1.surrogate, []).append(f1)
    rows: Counter = Counter()
    comparisons = join_a.metrics.comparisons + join_b.metrics.comparisons
    for f2, f3 in full_witnesses:
        comparisons += 1
        for f1 in by_witness.get(f3, {}).get(f2.surrogate, ()):
            rows[(f1.surrogate, f1.valid_from, f2.valid_to)] += 1
    return StrategyResult(
        strategy="stream-overlap",
        rows=rows,
        faculty_scans=3,  # one selection scan per rank
        comparisons=comparisons,
        workspace_high_water=max(
            join_a.metrics.workspace_high_water,
            join_b.metrics.workspace_high_water,
        ),
        details={
            "sorts": 3,
            "overlap_a": join_a.metrics,
            "overlap_b": join_b.metrics,
        },
    )


# ----------------------------------------------------------------------
# strategy 3: semantic single-scan Contained-semijoin (Section 5)
# ----------------------------------------------------------------------
def semantic_assumptions_hold(faculty: TemporalRelation) -> bool:
    """The Section-5 strengthening under which the single-scan plan is
    valid: continuous employment, everyone hired as assistant, and (so
    that every associate period ends with a promotion) every career
    that reaches Associate also reaches Full."""
    declared = faculty.constraints
    if not declared.find(ContinuousLifespan) or not declared.find(FirstValue):
        return False
    for history in faculty.group_by_surrogate().values():
        values = [t.value for t in history]
        if "Associate" in values and "Full" not in values:
            return False
    return True


def semantic_transformation_applies(faculty: TemporalRelation) -> bool:
    """Ask the semantic optimizer itself whether the Superstar
    less-than join reduces to a derived-interval containment with a
    provably non-empty derived interval (Figure 8)."""
    catalog = {"Faculty": faculty}
    plan = optimize(translate(parse_query(SUPERSTAR_QUEL), catalog))
    _rewritten, report = semantically_optimize(plan, catalog)
    return any(c.strict for c in report.containments())


def semantic_superstar(faculty: TemporalRelation) -> StrategyResult:
    """One scan of Faculty + the Section-4.2.3 self semijoin.

    The scan simultaneously extracts the associate tuples (the
    semijoin operand) and, per faculty member, the assistant-period
    start and full-period end needed to rebuild the Stars projection.
    A semijoin asks whether a witness exists, not how many there are,
    so each superstar comes out once.
    """
    associate_order = SortOrder.by_ts(secondary_te=True)
    associates = []
    career_start: dict = {}
    career_end: dict = {}
    for tup in faculty:  # the single scan
        if tup.value == "Associate":
            associates.append(tup)
        elif tup.value == "Assistant":
            career_start[tup.surrogate] = tup.valid_from
        elif tup.value == "Full":
            career_end[tup.surrogate] = tup.valid_to

    from ..model.sortorder import sort_tuples

    stream = TupleStream.from_tuples(
        sort_tuples(associates, associate_order),
        order=associate_order,
        name="associates",
    )
    semijoin = SelfContainedSemijoin(stream)
    stars = semijoin.run()
    rows = Counter(
        {
            (t.surrogate, career_start[t.surrogate], career_end[t.surrogate])
            for t in stars
            if t.surrogate in career_start and t.surrogate in career_end
        }
    )
    return StrategyResult(
        strategy="semantic-self-semijoin",
        rows=rows,
        faculty_scans=1,
        comparisons=semijoin.metrics.comparisons,
        workspace_high_water=semijoin.metrics.workspace_high_water,
        details={"sorts": 1, "semijoin": semijoin.metrics},
    )


def planned_superstar(faculty: TemporalRelation) -> StrategyResult:
    """Let the optimizer pipeline choose the strategy.

    Whichever strategy runs, each superstar comes out once: the
    semantic self semijoin asks whether a witness exists and cannot
    count witnesses, so the bag strategies' rows are reduced to their
    distinct rows too, and one query's answer does not depend on the
    declared constraints.

    The decision procedure the paper implies:

    1. run the semantic optimizer on the rewritten plan; if it proves
       the Figure-8 derived-interval containment *with a non-empty
       interval* and the data's declared constraints support the
       single-scan reading (continuous careers ending at Full), answer
       with the Section-4.2.3 self semijoin;
    2. otherwise fall back to the stream overlap-join plan (Section 4)
       when the inputs are large enough that nested loops lose, which
       the cost model decides;
    3. otherwise run the conventional plan.
    """
    if semantic_transformation_applies(faculty) and semantic_assumptions_hold(
        faculty
    ):
        chosen = semantic_superstar(faculty)
    else:
        from ..optimizer.cost import CostModel

        model = CostModel()
        n = len(faculty)
        stream_cost = 3 * model.scan_cost(n) + 2 * model.sort_cost(n)
        nested_cost = model.nested_loop_cost(n, n)
        if stream_cost < nested_cost:
            chosen = stream_superstar(faculty)
        else:
            chosen = conventional_superstar(faculty)
    chosen.rows = Counter(chosen.rows.keys())
    chosen.details["planned"] = True
    return chosen


def all_strategies(faculty: TemporalRelation) -> list[StrategyResult]:
    """Run every applicable strategy (the semantic one only when its
    assumptions hold) and verify they agree before returning.

    The conventional and stream strategies evaluate the Quel query as
    written, one row per (f1, f2, f3) binding, so they must agree as
    multisets.  The semantic strategy's single-scan self semijoin
    answers the duplicate-free reading — does a witness exist — so it
    is compared on the distinct rows only.  The two readings are the
    multiset and set answers of one snapshot query (the distinction of
    snapshot multiset semantics, Dignös et al., arXiv 1902.04938); they
    differ whenever a promotion has more than one associate witness."""
    results = [
        conventional_superstar(faculty),
        stream_superstar(faculty),
    ]
    if semantic_assumptions_hold(faculty):
        results.append(semantic_superstar(faculty))
    reference = results[0]
    for result in results[1:]:
        if result.strategy == "semantic-self-semijoin":
            agree = result.rows.keys() == reference.rows.keys()
        else:
            agree = result.rows == reference.rows
        if not agree:
            raise AssertionError(
                f"strategy {result.strategy!r} disagrees with "
                f"{reference.strategy!r}"
            )
    return results
