"""Tables 1-3 as data, and a symbolic derivation of every cell.

Two independent sources of truth live here, so the checker in
:mod:`repro.analysis.check_registry` can triangulate three ways
(paper tables vs. derived theory vs. the code's registry):

1. **The paper's tables as data** (:data:`TABLE_UPPER_BINARY`,
   :data:`TABLE_3_EXPLICIT`, :func:`expected_cell`): the upper halves
   of Tables 1-2 (both operands ascending), the explicit Table 3 rows,
   the Before column of Section 4.2.4, and the two generative rules
   the paper states — the lower halves are the *time-reversal mirror*
   of the upper halves, and mixed ascending/descending combinations
   are "generally inappropriate".

2. **A symbolic derivation** (:func:`derive_cell`): single-pass
   admissibility re-derived from first principles for each cell, using
   only the operator's match condition (explicit endpoint constraints,
   Figure 2 style) and the declared sort orders.  The reasoning is an
   inequality-closure argument on :class:`ImplicationGraph`:

   * **Garbage collection criterion** (Section 4.1).  A state tuple
     held for stream S is dead once no *future* tuple of the other
     stream T can match it.  Future T tuples move one way along T's
     sort key, so a GC criterion exists iff the match condition
     *implies a bound on T's sort key by an endpoint of the held
     tuple* — an upper bound when T ascends, a lower bound when T
     descends.  A cell is single-pass admissible iff **both** sides
     have a GC criterion.

   * **Common sweep direction.**  Mirroring maps ``ValidFrom``
     ascending to ``ValidTo`` descending: both are *forward* or both
     *backward* sweeps of the time line.  When one operand ascends
     and the other descends there is no common sweep point — the
     formal GC bounds may exist, but the state of one side still
     grows with the input, which is the paper's "it is generally
     inappropriate to have one relation sorted in ascending order and
     the other in descending order".

   * **Order-free semijoins** (Section 4.2.4).  A semijoin whose
     condition touches the inner operand through exactly one one-sided
     comparison (``X.TE < Y.TS`` for Before) reduces to comparing
     against a single running aggregate (``max Y.TS``), so it is
     single-pass in *any* order: class ``d``, no sort required.

   * **Self semijoins** (Table 3).  With one stream, the witness for
     a candidate either *precedes* it in sweep order (then the
     condition minus the implied order fact must reduce to one
     residual comparison, answerable from one extremal tuple: class
     ``a1``) or *follows* it (then candidates wait in state and need
     their own GC bound: class ``b1``); otherwise no class exists.

   For binary admissible cells the derivation intentionally does not
   pin the exact workspace class: ``b`` (overlap-semijoin) and ``c``
   (contain-semijoin) cells have identical bound structure and differ
   only in how aggressively matched tuples retire — that is paper
   text, kept as data, and cross-checked as data.

The derivation was verified by hand against all 120 registry cells
(7 binary operators x 16 order pairs, 2 self operators x 4 orders);
``tests/analysis/test_tables.py`` re-verifies it mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..allen.symbolic import Comparison, Conjunction, Endpoint, EndpointKind
from ..model.sortorder import Direction, SortAttribute, SortKey, SortOrder
from ..semantic.inequality_graph import ImplicationGraph
from ..streams.registry import TemporalOperator

# ----------------------------------------------------------------------
# operator specifications: explicit endpoint constraints
# ----------------------------------------------------------------------
#: Variable names for binary operands and self-semijoin roles.
X, Y = "X", "Y"
CAND, WIT = "cand", "wit"


def _ts(var: str) -> Endpoint:
    return Endpoint(var, EndpointKind.TS)


def _te(var: str) -> Endpoint:
    return Endpoint(var, EndpointKind.TE)


def _contain(outer: str, inner: str) -> Conjunction:
    """``outer`` strictly contains ``inner`` (Allen DURING, seen from
    the container): ``outer.TS < inner.TS AND inner.TE < outer.TE``."""
    return Conjunction.of(
        Comparison.lt(_ts(outer), _ts(inner)),
        Comparison.lt(_te(inner), _te(outer)),
    )


@dataclass(frozen=True)
class OperatorSpec:
    """One temporal operator: its flavour plus its match condition as
    an explicit endpoint-constraint conjunction."""

    operator: TemporalOperator
    #: "join" | "semijoin" | "self-semijoin"
    kind: str
    #: Over variables (X, Y) for binary operators, (cand, wit) for
    #: self semijoins (cand = the tuple the semijoin may output, wit =
    #: the tuple witnessing the condition).
    condition: Conjunction


_T = TemporalOperator

OPERATOR_SPECS: Dict[TemporalOperator, OperatorSpec] = {
    _T.CONTAIN_JOIN: OperatorSpec(_T.CONTAIN_JOIN, "join", _contain(X, Y)),
    _T.CONTAIN_SEMIJOIN: OperatorSpec(
        _T.CONTAIN_SEMIJOIN, "semijoin", _contain(X, Y)
    ),
    _T.CONTAINED_SEMIJOIN: OperatorSpec(
        _T.CONTAINED_SEMIJOIN, "semijoin", _contain(Y, X)
    ),
    _T.OVERLAP_JOIN: OperatorSpec(
        _T.OVERLAP_JOIN,
        "join",
        Conjunction.of(
            Comparison.lt(_ts(X), _te(Y)), Comparison.lt(_ts(Y), _te(X))
        ),
    ),
    _T.OVERLAP_SEMIJOIN: OperatorSpec(
        _T.OVERLAP_SEMIJOIN,
        "semijoin",
        Conjunction.of(
            Comparison.lt(_ts(X), _te(Y)), Comparison.lt(_ts(Y), _te(X))
        ),
    ),
    _T.BEFORE_JOIN: OperatorSpec(
        _T.BEFORE_JOIN, "join", Conjunction.of(Comparison.lt(_te(X), _ts(Y)))
    ),
    _T.BEFORE_SEMIJOIN: OperatorSpec(
        _T.BEFORE_SEMIJOIN,
        "semijoin",
        Conjunction.of(Comparison.lt(_te(X), _ts(Y))),
    ),
    _T.SELF_CONTAIN_SEMIJOIN: OperatorSpec(
        _T.SELF_CONTAIN_SEMIJOIN, "self-semijoin", _contain(CAND, WIT)
    ),
    _T.SELF_CONTAINED_SEMIJOIN: OperatorSpec(
        _T.SELF_CONTAINED_SEMIJOIN, "self-semijoin", _contain(WIT, CAND)
    ),
}

BINARY_OPERATORS: Tuple[TemporalOperator, ...] = tuple(
    op for op, spec in OPERATOR_SPECS.items() if spec.kind != "self-semijoin"
)
SELF_OPERATORS: Tuple[TemporalOperator, ...] = tuple(
    op for op, spec in OPERATOR_SPECS.items() if spec.kind == "self-semijoin"
)


# ----------------------------------------------------------------------
# the paper's tables, as data
# ----------------------------------------------------------------------
TS_UP = SortKey(SortAttribute.VALID_FROM, Direction.ASC)
TS_DOWN = SortKey(SortAttribute.VALID_FROM, Direction.DESC)
TE_UP = SortKey(SortAttribute.VALID_TO, Direction.ASC)
TE_DOWN = SortKey(SortAttribute.VALID_TO, Direction.DESC)

ALL_KEYS: Tuple[SortKey, ...] = (TS_UP, TS_DOWN, TE_UP, TE_DOWN)

#: Upper halves of Tables 1-2 plus the Before column (Section 4.2.4):
#: (operator, X order, Y order) -> state class, both operands
#: ascending.  Before-semijoin is listed with its class 'd' on every
#: ascending pair; :func:`expected_cell` extends it order-free.
TABLE_UPPER_BINARY: Dict[Tuple[TemporalOperator, SortKey, SortKey], str] = {
    # Table 1 - Contain-join
    (_T.CONTAIN_JOIN, TS_UP, TS_UP): "a",
    (_T.CONTAIN_JOIN, TS_UP, TE_UP): "b",
    (_T.CONTAIN_JOIN, TE_UP, TS_UP): "-",
    (_T.CONTAIN_JOIN, TE_UP, TE_UP): "-",
    # Table 1 - Contain-semijoin
    (_T.CONTAIN_SEMIJOIN, TS_UP, TS_UP): "c",
    (_T.CONTAIN_SEMIJOIN, TS_UP, TE_UP): "d",
    (_T.CONTAIN_SEMIJOIN, TE_UP, TS_UP): "-",
    (_T.CONTAIN_SEMIJOIN, TE_UP, TE_UP): "-",
    # Table 1 - Contained-semijoin
    (_T.CONTAINED_SEMIJOIN, TS_UP, TS_UP): "c",
    (_T.CONTAINED_SEMIJOIN, TS_UP, TE_UP): "-",
    (_T.CONTAINED_SEMIJOIN, TE_UP, TS_UP): "d",
    (_T.CONTAINED_SEMIJOIN, TE_UP, TE_UP): "-",
    # Table 2 - Overlap
    (_T.OVERLAP_JOIN, TS_UP, TS_UP): "a",
    (_T.OVERLAP_JOIN, TS_UP, TE_UP): "-",
    (_T.OVERLAP_JOIN, TE_UP, TS_UP): "-",
    (_T.OVERLAP_JOIN, TE_UP, TE_UP): "-",
    (_T.OVERLAP_SEMIJOIN, TS_UP, TS_UP): "b",
    (_T.OVERLAP_SEMIJOIN, TS_UP, TE_UP): "-",
    (_T.OVERLAP_SEMIJOIN, TE_UP, TS_UP): "-",
    (_T.OVERLAP_SEMIJOIN, TE_UP, TE_UP): "-",
    # Section 4.2.4 - Before: the join retains every X tuple (state
    # grows with the input under any order); the semijoin is class d.
    (_T.BEFORE_JOIN, TS_UP, TS_UP): "-",
    (_T.BEFORE_JOIN, TS_UP, TE_UP): "-",
    (_T.BEFORE_JOIN, TE_UP, TS_UP): "-",
    (_T.BEFORE_JOIN, TE_UP, TE_UP): "-",
    (_T.BEFORE_SEMIJOIN, TS_UP, TS_UP): "d",
    (_T.BEFORE_SEMIJOIN, TS_UP, TE_UP): "d",
    (_T.BEFORE_SEMIJOIN, TE_UP, TS_UP): "d",
    (_T.BEFORE_SEMIJOIN, TE_UP, TE_UP): "d",
}

#: Table 3, explicit rows (the paper lists the ValidFrom-sorted rows;
#: the ValidTo-sorted rows are their time-reversal mirrors).
TABLE_3_EXPLICIT: Dict[Tuple[TemporalOperator, SortKey], str] = {
    (_T.SELF_CONTAINED_SEMIJOIN, TS_UP): "a1",
    (_T.SELF_CONTAINED_SEMIJOIN, TS_DOWN): "-",
    (_T.SELF_CONTAIN_SEMIJOIN, TS_UP): "b1",
    (_T.SELF_CONTAIN_SEMIJOIN, TS_DOWN): "a1",
}


@dataclass(frozen=True)
class ExpectedCell:
    """What the paper's tables say about one cell."""

    state_class: str
    order_free: bool = False
    #: "explicit" (printed in the paper), "mirror" (lower half, derived
    #: by time reversal) or "mixed" (the ascending/descending mix the
    #: paper rules out wholesale).
    source: str = "explicit"

    @property
    def admissible(self) -> bool:
        return self.state_class != "-"


def expected_cell(
    operator: TemporalOperator,
    x_key: SortKey,
    y_key: Optional[SortKey] = None,
) -> ExpectedCell:
    """The paper's verdict for one (operator, sort-order) cell, for
    the *full* grid: explicit upper-half rows, mirrored lower-half
    rows, and the mixed-direction rule."""
    spec = OPERATOR_SPECS[operator]
    if spec.kind == "self-semijoin":
        if y_key is not None:
            raise ValueError(f"{operator.value} takes a single operand")
        explicit = TABLE_3_EXPLICIT.get((operator, x_key))
        if explicit is not None:
            return ExpectedCell(explicit, source="explicit")
        mirrored = TABLE_3_EXPLICIT.get((operator, x_key.mirrored()))
        if mirrored is not None:
            return ExpectedCell(mirrored, source="mirror")
        return ExpectedCell("-", source="mirror")
    if y_key is None:
        raise ValueError(f"{operator.value} takes two operands")
    if operator is _T.BEFORE_SEMIJOIN:
        return ExpectedCell("d", order_free=True, source="explicit")
    explicit = TABLE_UPPER_BINARY.get((operator, x_key, y_key))
    if explicit is not None:
        return ExpectedCell(explicit, source="explicit")
    mirrored = TABLE_UPPER_BINARY.get(
        (operator, x_key.mirrored(), y_key.mirrored())
    )
    if mirrored is not None:
        return ExpectedCell(mirrored, source="mirror")
    return ExpectedCell("-", source="mixed")


#: The batch kernels' slot-store high-water vocabulary, coarsest
#: first.  Each row of ``repro.columnar.backend.CELLS`` declares one
#: of these as its ``slot_bound``; the plan checker certifies it against
#: :func:`derive_fused_bound`.
FUSED_BOUNDS = ("zero", "one", "active-intervals")


def derive_fused_bound(
    operator: TemporalOperator, state_class: str
) -> Optional[str]:
    """The slot-store high-water bound a cell's batch kernel must declare,
    derived from the Tables 1-3 state-class aggregates alone:

    * inadmissible cells (``'-'``) have no batch kernel — ``None``;
    * class (d) keeps buffers only, and the class-(b) *semijoins*
      retire each candidate at its first witness, so both run with an
      empty slot store — ``"zero"``;
    * class (a1) keeps one extremal tuple — ``"one"``;
    * every other admissible class ((a)/(b) joins, (c), (b1)) is
      bounded by the open intervals around the sweep point —
      ``"active-intervals"``.
    """
    if state_class == "-":
        return None
    if state_class == "d":
        return "zero"
    if state_class == "a1":
        return "one"
    if (
        state_class == "b"
        and OPERATOR_SPECS[operator].kind == "semijoin"
    ):
        return "zero"
    return "active-intervals"


def full_grid() -> Iterator[
    Tuple[TemporalOperator, SortOrder, Optional[SortOrder]]
]:
    """Every cell of the full Tables 1-3 grid (120 cells: 7 binary
    operators x 16 order pairs, 2 self operators x 4 orders)."""
    for operator in BINARY_OPERATORS:
        for x_key in ALL_KEYS:
            for y_key in ALL_KEYS:
                yield operator, SortOrder.of(x_key), SortOrder.of(y_key)
    for operator in SELF_OPERATORS:
        for x_key in ALL_KEYS:
            yield operator, SortOrder.of(x_key), None


# ----------------------------------------------------------------------
# the symbolic derivation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Derivation:
    """What the inequality-closure theory concludes about one cell."""

    admissible: bool
    #: The derived workspace class where the theory pins one ("d",
    #: "a1", "b1", or "-" for inadmissible cells); ``None`` when the
    #: cell is admissible but the exact class is paper data the
    #: structure does not determine (a/b/c).
    state_class: Optional[str]
    order_free: bool
    reason: str


_KEY_KIND = {
    SortAttribute.VALID_FROM: EndpointKind.TS,
    SortAttribute.VALID_TO: EndpointKind.TE,
}


def _closure(
    condition: Conjunction, extra: Tuple[Comparison, ...] = ()
) -> ImplicationGraph:
    """Match condition + intra-tuple integrity (v.TS < v.TE for every
    variable) + any extra order facts, as an implication graph."""
    graph = ImplicationGraph()
    graph.add_conjunction(condition)
    for var in sorted(condition.variables()):
        graph.add_fact(Comparison.lt(_ts(var), _te(var)))
    graph.add_facts(extra)
    return graph


def _gc_bound(
    graph: ImplicationGraph,
    moving_var: str,
    moving_key: SortKey,
    held_var: str,
) -> Optional[str]:
    """The garbage-collection criterion for state held against the
    ``moving`` stream: an endpoint of the held tuple that bounds the
    moving stream's sort key on the side future tuples come from.
    Returns a human-readable bound, or ``None`` when no GC exists."""
    kind = _KEY_KIND.get(moving_key.attribute)
    if kind is None:
        return None
    key = Endpoint(moving_var, kind)
    for held_kind in (EndpointKind.TS, EndpointKind.TE):
        bound = Endpoint(held_var, held_kind)
        if moving_key.direction is Direction.ASC:
            comparison = Comparison.le(key, bound)
        else:
            comparison = Comparison.le(bound, key)
        if graph.implies(comparison):
            return str(comparison)
    return None


def _order_free_semijoin(spec: OperatorSpec) -> bool:
    """Section 4.2.4's Before-semijoin shape: a (binary) semijoin whose
    condition is a single one-sided endpoint comparison.  Existence
    over Y then reduces to one running extremum of a Y endpoint, so no
    sort order is needed at all (class d)."""
    if spec.kind != "semijoin" or len(spec.condition) != 1:
        return False
    comparison = spec.condition.comparisons[0]
    return {
        term.variable
        for term in (comparison.left, comparison.right)
        if isinstance(term, Endpoint)
    } == {X, Y}


def derive_cell(
    operator: TemporalOperator,
    x_order: SortOrder,
    y_order: Optional[SortOrder] = None,
) -> Derivation:
    """Symbolically derive single-pass admissibility for one cell from
    the operator's match condition and the declared sort orders."""
    spec = OPERATOR_SPECS[operator]
    if spec.kind == "self-semijoin":
        if y_order is not None:
            raise ValueError(f"{operator.value} takes a single operand")
        return _derive_self(spec, x_order.primary)
    if y_order is None:
        raise ValueError(f"{operator.value} takes two operands")
    return _derive_binary(spec, x_order.primary, y_order.primary)


def _derive_binary(
    spec: OperatorSpec, x_key: SortKey, y_key: SortKey
) -> Derivation:
    if _order_free_semijoin(spec):
        return Derivation(
            True,
            "d",
            True,
            f"semijoin over the single one-sided condition "
            f"[{spec.condition}]: existence reduces to one running "
            f"extremum of a Y endpoint, single-pass in any order",
        )
    if (
        x_key.attribute not in _KEY_KIND
        or y_key.attribute not in _KEY_KIND
    ):
        return Derivation(
            False, "-", False, "non-temporal primary sort key"
        )
    if x_key.direction is not y_key.direction:
        return Derivation(
            False,
            "-",
            False,
            f"opposite sweep directions ({x_key} vs {y_key}): no common "
            "sweep point exists, one side's state grows with the input "
            "(the paper's 'generally inappropriate' mixed orders)",
        )
    graph = _closure(spec.condition)
    # X-state is collected as Y advances, and vice versa.
    x_gc = _gc_bound(graph, Y, y_key, X)
    y_gc = _gc_bound(graph, X, x_key, Y)
    if x_gc and y_gc:
        return Derivation(
            True,
            None,
            False,
            f"GC criteria on both sides: X-state dies once {x_gc} is "
            f"passed, Y-state once {y_gc} is passed",
        )
    missing = "X" if not x_gc else "Y"
    return Derivation(
        False,
        "-",
        False,
        f"no GC criterion for {missing}-state: the condition "
        f"[{spec.condition}] bounds no endpoint of the advancing "
        "stream's sort key, so that state grows with the input",
    )


def _derive_self(spec: OperatorSpec, key: SortKey) -> Derivation:
    kind = _KEY_KIND.get(key.attribute)
    if kind is None:
        return Derivation(False, "-", False, "non-temporal primary sort key")
    cand_key = Endpoint(CAND, kind)
    wit_key = Endpoint(WIT, kind)
    # In sweep order, "u precedes v" means u's key is smaller when the
    # stream ascends and larger when it descends.
    if key.direction is Direction.ASC:
        wit_precedes = Comparison.lt(wit_key, cand_key)
        wit_follows = Comparison.lt(cand_key, wit_key)
    else:
        wit_precedes = Comparison.lt(cand_key, wit_key)
        wit_follows = Comparison.lt(wit_key, cand_key)
    graph = _closure(spec.condition)
    if graph.implies(wit_precedes):
        # Witnesses are all already seen; which conjuncts remain once
        # "seen earlier" is granted?
        seen = _closure(Conjunction.of(), extra=(wit_precedes,))
        for var in (CAND, WIT):
            seen.add_fact(Comparison.lt(_ts(var), _te(var)))
        residual = [
            c for c in spec.condition if not seen.implies(c)
        ]
        if len(residual) == 1:
            return Derivation(
                True,
                "a1",
                False,
                f"witness precedes candidate ({wit_precedes}); granted "
                f"that, only [{residual[0]}] remains, answerable from "
                "one extremal seen tuple (plus a secondary order for "
                "key ties): one-tuple state",
            )
        return Derivation(
            False,
            "-",
            False,
            f"witness precedes candidate but {len(residual)} residual "
            "comparisons remain; no single aggregate answers them",
        )
    if graph.implies(wit_follows):
        gc = _gc_bound(graph, WIT, key, CAND)
        if gc:
            return Derivation(
                True,
                "b1",
                False,
                f"witness follows candidate ({wit_follows}); open "
                f"candidates wait in state and die once {gc} is "
                "passed: bounded candidate list",
            )
        return Derivation(
            False,
            "-",
            False,
            "witness follows candidate but no GC bound exists: the "
            "open-candidate state grows with the input",
        )
    return Derivation(
        False,
        "-",
        False,
        "the condition fixes no sweep-order relation between witness "
        "and candidate on this key",
    )
