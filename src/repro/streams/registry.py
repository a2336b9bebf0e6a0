"""Tables 1, 2 and 3 of the paper, as executable data.

The paper's central artifacts are tables mapping (operator, sort order
of X, sort order of Y) to a *state class* — how much local workspace a
single-pass stream algorithm needs, or '-' when no garbage-collection
criterion exists.  This module encodes every row as a
:class:`RegistryEntry` carrying the state-class label, the paper's
textual state characterisation, and a factory building the actual
processor (``None`` for inappropriate rows).

The lower halves of the tables are generated from the upper halves by
time-reversal mirroring, exactly as the paper argues
("the lower half of Table 1 is the mirror image of the upper half").

State classes (Table 1's legend):

* ``a`` — {X tuples whose lifespan spans the Y buffer's key point}
  union {Y tuples whose ValidFrom lies in the buffered X lifespan};
* ``b`` — {X tuples whose lifespan spans y_b.ValidTo} union {Y tuples
  contained in the buffered X lifespan};
* ``c`` — a *subset* of class (a) (semijoins retire matched tuples
  early);
* ``d`` — no state at all: the two input buffers suffice;
* ``-`` — inappropriate: no garbage-collection criterion, state grows
  with the input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from ..errors import UnsupportedBackendError, UnsupportedSortOrderError
from ..model.sortorder import (
    TE_ASC,
    TE_DESC,
    TS_ASC,
    TS_DESC,
    Direction,
    SortOrder,
)
from .processors.before import BeforeSemijoin
from .processors.contain_join import ContainJoinTsTe, ContainJoinTsTs
from .processors.contain_semijoin import (
    ContainedSemijoinTeTs,
    ContainedSemijoinTsTs,
    ContainSemijoinTsTe,
    ContainSemijoinTsTs,
)
from .processors.mirror import MirroredProcessor
from .processors.overlap import OverlapJoin, OverlapSemijoin
from .processors.self_semijoin import (
    SelfContainedSemijoin,
    SelfContainSemijoin,
    SelfContainSemijoinDesc,
)


class TemporalOperator(enum.Enum):
    """The inequality-temporal operators of Section 4.2."""

    CONTAIN_JOIN = "contain-join"
    CONTAIN_SEMIJOIN = "contain-semijoin"
    CONTAINED_SEMIJOIN = "contained-semijoin"
    OVERLAP_JOIN = "overlap-join"
    OVERLAP_SEMIJOIN = "overlap-semijoin"
    BEFORE_JOIN = "before-join"
    BEFORE_SEMIJOIN = "before-semijoin"
    SELF_CONTAINED_SEMIJOIN = "contained-semijoin(X,X)"
    SELF_CONTAIN_SEMIJOIN = "contain-semijoin(X,X)"

    @property
    def shape(self) -> str:
        """What the operator emits: ``"join"`` — (x, y) pairs;
        ``"semi"`` — X tuples of a binary semijoin; ``"self"`` — X
        tuples of a unary Table-3 semijoin (Section 4.2.3's i != j
        rule).  The one definition every executor dispatches on."""
        if self.value.endswith("(X,X)"):
            return "self"
        return "semi" if self.value.endswith("semijoin") else "join"


#: Paper wording for each state class.
STATE_CLASS_DESCRIPTIONS = {
    "a": (
        "state = {X tuples whose lifespan span the Y buffer's sweep "
        "point} U {Y tuples whose ValidFrom lie in the buffered X "
        "lifespan}"
    ),
    "b": (
        "state = {X tuples whose lifespan span y_b.ValidTo} U {Y "
        "tuples whose lifespans are contained within the buffered X "
        "lifespan}"
    ),
    "c": (
        "state is a subset of class (a): matched tuples are emitted "
        "and retired immediately"
    ),
    "d": "local workspace = <Buffer-x, Buffer-y> (no state tuples)",
    "-": "inappropriate for stream processing: no garbage-collection criteria",
    "a1": "state = one tuple {x_s} plus the input buffer",
    "b1": (
        "state(x_i) is a subset of {x_j | j > i and x_j overlaps x_i}: "
        "open, not-yet-output candidates"
    ),
}


#: The physical execution backends a table cell may offer.  "tuple" is
#: the paper-faithful one-buffer stream processor; "columnar" is the
#: batch-sweep backend of :mod:`repro.columnar` (same semantics and
#: workspace accounting, different physical execution); "fused" is the
#: endpoint-event sweep backend of :mod:`repro.columnar.fused` (one
#: merged sweep per query, disposal-keyed slot store, lazy join
#: materialisation).
BACKENDS = ("tuple", "columnar", "fused")


@dataclass(frozen=True)
class RegistryEntry:
    """One table cell: operator x sort orders -> algorithm + state class."""

    operator: TemporalOperator
    x_order: SortOrder
    y_order: Optional[SortOrder]
    state_class: str
    factory: Optional[Callable]
    mirrored: bool = False
    #: True when the algorithm works regardless of input sort orders
    #: (Before-semijoin); the planner then charges no sorts.
    order_free: bool = False
    #: The cell's row in :data:`repro.columnar.backend.CELLS`, which
    #: both batch backends run ('-' cells have none: no sort order
    #: makes them streamable, and batching does not change that).  A
    #: mirrored entry shares its upper-half original's row.
    cell: Optional[object] = None

    @property
    def supported(self) -> bool:
        return self.factory is not None

    @property
    def backends(self) -> tuple[str, ...]:
        """The physical backends this cell can execute on."""
        names = []
        if self.factory is not None:
            names.append("tuple")
        if self.cell is not None:
            names += ["columnar", "fused"]
        return tuple(names)

    @property
    def state_description(self) -> str:
        return STATE_CLASS_DESCRIPTIONS[self.state_class]

    def factory_for(self, backend: str = "tuple") -> Callable:
        """The processor factory for one physical backend."""
        if backend not in BACKENDS:
            raise UnsupportedBackendError(
                f"unknown execution backend {backend!r}; "
                f"choose one of {BACKENDS}"
            )
        if self.factory is None:
            raise UnsupportedSortOrderError(
                f"{self.operator.value} has no bounded-workspace stream "
                f"algorithm for orders ([{self.x_order}], "
                f"[{self.y_order}])"
            )
        if backend == "tuple":
            return self.factory
        if self.cell is None:
            raise UnsupportedBackendError(
                f"{self.operator.value} on orders ([{self.x_order}], "
                f"[{self.y_order}]) has no {backend!r} implementation"
            )
        from ..columnar.backend import ColumnarProcessor

        return partial(
            ColumnarProcessor, self.cell, backend, mirrored=self.mirrored
        )

    def build(self, x_stream, y_stream=None, backend: str = "tuple"):
        """Instantiate the processor on concrete streams."""
        factory = self.factory_for(backend)
        if self.y_order is None:
            return factory(x_stream)
        return factory(x_stream, y_stream)


def _mirrored(entry: RegistryEntry) -> RegistryEntry:
    """The lower-half twin of an upper-half entry: mirrored orders, the
    tuple processor behind the time-reversal wrapper, the same cell
    (the batch processor reverses time on its columns)."""
    return RegistryEntry(
        entry.operator,
        entry.x_order.mirrored(),
        entry.y_order.mirrored() if entry.y_order else None,
        entry.state_class,
        partial(MirroredProcessor, entry.factory) if entry.factory else None,
        mirrored=True,
        cell=entry.cell,
    )


def _upper_half_binary(cells: dict) -> list[RegistryEntry]:
    """Upper halves of Tables 1 and 2 (ascending sort orders)."""
    T = TemporalOperator
    rows: list[RegistryEntry] = []

    def add(op, xo, yo, cls, factory=None, cell=None):
        rows.append(
            RegistryEntry(
                op, xo, yo, cls, factory,
                cell=cells[cell] if cell else None,
            )
        )

    # --- Table 1, Contain-join -------------------------------------
    add(T.CONTAIN_JOIN, TS_ASC, TS_ASC, "a", ContainJoinTsTs,
        "contain-join[TS^,TS^]")
    add(T.CONTAIN_JOIN, TS_ASC, TE_ASC, "b", ContainJoinTsTe,
        "contain-join[TS^,TE^]")
    add(T.CONTAIN_JOIN, TE_ASC, TS_ASC, "-")
    add(T.CONTAIN_JOIN, TE_ASC, TE_ASC, "-")
    # --- Table 1, Contain-semijoin ----------------------------------
    add(T.CONTAIN_SEMIJOIN, TS_ASC, TS_ASC, "c", ContainSemijoinTsTs,
        "contain-semijoin[TS^,TS^]")
    add(T.CONTAIN_SEMIJOIN, TS_ASC, TE_ASC, "d", ContainSemijoinTsTe,
        "contain-semijoin[TS^,TE^]")
    add(T.CONTAIN_SEMIJOIN, TE_ASC, TS_ASC, "-")
    add(T.CONTAIN_SEMIJOIN, TE_ASC, TE_ASC, "-")
    # --- Table 1, Contained-semijoin --------------------------------
    add(T.CONTAINED_SEMIJOIN, TS_ASC, TS_ASC, "c", ContainedSemijoinTsTs,
        "contained-semijoin[TS^,TS^]")
    add(T.CONTAINED_SEMIJOIN, TS_ASC, TE_ASC, "-")
    add(T.CONTAINED_SEMIJOIN, TE_ASC, TS_ASC, "d", ContainedSemijoinTeTs,
        "contained-semijoin[TE^,TS^]")
    add(T.CONTAINED_SEMIJOIN, TE_ASC, TE_ASC, "-")
    # --- Table 2, Overlap -------------------------------------------
    add(T.OVERLAP_JOIN, TS_ASC, TS_ASC, "a", OverlapJoin,
        "overlap-join[TS^,TS^]")
    add(T.OVERLAP_JOIN, TS_ASC, TE_ASC, "-")
    add(T.OVERLAP_JOIN, TE_ASC, TS_ASC, "-")
    add(T.OVERLAP_JOIN, TE_ASC, TE_ASC, "-")
    add(T.OVERLAP_SEMIJOIN, TS_ASC, TS_ASC, "b", OverlapSemijoin,
        "overlap-semijoin[TS^,TS^]")
    add(T.OVERLAP_SEMIJOIN, TS_ASC, TE_ASC, "-")
    add(T.OVERLAP_SEMIJOIN, TE_ASC, TS_ASC, "-")
    add(T.OVERLAP_SEMIJOIN, TE_ASC, TE_ASC, "-")
    # --- Section 4.2.4: Before --------------------------------------
    # No sort ordering bounds the join state; the sweep implementation
    # exists but is Theta(|X|) in workspace, which we classify '-'.
    add(T.BEFORE_JOIN, TS_ASC, TS_ASC, "-")
    add(T.BEFORE_JOIN, TS_ASC, TE_ASC, "-")
    add(T.BEFORE_JOIN, TE_ASC, TS_ASC, "-")
    add(T.BEFORE_JOIN, TE_ASC, TE_ASC, "-")
    return rows


def _build_registry() -> dict:
    from ..columnar.backend import CELLS

    registry: dict = {}

    def key(entry: RegistryEntry):
        return (
            entry.operator,
            entry.x_order.primary,
            entry.y_order.primary if entry.y_order else None,
        )

    upper = _upper_half_binary(CELLS)
    for entry in upper:
        registry[key(entry)] = entry
        mirrored = _mirrored(entry)
        registry.setdefault(key(mirrored), mirrored)

    # Mixed ascending/descending combinations: "it is generally
    # inappropriate to have one relation sorted in ascending order and
    # the other in descending order."
    all_keys = [so.primary for so in (TS_ASC, TS_DESC, TE_ASC, TE_DESC)]
    for op in dict.fromkeys(e.operator for e in upper):
        for xk in all_keys:
            for yk in all_keys:
                registry.setdefault(
                    (op, xk, yk),
                    RegistryEntry(
                        op, SortOrder.of(xk), SortOrder.of(yk), "-", None
                    ),
                )
    # The Before-semijoin is single-pass and order-independent: the
    # plain factory serves every combination, no mirror needed
    # (mirroring Before would also transpose its operands).
    for xk in all_keys:
        for yk in all_keys:
            registry[(TemporalOperator.BEFORE_SEMIJOIN, xk, yk)] = (
                RegistryEntry(
                    TemporalOperator.BEFORE_SEMIJOIN,
                    SortOrder.of(xk),
                    SortOrder.of(yk),
                    "d",
                    BeforeSemijoin,
                    order_free=True,
                    cell=CELLS["before-semijoin"],
                )
            )

    # --- Table 3: self semijoins ------------------------------------
    T = TemporalOperator
    self_rows = [
        RegistryEntry(
            T.SELF_CONTAINED_SEMIJOIN,
            SortOrder.by_ts(secondary_te=True),
            None,
            "a1",
            SelfContainedSemijoin,
            cell=CELLS["contained-semijoin[X,X][TS^,TE^]"],
        ),
        RegistryEntry(
            T.SELF_CONTAIN_SEMIJOIN,
            TS_ASC,
            None,
            "b1",
            SelfContainSemijoin,
            cell=CELLS["contain-semijoin[X,X][TS^]"],
        ),
        RegistryEntry(T.SELF_CONTAINED_SEMIJOIN, TS_DESC, None, "-", None),
        RegistryEntry(
            T.SELF_CONTAIN_SEMIJOIN,
            SortOrder.by_ts(Direction.DESC, secondary_te=True),
            None,
            "a1",
            SelfContainSemijoinDesc,
            cell=CELLS["contain-semijoin[X,X][TSv,TEv]"],
        ),
    ]
    for entry in self_rows:
        registry[key(entry)] = entry
        if entry.factory is not None:
            mirrored = _mirrored(entry)
            registry.setdefault(key(mirrored), mirrored)
    for op in (T.SELF_CONTAINED_SEMIJOIN, T.SELF_CONTAIN_SEMIJOIN):
        for xk in all_keys:
            registry.setdefault(
                (op, xk, None),
                RegistryEntry(op, SortOrder.of(xk), None, "-", None),
            )
    return registry


# Built lazily on first lookup: the columnar backend's processors both
# feed this registry and are implemented on top of the streams package,
# so resolving them at import time would be circular.
_REGISTRY: Optional[dict] = None


def _registry() -> dict:
    """The table, in the one order every listing of it uses."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = dict(sorted(_build_registry().items(), key=_key_repr))
    return _REGISTRY


def lookup(
    operator: TemporalOperator,
    x_order: SortOrder,
    y_order: Optional[SortOrder] = None,
) -> RegistryEntry:
    """The table cell for an operator and sort-order combination.

    Orders are matched on their primary key (a finer secondary order
    never hurts; factories enforce any secondary requirement).
    """
    return _registry()[
        (
            operator,
            x_order.primary,
            y_order.primary if y_order is not None else None,
        )
    ]


def entries_for(operator: TemporalOperator) -> list[RegistryEntry]:
    """All registered cells of one operator (one table column)."""
    return [e for e in _registry().values() if e.operator is operator]


def supported_entries(operator: TemporalOperator) -> list[RegistryEntry]:
    """The cells with an actual algorithm (non '-' rows)."""
    return [e for e in entries_for(operator) if e.supported]


def _key_repr(item):
    (operator, x_key, y_key), _entry = item
    return (operator.value, str(x_key), str(y_key))
