"""Tables 1, 2 and 3 of the paper, as executable data.

The paper's central artifacts are tables mapping (operator, sort order
of X, sort order of Y) to a *state class* — how much local workspace a
single-pass stream algorithm needs, or '-' when no garbage-collection
criterion exists.  This module lists every cell as a
:class:`RegistryEntry`: a view of the cell's one row in
:data:`repro.columnar.backend.CELLS` (state class, tuple processor,
batch kernels) under the entry's own orders, or of no row for an
inappropriate cell.

Only the admissible cells are written down.  The lower halves of the
tables are generated from the upper halves by time-reversal mirroring,
exactly as the paper argues ("the lower half of Table 1 is the mirror
image of the upper half"), and every remaining combination is '-'.

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
from .processors.mirror import MirroredProcessor


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


#: The physical execution backends a table cell may offer.  "columnar"
#: is the batch-sweep backend of :mod:`repro.columnar` (one kernel
#: sweep over endpoint columns, lazy join materialisation) and what the
#: planner runs by default; "fused" is a second name for the same batch
#: path.  "tuple" is the paper-faithful one-buffer stream processor,
#: kept as the oracle the batch path must equal in rows and counts.
BACKENDS = ("tuple", "columnar", "fused")


@dataclass(frozen=True)
class RegistryEntry:
    """One table cell: operator x sort orders -> algorithm + state class."""

    operator: TemporalOperator
    x_order: SortOrder
    y_order: Optional[SortOrder]
    #: The cell's row in :data:`repro.columnar.backend.CELLS`: state
    #: class, tuple processor, batch kernels.  ``None`` for a '-' cell —
    #: no sort order makes it streamable, and batching does not change
    #: that.
    cell: Optional[object] = None
    #: True for a lower-half entry: its row's algorithm under time
    #: reversal (the tuple processor behind the mirror wrapper, the
    #: batch processor on negated columns).
    mirrored: bool = False

    @property
    def supported(self) -> bool:
        return self.cell is not None

    @property
    def state_class(self) -> str:
        return self.cell.state_class if self.cell is not None else "-"

    @property
    def order_free(self) -> bool:
        """True when the algorithm works regardless of input sort
        orders (Before-semijoin); the planner then charges no sorts."""
        return self.cell is not None and self.cell.order_free

    @property
    def backends(self) -> tuple[str, ...]:
        """The backend labels this cell can execute on: a row carries
        the tuple processor and the batch kernel."""
        return BACKENDS if self.cell is not None else ()

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
        cell = self.cell
        if cell is None:
            raise UnsupportedSortOrderError(
                f"{self.operator.value} has no bounded-workspace stream "
                f"algorithm for orders ([{self.x_order}], "
                f"[{self.y_order}])"
            )
        if backend == "tuple":
            if self.mirrored:
                return partial(MirroredProcessor, cell.processor)
            return cell.processor
        from ..columnar.backend import ColumnarProcessor

        return partial(
            ColumnarProcessor, cell, backend, mirrored=self.mirrored
        )

    def build(self, x_stream, y_stream=None, backend: str = "tuple"):
        """Instantiate the processor on concrete streams."""
        factory = self.factory_for(backend)
        if self.y_order is None:
            return factory(x_stream)
        return factory(x_stream, y_stream)


def _build_registry() -> dict:
    """Tables 1-3 from their admissible cells and the paper's two
    rules: "the lower half is the mirror image of the upper half", and
    every other combination is '-' ("it is generally inappropriate to
    have one relation sorted in ascending order and the other in
    descending order")."""
    from ..columnar.backend import CELLS

    keys = [order.primary for order in (TS_ASC, TS_DESC, TE_ASC, TE_DESC)]
    entries = []
    for cell in CELLS.values():
        if cell.order_free:
            # The plain row serves every combination, no mirror needed
            # (mirroring Before would also transpose its operands).
            entries += [
                RegistryEntry(
                    cell.operator, SortOrder.of(xk), SortOrder.of(yk), cell
                )
                for xk in keys
                for yk in keys
            ]
            continue
        x_order, y_order = cell.x_order, cell.y_order
        entries.append(RegistryEntry(cell.operator, x_order, y_order, cell))
        entries.append(
            RegistryEntry(
                cell.operator,
                x_order.mirrored(),
                y_order.mirrored() if y_order else None,
                cell,
                mirrored=True,
            )
        )
    registry = {
        (e.operator, e.x_order.primary, e.y_order and e.y_order.primary): e
        for e in entries
    }
    for operator in TemporalOperator:
        for xk in keys:
            for yk in [None] if operator.shape == "self" else keys:
                # A binary table's lower half (both operands descending)
                # mirrors its upper half, '-' cells included.
                lower = yk is not None and (
                    xk.direction is yk.direction is Direction.DESC
                )
                registry.setdefault(
                    (operator, xk, yk),
                    RegistryEntry(
                        operator,
                        SortOrder.of(xk),
                        yk and SortOrder.of(yk),
                        mirrored=lower,
                    ),
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
