"""Cross-check the paper's tables, the symbolic theory, and the code.

Three independent artefacts claim to know which (operator, sort-order)
cells are single-pass evaluable and what workspace they retain:

1. the paper's Tables 1-3, encoded as *data* in
   :mod:`repro.analysis.tables` (:func:`expected_cell`);
2. the symbolic derivation (:func:`derive_cell`), which re-derives
   admissibility from the operator's match condition alone;
3. the executable registry in :mod:`repro.streams.registry`, which is
   what the planner actually consults.

:func:`check_plan` walks the full 120-cell grid and verifies, per
cell:

* theory vs tables — derived admissibility matches the table class
  ('-' iff inadmissible), and where the theory pins an exact class
  (``d``/``a1``/``b1``) it matches the table;
* registry vs tables — the registry declares the table's state class,
  supports exactly the admissible cells, and flags order-freeness
  exactly where the paper does;
* backends — every supported cell's row carries the tuple-at-a-time
  processor and both batch kernels (a '-' cell has no row to offer any
  from);
* shape — ``TemporalOperator.shape`` agrees with the operator spec's
  ``kind``;
* fallback — every operator with a supported cell has a row in the one
  operator → predicate map (``streams.processors.baseline.PREDICATES``).

The checker accepts an injected registry mapping so tests can corrupt
one cell and prove the mismatch is caught.  Exit contract (via
``python -m repro.analysis``): 0 all cells agree, 1
otherwise, with a per-cell diff on stdout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

from ..model.sortorder import SortOrder
from ..streams import registry as registry_module
from ..streams.processors.baseline import PREDICATES
from ..streams.registry import RegistryEntry, TemporalOperator
from .tables import (
    OPERATOR_SPECS,
    Derivation,
    derive_cell,
    derive_fused_bound,
    expected_cell,
    full_grid,
)


#: ``OperatorSpec.kind`` -> the ``TemporalOperator.shape`` it implies.
_SHAPE_OF_KIND = {"join": "join", "semijoin": "semi", "self-semijoin": "self"}


@dataclass(frozen=True)
class CellReport:
    """One grid cell with its three verdicts and any disagreements."""

    operator: str
    x_order: str
    y_order: Optional[str]
    table_class: str
    table_source: str
    derived_admissible: bool
    derived_class: Optional[str]
    derivation_reason: str
    registry_class: Optional[str]
    registry_supported: Optional[bool]
    registry_backends: Tuple[str, ...]
    problems: Tuple[str, ...]
    #: Slot-store bound the batch kernel must honour for this cell
    #: (from :func:`~repro.analysis.tables.derive_fused_bound`) and the
    #: bound its cell row actually declares.
    fused_bound_expected: Optional[str] = None
    fused_bound_declared: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "x_order": self.x_order,
            "y_order": self.y_order,
            "table_class": self.table_class,
            "table_source": self.table_source,
            "derived_admissible": self.derived_admissible,
            "derived_class": self.derived_class,
            "derivation_reason": self.derivation_reason,
            "registry_class": self.registry_class,
            "registry_supported": self.registry_supported,
            "registry_backends": list(self.registry_backends),
            "fused_bound_expected": self.fused_bound_expected,
            "fused_bound_declared": self.fused_bound_declared,
            "problems": list(self.problems),
        }

    def render(self) -> str:
        cell = f"{self.operator} ([{self.x_order}], [{self.y_order}])"
        lines = [f"MISMATCH {cell}"]
        lines.append(
            f"  paper table : class {self.table_class!r} "
            f"({self.table_source})"
        )
        lines.append(
            "  derivation  : "
            + ("admissible" if self.derived_admissible else "inadmissible")
            + (
                f", class {self.derived_class!r}"
                if self.derived_class is not None
                else ""
            )
        )
        lines.append(
            f"  registry    : class {self.registry_class!r}, "
            f"supported={self.registry_supported}, "
            f"backends={list(self.registry_backends)}"
        )
        for problem in self.problems:
            lines.append(f"  !! {problem}")
        lines.append(f"  because: {self.derivation_reason}")
        return "\n".join(lines)


@dataclass
class PlanCheckReport:
    """The full-grid comparison result."""

    cells: List[CellReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def mismatches(self) -> List[CellReport]:
        return [cell for cell in self.cells if not cell.ok]

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "cells_checked": len(self.cells),
            "mismatches": [cell.to_dict() for cell in self.mismatches],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_human(self) -> str:
        out = [cell.render() for cell in self.mismatches]
        verdict = "OK" if self.ok else "FAIL"
        out.append(
            f"plan check {verdict}: {len(self.cells)} cells, "
            f"{len(self.mismatches)} mismatches"
        )
        return "\n".join(out)


def _registry_key(
    operator: TemporalOperator,
    x_order: SortOrder,
    y_order: Optional[SortOrder],
):
    return (
        operator,
        x_order.primary,
        y_order.primary if y_order is not None else None,
    )


def _check_cell(
    operator: TemporalOperator,
    x_order: SortOrder,
    y_order: Optional[SortOrder],
    entry: Optional[RegistryEntry],
) -> CellReport:
    x_key, y_key = x_order.primary, (
        y_order.primary if y_order is not None else None
    )
    table = expected_cell(operator, x_key, y_key)
    derivation: Derivation = derive_cell(operator, x_order, y_order)
    problems: List[str] = []

    # -- one definition of operator shape --------------------------------
    kind = OPERATOR_SPECS[operator].kind
    if _SHAPE_OF_KIND[kind] != operator.shape:
        problems.append(
            f"operator.shape is {operator.shape!r} but the operator "
            f"spec says {kind!r}"
        )

    # -- theory vs tables ------------------------------------------------
    if derivation.admissible != table.admissible:
        problems.append(
            "theory disagrees with the encoded table: derivation says "
            + ("admissible" if derivation.admissible else "inadmissible")
            + f", table says class {table.state_class!r}"
        )
    if (
        derivation.state_class is not None
        and derivation.state_class != table.state_class
    ):
        problems.append(
            f"theory derives class {derivation.state_class!r} but the "
            f"table encodes {table.state_class!r}"
        )
    if derivation.order_free != table.order_free:
        problems.append(
            f"theory derives order_free={derivation.order_free} but the "
            f"table encodes order_free={table.order_free}"
        )

    # -- registry vs tables ----------------------------------------------
    if entry is None:
        problems.append("cell missing from the registry")
    else:
        if entry.state_class != table.state_class:
            problems.append(
                f"registry declares class {entry.state_class!r}, the "
                f"paper's table says {table.state_class!r}"
            )
        if entry.supported != table.admissible:
            problems.append(
                f"registry supported={entry.supported} but the cell is "
                + ("admissible" if table.admissible else "inadmissible")
            )
        if entry.order_free != table.order_free:
            problems.append(
                f"registry order_free={entry.order_free}, table says "
                f"{table.order_free}"
            )
        # -- backend discipline ------------------------------------------
        if entry.supported:
            row = entry.cell
            missing = [
                backend
                for backend in registry_module.BACKENDS
                if not callable(
                    row.processor if backend == "tuple" else row.kernel
                )
            ]
            if missing:
                problems.append(
                    f"supported cell lacks backend(s): {missing}"
                )
        # -- fallback predicate -------------------------------------------
        if entry.supported and operator not in PREDICATES:
            problems.append(
                "supported cell's operator has no PREDICATES row: the "
                "spill and the nested-loop alternative cannot evaluate it"
            )

    # -- batch slot-store bound ------------------------------------------
    fused_expected = derive_fused_bound(operator, table.state_class)
    fused_declared: Optional[str] = None
    if entry is not None and entry.cell is not None:
        fused_declared = entry.cell.slot_bound
    if fused_declared != fused_expected:
        problems.append(
            f"fused slot-store bound: cell class "
            f"{table.state_class!r} requires {fused_expected!r}, the "
            f"cell row declares {fused_declared!r}"
        )

    return CellReport(
        operator=operator.value,
        x_order=str(x_order),
        y_order=str(y_order) if y_order is not None else None,
        table_class=table.state_class,
        table_source=table.source,
        derived_admissible=derivation.admissible,
        derived_class=derivation.state_class,
        derivation_reason=derivation.reason,
        registry_class=entry.state_class if entry else None,
        registry_supported=entry.supported if entry else None,
        registry_backends=entry.backends if entry else (),
        problems=tuple(problems),
        fused_bound_expected=fused_expected,
        fused_bound_declared=fused_declared,
    )


def check_plan(
    registry: Optional[Mapping] = None,
) -> PlanCheckReport:
    """Compare tables, theory and registry over the full grid.

    ``registry`` defaults to the live registry; tests inject a copy
    with a deliberately corrupted cell to prove drift is detected.
    """
    if registry is None:
        registry = registry_module._registry()
    report = PlanCheckReport()
    for operator, x_order, y_order in full_grid():
        entry = registry.get(_registry_key(operator, x_order, y_order))
        report.cells.append(_check_cell(operator, x_order, y_order, entry))
    return report
