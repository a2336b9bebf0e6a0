"""Table scans."""

from __future__ import annotations

from typing import Iterator, Optional

from ...model.relation import TemporalRelation
from ..schema import Row
from ..table import Table, table_from_temporal
from .base import Batch, EngineStats, Operator


class TableScan(Operator):
    """Full scan of an in-memory table.  Re-iterating the operator is a
    new scan (and is counted as such) — which is exactly what a
    nested-loop inner does."""

    def __init__(self, table: Table, stats: Optional[EngineStats] = None):
        super().__init__(table.schema, stats if stats is not None else EngineStats())
        self.table = table

    def __iter__(self) -> Iterator[Row]:
        self.stats.scans_started += 1
        for row in self.table:
            self.stats.rows_scanned += 1
            yield row

    def batch(self) -> Batch:
        """A temporal relation's own columns, charged as the drained
        iteration is."""
        relation = self.table.relation
        if relation is None:
            return super().batch()
        self.stats.scans_started += 1
        self.stats.rows_scanned += len(relation)
        return Batch(list(relation.columns()), len(relation), relation)

    def reaches_relation(self) -> bool:
        return self.table.relation is not None

    def describe(self) -> str:
        return f"Scan({self.table.name}, {len(self.table)} rows)"


def temporal_scan(
    relation: TemporalRelation,
    variable: Optional[str] = None,
    stats: Optional[EngineStats] = None,
) -> TableScan:
    """Scan a temporal relation as flat (optionally qualified) rows, or
    as its columns — the leaf of every Section-3 conventional plan."""
    return TableScan(table_from_temporal(relation, variable), stats=stats)
