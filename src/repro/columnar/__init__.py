"""The batch-sweep execution backend, labelled ``columnar`` (or
``fused``, a second name for the same path): the paper's Tables 1-3
algorithms over endpoint columns.

The tuple-at-a-time processors in :mod:`repro.streams.processors` are
faithful to the paper's one-buffer stream model; this package provides
the physically different but semantically identical batch backend:
operands as parallel endpoint columns, operators as batch sweep kernels
whose state is disposed of lazily, at probe time — one :data:`CELLS`
row per admissible cell, run by the one :class:`ColumnarProcessor`.
Select a backend per plan through ``RegistryEntry.build(..., backend=...)``
or ``TemporalJoinPlanner(..., backend=...)``.
"""

from .backend import CELLS, ColumnarProcessor
from .kernels import SweepStats
from .relation import IntervalColumns

__all__ = [
    "CELLS",
    "ColumnarProcessor",
    "IntervalColumns",
    "SweepStats",
]
